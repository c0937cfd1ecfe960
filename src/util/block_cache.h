#ifndef DATALOG_UTIL_BLOCK_CACHE_H_
#define DATALOG_UTIL_BLOCK_CACHE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace datalog {

/// A bounded, thread-safe, process-wide cache of large memory blocks.
///
/// Evaluation storage -- a relation's id columns, its dedup table and
/// the buffers a rule application derives into -- is freed when the
/// evaluation ends and asked for again, at the same sizes, by the next
/// one. Handing such blocks straight back to the C++ heap lets it return
/// them to the kernel, and the next evaluation pays a page fault per page
/// to get them back. The cache keeps the freed blocks instead, in
/// power-of-two size classes, and serves later requests of the same class
/// from them (see docs/columnar_storage.md, "Recycled storage").
///
///  - Requests below kFloorBytes, or whose class is above kCapBytes, go
///    straight to operator new / delete.
///  - Any other request is rounded up to its class, a power of two, so a
///    block is never more than twice its request and a block freed with
///    its request's size returns to the class it came from.
///  - The retained blocks never add up to more than kCapBytes; a freed
///    block that would pass the cap is deleted.
///  - One mutex guards the free lists.
///  - Under AddressSanitizer a retained block is poisoned over its whole
///    class, and a handed-out block is unpoisoned over its request only,
///    so a read of a freed column or table, or past a block's request,
///    still reports.
///
/// Nothing here is tunable: the library must not retune its host's
/// allocator, and the two constants are sized for evaluation storage.
class BlockCache {
 public:
  /// Smaller blocks go straight to operator new: the C++ heap keeps them
  /// itself instead of returning them to the kernel, so caching them
  /// would only add a lock per allocation.
  static constexpr std::size_t kFloorBytes = std::size_t{32} << 10;
  /// The most the cache ever retains. Enough for the blocks of several
  /// evaluations of tens of thousands of rows, small against any host
  /// that runs them.
  static constexpr std::size_t kCapBytes = std::size_t{64} << 20;

  struct Stats {
    std::uint64_t retained_bytes = 0;  // held in the free lists now
    std::uint64_t peak_bytes = 0;      // most ever held at once
    std::uint64_t hits = 0;    // cacheable requests served from a list
    std::uint64_t misses = 0;  // cacheable requests sent to operator new
  };

  /// The process cache. Never destroyed, so containers freed during
  /// static destruction can still return their blocks.
  static BlockCache& Global();

  BlockCache();
  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;
  ~BlockCache() { Release(); }

  /// A block of at least `bytes` bytes, aligned like operator new's.
  void* Allocate(std::size_t bytes);
  /// Returns a block from Allocate(`bytes`), with the same `bytes`.
  void Free(void* block, std::size_t bytes) noexcept;
  /// Deletes every retained block.
  void Release() noexcept;

  Stats stats() const;

 private:
  static constexpr int kMinShift = 15;  // log2(kFloorBytes)
  static constexpr int kMaxShift = 26;  // log2(kCapBytes)
  static_assert(std::size_t{1} << kMinShift == kFloorBytes);
  static_assert(std::size_t{1} << kMaxShift == kCapBytes);
  static constexpr int kNumClasses = kMaxShift - kMinShift + 1;

  static bool Cacheable(std::size_t bytes) {
    return bytes >= kFloorBytes && bytes <= kCapBytes;
  }
  /// log2 of the class size of a cacheable request.
  static int ClassShift(std::size_t bytes);

  mutable std::mutex mu_;
  // Retained blocks per class (index shift - kMinShift). Each list is
  // reserved for every block of its class that fits under the cap, so
  // Free never allocates.
  std::array<std::vector<void*>, kNumClasses> free_;
  Stats stats_;
};

/// A standard allocator over BlockCache::Global(). Stateless: any two
/// compare equal, so containers move and swap buffers freely.
template <typename T>
class BlockAllocator {
 public:
  using value_type = T;
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  BlockAllocator() noexcept = default;
  template <typename U>
  BlockAllocator(const BlockAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    return static_cast<T*>(BlockCache::Global().Allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    BlockCache::Global().Free(p, n * sizeof(T));
  }

  friend bool operator==(const BlockAllocator&,
                         const BlockAllocator&) noexcept {
    return true;
  }
};

/// A vector whose buffer is recycled through the block cache.
template <typename T>
using BlockVector = std::vector<T, BlockAllocator<T>>;

/// BlockAllocator whose value-less construct default-initializes, so
/// resize() on a vector of trivial elements makes room without writing
/// it: for a buffer whose owner writes every element it keeps and trims
/// the rest away (the bytecode VM's head rows).
template <typename T>
class RoomAllocator : public BlockAllocator<T> {
 public:
  RoomAllocator() noexcept = default;
  template <typename U>
  RoomAllocator(const RoomAllocator<U>&) noexcept {}  // NOLINT

  template <typename U>
  void construct(U* p) noexcept(
      std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// A vector recycled through the block cache, like BlockVector, whose
/// resize() leaves new elements unwritten.
template <typename T>
using RoomVector = std::vector<T, RoomAllocator<T>>;

}  // namespace datalog

#endif  // DATALOG_UTIL_BLOCK_CACHE_H_
