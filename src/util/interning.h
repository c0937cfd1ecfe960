#ifndef DATALOG_UTIL_INTERNING_H_
#define DATALOG_UTIL_INTERNING_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ast/value.h"

namespace datalog {

/// Maps strings to dense non-negative integer ids and back. Used for
/// predicate names, variable names and symbolic constants so the rest of
/// the library can work with small integers.
///
/// Not thread-safe; each SymbolTable/Program owns its interner.
class StringInterner {
 public:
  StringInterner() = default;
  StringInterner(const StringInterner&) = default;
  StringInterner& operator=(const StringInterner&) = default;
  StringInterner(StringInterner&&) = default;
  StringInterner& operator=(StringInterner&&) = default;

  /// Returns the id for `text`, interning it on first use.
  int32_t Intern(std::string_view text);

  /// Returns the id for `text`, or -1 if it has never been interned.
  int32_t Lookup(std::string_view text) const;

  /// Returns the string for a valid id. Ids come from Intern().
  const std::string& ToString(int32_t id) const { return strings_[id]; }

  /// Number of distinct interned strings.
  int32_t size() const { return static_cast<int32_t>(strings_.size()); }

 private:
  /// Transparent hashing, so lookups by string_view build no key string.
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view text) const {
      return std::hash<std::string_view>{}(text);
    }
  };

  std::unordered_map<std::string, int32_t, StringHash, std::equal_to<>>
      index_;
  std::vector<std::string> strings_;
};

/// Maps database constants (`Value`s of any kind) to dense `u32` ids and
/// back. The columnar relation backend stores every column as a
/// contiguous `std::vector<std::uint32_t>` of these ids, so equality of
/// two stored values is a single integer compare and per-column hash
/// indexes key on 4-byte ids instead of 16-byte Values (see
/// docs/columnar_storage.md).
///
/// Id assignment is dense and append-only: the first distinct value ever
/// interned gets id 0, the next gets 1, and so on (no holes, never
/// reused, stable for the dictionary's lifetime). Nothing observable
/// depends on the numeric order of ids -- relations iterate in row
/// insertion order and indexes are only probed, never enumerated -- so a
/// process-global dictionary shared by every database stays
/// deterministic even when parallel workers intern in racy order.
///
/// Thread safety: Intern / LookupId / LookupRow take an internal
/// shared_mutex (writes exclusive, lookups shared). Resolve is lock-free:
/// ids are published with a release store after the value is written into
/// a chunked append-only table, and Resolve acquires through the size
/// counter, so readers may run concurrently with interning threads
/// (verified under TSan by tests/util/interning_test.cc).
class ValueDictionary {
 public:
  /// Ids are dense, so the all-ones pattern can serve as "no such value".
  static constexpr std::uint32_t kInvalidId = 0xFFFFFFFFu;

  ValueDictionary();
  ValueDictionary(const ValueDictionary&) = delete;
  ValueDictionary& operator=(const ValueDictionary&) = delete;

  /// The process-wide dictionary used by every columnar Relation.
  static ValueDictionary& Global();

  /// Returns the id for `v`, interning it on first use.
  std::uint32_t Intern(const Value& v);

  /// Interns every value of `row`, writing the ids into `out` (resized
  /// to match). One lock round-trip for the whole row: a shared-lock
  /// pass resolves values that are already interned (the common case on
  /// hot paths), and only rows containing novel values upgrade to the
  /// exclusive lock.
  void InternRow(const std::vector<Value>& row,
                 std::vector<std::uint32_t>* out);
  /// The same over `size` values at `row`, writing `size` ids at `out`.
  /// Any novel value takes the exclusive lock once for the whole row,
  /// which is how ParseDatabase interns a batch of fact values.
  void InternRow(const Value* row, std::size_t size, std::uint32_t* out);

  /// Returns the id for `v`, or kInvalidId if it was never interned.
  std::uint32_t LookupId(const Value& v) const;

  /// Id-resolves every value of `row` into `out` without interning.
  /// Returns false (and leaves `out` unspecified) if any value is
  /// unknown -- for membership probes that means the row cannot be
  /// present in any columnar relation.
  bool LookupRow(const std::vector<Value>& row,
                 std::vector<std::uint32_t>* out) const;
  bool LookupRow(const Value* row, std::size_t size,
                 std::vector<std::uint32_t>* out) const;

  /// Returns the value for a valid id (any id previously returned by
  /// Intern). Lock-free; safe concurrently with interning threads.
  Value Resolve(std::uint32_t id) const {
    // The release store in Intern makes the chunk slot (and the chunk
    // pointer) visible to any reader that observed id < size().
    const std::uint32_t published = size_.load(std::memory_order_acquire);
    (void)published;
    const Value* chunk =
        (*chunks_)[id >> kChunkBits].load(std::memory_order_acquire);
    return chunk[id & (kChunkSize - 1)];
  }

  /// Number of distinct interned values (== the next id to be assigned).
  std::uint32_t size() const {
    return size_.load(std::memory_order_acquire);
  }

 private:
  static constexpr std::uint32_t kChunkBits = 16;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;
  static constexpr std::uint32_t kMaxChunks = 1u << (32 - kChunkBits);

  /// Intern's body; the caller holds mu_ exclusively.
  std::uint32_t InternLocked(const Value& v);

  mutable std::shared_mutex mu_;
  std::unordered_map<Value, std::uint32_t, ValueHash> index_;  // guarded by mu_
  // Append-only id -> Value table in fixed-size chunks: a published
  // chunk pointer never moves, which is what makes Resolve lock-free.
  std::unique_ptr<std::array<std::atomic<Value*>, kMaxChunks>> chunks_;
  std::vector<std::unique_ptr<Value[]>> chunk_storage_;  // guarded by mu_
  std::atomic<std::uint32_t> size_{0};
};

}  // namespace datalog

#endif  // DATALOG_UTIL_INTERNING_H_
