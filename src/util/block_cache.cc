#include "util/block_cache.h"

#include <algorithm>
#include <bit>

#include <sanitizer/asan_interface.h>  // no-op macros outside ASan

namespace datalog {

BlockCache& BlockCache::Global() {
  static BlockCache* const cache = new BlockCache();
  return *cache;
}

BlockCache::BlockCache() {
  for (int i = 0; i < kNumClasses; ++i) {
    free_[static_cast<std::size_t>(i)].reserve(kCapBytes >> (kMinShift + i));
  }
}

int BlockCache::ClassShift(std::size_t bytes) {
  return static_cast<int>(std::bit_width(bytes - 1));
}

void* BlockCache::Allocate(std::size_t bytes) {
  if (!Cacheable(bytes)) return ::operator new(bytes);
  const int shift = ClassShift(bytes);
  const std::size_t class_bytes = std::size_t{1} << shift;
  void* block = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<void*>& list =
        free_[static_cast<std::size_t>(shift - kMinShift)];
    if (list.empty()) {
      ++stats_.misses;
    } else {
      block = list.back();
      list.pop_back();
      stats_.retained_bytes -= class_bytes;
      ++stats_.hits;
    }
  }
  if (block == nullptr) {
    block = ::operator new(class_bytes);
    // The tail past the request is never the caller's.
    ASAN_POISON_MEMORY_REGION(static_cast<char*>(block) + bytes,
                              class_bytes - bytes);
  }
  ASAN_UNPOISON_MEMORY_REGION(block, bytes);
  return block;
}

void BlockCache::Free(void* block, std::size_t bytes) noexcept {
  if (block == nullptr) return;
  if (!Cacheable(bytes)) {
    ::operator delete(block, bytes);
    return;
  }
  const int shift = ClassShift(bytes);
  const std::size_t class_bytes = std::size_t{1} << shift;
  // Poisoned before it is listed: once listed, another thread may take it.
  ASAN_POISON_MEMORY_REGION(block, class_bytes);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stats_.retained_bytes + class_bytes <= kCapBytes) {
      free_[static_cast<std::size_t>(shift - kMinShift)].push_back(block);
      stats_.retained_bytes += class_bytes;
      stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.retained_bytes);
      return;
    }
  }
  ASAN_UNPOISON_MEMORY_REGION(block, class_bytes);
  ::operator delete(block, class_bytes);
}

void BlockCache::Release() noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  for (int i = 0; i < kNumClasses; ++i) {
    const std::size_t class_bytes = std::size_t{1} << (kMinShift + i);
    for (void* block : free_[static_cast<std::size_t>(i)]) {
      ASAN_UNPOISON_MEMORY_REGION(block, class_bytes);
      ::operator delete(block, class_bytes);
    }
    free_[static_cast<std::size_t>(i)].clear();
  }
  stats_.retained_bytes = 0;
}

BlockCache::Stats BlockCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace datalog
