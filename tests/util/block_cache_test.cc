#include "util/block_cache.h"

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace datalog {
namespace {

constexpr std::size_t kKiB = 1024;
constexpr std::size_t kMiB = 1024 * kKiB;

TEST(BlockCacheTest, RequestsRoundUpToPowerOfTwoClasses) {
  // A freed block is retained at its class size. Requests outside the
  // cached range are neither counted nor retained; the one past the cap
  // is never written, so its pages are never faulted in.
  struct Case {
    std::size_t request;
    std::size_t retained;
  };
  for (const Case c :
       {Case{BlockCache::kFloorBytes, BlockCache::kFloorBytes},
        Case{BlockCache::kFloorBytes + 1, 2 * BlockCache::kFloorBytes},
        Case{40000, 64 * kKiB}, Case{64 * kKiB, 64 * kKiB},
        Case{3 * kMiB, 4 * kMiB},
        Case{BlockCache::kFloorBytes - 1, 0},
        Case{BlockCache::kCapBytes + 1, 0}}) {
    BlockCache cache;
    cache.Free(cache.Allocate(c.request), c.request);
    EXPECT_EQ(cache.stats().retained_bytes, c.retained) << c.request;
    EXPECT_EQ(cache.stats().misses, c.retained == 0 ? 0u : 1u) << c.request;
  }
}

TEST(BlockCacheTest, AFreedBlockServesAnyRequestOfItsClass) {
  BlockCache cache;
  void* block = cache.Allocate(40000);  // class 64 KiB
  std::memset(block, 0x5A, 40000);
  cache.Free(block, 40000);
  EXPECT_EQ(cache.stats().retained_bytes, 64 * kKiB);
  // The smallest and the largest request of the class get it back.
  for (std::size_t bytes : {32 * kKiB + 1, 64 * kKiB}) {
    void* again = cache.Allocate(bytes);
    EXPECT_EQ(again, block) << bytes;
    std::memset(again, 0xA5, bytes);  // all of the request is usable
    EXPECT_EQ(cache.stats().retained_bytes, 0u);
    cache.Free(again, bytes);
  }
  // The next class up does not.
  void* bigger = cache.Allocate(64 * kKiB + 1);
  EXPECT_NE(bigger, block);
  cache.Free(bigger, 64 * kKiB + 1);
  const BlockCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.retained_bytes, 64 * kKiB + 128 * kKiB);
}

TEST(BlockCacheTest, RequestsBelowTheFloorBypassTheCache) {
  BlockCache cache;
  for (std::size_t bytes :
       {std::size_t{1}, kKiB, BlockCache::kFloorBytes - 1}) {
    void* block = cache.Allocate(bytes);
    std::memset(block, 0, bytes);
    cache.Free(block, bytes);
  }
  const BlockCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.retained_bytes, 0u);
  EXPECT_EQ(stats.peak_bytes, 0u);
}

TEST(BlockCacheTest, RetainedBytesNeverPassTheCap) {
  // Five blocks of a quarter of the cap each: only four are kept. The
  // blocks are never written, so their pages are never faulted in.
  BlockCache cache;
  const std::size_t quarter = BlockCache::kCapBytes / 4;
  std::vector<void*> blocks;
  for (int i = 0; i < 5; ++i) blocks.push_back(cache.Allocate(quarter));
  for (void* block : blocks) {
    cache.Free(block, quarter);
    EXPECT_LE(cache.stats().retained_bytes, BlockCache::kCapBytes);
  }
  BlockCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.retained_bytes, BlockCache::kCapBytes);
  EXPECT_EQ(stats.peak_bytes, BlockCache::kCapBytes);
  // A block of another class does not fit either.
  void* small = cache.Allocate(64 * kKiB);
  cache.Free(small, 64 * kKiB);
  stats = cache.stats();
  EXPECT_EQ(stats.retained_bytes, BlockCache::kCapBytes);
  EXPECT_LE(stats.peak_bytes, BlockCache::kCapBytes);
  EXPECT_EQ(stats.misses, 6u);
}

TEST(BlockCacheTest, ReleaseEmptiesTheCache) {
  BlockCache cache;
  std::vector<void*> blocks;
  for (std::size_t bytes : {40 * kKiB, 40 * kKiB, 200 * kKiB, 3 * kMiB}) {
    blocks.push_back(cache.Allocate(bytes));
  }
  cache.Free(blocks[0], 40 * kKiB);
  cache.Free(blocks[1], 40 * kKiB);
  cache.Free(blocks[2], 200 * kKiB);
  cache.Free(blocks[3], 3 * kMiB);
  const std::uint64_t retained = 2 * 64 * kKiB + 256 * kKiB + 4 * kMiB;
  EXPECT_EQ(cache.stats().retained_bytes, retained);
  cache.Release();
  BlockCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.retained_bytes, 0u);
  EXPECT_EQ(stats.peak_bytes, retained);  // the peak is history
  void* block = cache.Allocate(40 * kKiB);
  EXPECT_EQ(cache.stats().misses, stats.misses + 1);
  cache.Free(block, 40 * kKiB);
}

TEST(BlockCacheTest, BlockVectorsRecycleThroughTheGlobalCache) {
  BlockCache& cache = BlockCache::Global();
  cache.Release();
  const std::uint64_t misses = cache.stats().misses;
  {
    BlockVector<std::uint32_t> v(20000, 7);  // 80,000 bytes: class 128 KiB
    EXPECT_EQ(v[19999], 7u);
  }
  EXPECT_EQ(cache.stats().misses, misses + 1);
  EXPECT_GE(cache.stats().retained_bytes, 128 * kKiB);
  const std::uint64_t hits = cache.stats().hits;
  BlockVector<std::uint64_t> w(12000);  // 96,000 bytes: the same class
  EXPECT_EQ(cache.stats().hits, hits + 1);
  EXPECT_EQ(cache.stats().misses, misses + 1);
  EXPECT_EQ(w[11999], 0u);
}

TEST(BlockCacheTest, ConcurrentAllocateAndFreeKeepBlocksPrivate) {
  // Four threads take and return blocks of a few classes. Each fills its
  // block with its own byte and checks it before returning it, so a
  // block handed to two threads at once shows up as a foreign byte.
  BlockCache cache;
  constexpr int kThreads = 4;
  constexpr int kRounds = 400;
  std::vector<int> bad(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &bad, t] {
      std::mt19937 rng(static_cast<unsigned>(t + 1));
      std::uniform_int_distribution<std::size_t> size(16 * kKiB,
                                                      300 * kKiB);
      const auto mark = static_cast<unsigned char>(t + 1);
      std::vector<std::pair<void*, std::size_t>> held;
      for (int round = 0; round < kRounds; ++round) {
        const std::size_t bytes = size(rng);
        void* block = cache.Allocate(bytes);
        std::memset(block, mark, bytes);
        held.emplace_back(block, bytes);
        if (held.size() < 3) continue;
        for (auto [b, n] : held) {
          const auto* bytes_of = static_cast<const unsigned char*>(b);
          if (bytes_of[0] != mark || bytes_of[n / 2] != mark ||
              bytes_of[n - 1] != mark) {
            ++bad[static_cast<std::size_t>(t)];
          }
          cache.Free(b, n);
        }
        held.clear();
      }
      for (auto [b, n] : held) cache.Free(b, n);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int count : bad) EXPECT_EQ(count, 0);
  const BlockCache::Stats stats = cache.stats();
  EXPECT_LE(stats.retained_bytes, BlockCache::kCapBytes);
  EXPECT_LE(stats.peak_bytes, BlockCache::kCapBytes);
  EXPECT_GT(stats.hits, 0u);
}

#if defined(__SANITIZE_ADDRESS__)
TEST(BlockCacheTest, RetainedBlocksArePoisonedUnderAsan) {
  BlockCache cache;
  auto* block = static_cast<char*>(cache.Allocate(40000));
  EXPECT_FALSE(__asan_address_is_poisoned(block));
  EXPECT_FALSE(__asan_address_is_poisoned(block + 39999));
  EXPECT_TRUE(__asan_address_is_poisoned(block + 40000));  // past request
  cache.Free(block, 40000);
  // Retained: poisoned over the whole class.
  EXPECT_TRUE(__asan_address_is_poisoned(block));
  EXPECT_TRUE(__asan_address_is_poisoned(block + 20000));
  EXPECT_TRUE(__asan_address_is_poisoned(block + 64 * kKiB - 1));
  // Handed out again: unpoisoned over the new request only.
  auto* again = static_cast<char*>(cache.Allocate(50000));
  ASSERT_EQ(again, block);
  EXPECT_FALSE(__asan_address_is_poisoned(again + 49999));
  EXPECT_TRUE(__asan_address_is_poisoned(again + 50000));
  cache.Free(again, 50000);
}
#endif

}  // namespace
}  // namespace datalog
