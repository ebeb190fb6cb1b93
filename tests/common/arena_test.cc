// Unit tests for the bump arena backing the per-market hot path.
#include "src/common/arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

namespace pad {
namespace {

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena arena;
  struct Block {
    unsigned char* p;
    size_t bytes;
    unsigned char value;
  };
  std::vector<Block> blocks;
  std::set<uintptr_t> starts;
  for (int i = 0; i < 1000; ++i) {
    const size_t bytes = static_cast<size_t>(i % 47) + 1;
    void* p = arena.Allocate(bytes);
    ASSERT_NE(p, nullptr);
    const uintptr_t addr = reinterpret_cast<uintptr_t>(p);
    EXPECT_EQ(addr % alignof(std::max_align_t), 0u);
    EXPECT_TRUE(starts.insert(addr).second) << "allocation " << i << " reuses a start address";
    // Fill each block end to end; overlapping blocks would clobber an
    // earlier fill and fail the pattern check below.
    const unsigned char value = static_cast<unsigned char>(i % 251);
    std::memset(p, value, bytes);
    blocks.push_back(Block{static_cast<unsigned char*>(p), bytes, value});
  }
  for (size_t b = 0; b < blocks.size(); ++b) {
    for (size_t j = 0; j < blocks[b].bytes; ++j) {
      ASSERT_EQ(blocks[b].p[j], blocks[b].value) << "block " << b << " byte " << j;
    }
  }
  EXPECT_EQ(arena.allocations(), 1000);
  EXPECT_GT(arena.bytes_in_use(), 0);
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_in_use());
}

TEST(ArenaTest, SupportsOverAlignment) {
  Arena arena;
  for (size_t alignment : {size_t{1}, size_t{8}, size_t{16}, size_t{32}, kCacheLine}) {
    void* p = arena.Allocate(24, alignment);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % alignment, 0u) << "alignment " << alignment;
  }
}

TEST(ArenaTest, ZeroByteAllocationsYieldDistinctPointers) {
  Arena arena;
  void* a = arena.Allocate(0);
  void* b = arena.Allocate(0);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
}

TEST(ArenaTest, GrowsBeyondOneChunkAndHonorsLargeRequests) {
  Arena arena(/*first_chunk_bytes=*/256);
  // Way past the first chunk: forces geometric growth.
  for (int i = 0; i < 64; ++i) {
    void* p = arena.Allocate(100);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0, 100);
  }
  EXPECT_GT(arena.chunks_allocated(), 1);
  // A single request larger than the default chunk still succeeds and is
  // fully writable.
  const size_t big = Arena::kDefaultChunkBytes * 3;
  void* p = arena.Allocate(big);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x5A, big);
}

TEST(ArenaVectorTest, BehavesLikeVectorOnArenaStorage) {
  Arena arena;
  ArenaVector<int> v{ArenaAllocator<int>(&arena)};
  for (int i = 0; i < 1000; ++i) {
    v.push_back(i);
  }
  ASSERT_EQ(v.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(v[i], i);
  }
  EXPECT_GT(arena.allocations(), 0);

  ArenaVector<int> copy = v;
  EXPECT_EQ(copy.back(), 999);
  copy.push_back(1000);
  EXPECT_EQ(v.size(), 1000u);
}

TEST(ArenaAllocatorTest, EqualityTracksArenaIdentity) {
  Arena a;
  Arena b;
  EXPECT_TRUE(ArenaAllocator<int>(&a) == ArenaAllocator<int>(&a));
  EXPECT_FALSE(ArenaAllocator<int>(&a) == ArenaAllocator<int>(&b));
  // Rebind conversion preserves the arena.
  ArenaAllocator<double> rebound{ArenaAllocator<int>(&a)};
  EXPECT_EQ(rebound.arena(), &a);
}

}  // namespace
}  // namespace pad
