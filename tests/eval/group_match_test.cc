// The dedup table's 16-byte group match (eval/group_match.h), both
// implementations, against a byte loop on random control groups. The
// portable SWAR match is compiled and checked on every host, not only
// where SSE2 is missing.

#include "eval/group_match.h"

#include <array>
#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "gtest/gtest.h"

namespace datalog::group_match {
namespace {

using Group = std::array<std::uint8_t, kGroupWidth>;

struct Case {
  Group group;
  std::uint8_t tag;
};

Mask TagLoop(const Group& group, std::uint8_t tag) {
  Mask mask = 0;
  for (std::size_t i = 0; i < kGroupWidth; ++i) {
    if (group[i] == tag) mask |= Mask{1} << i;
  }
  return mask;
}

Mask FreeLoop(const Group& group) {
  Mask mask = 0;
  for (std::size_t i = 0; i < kGroupWidth; ++i) {
    if (group[i] == kFree) mask |= Mask{1} << i;
  }
  return mask;
}

/// Control groups as the table writes them (kFree or a tag below 0x80),
/// heavy in the tag and in tag ^ 1, the byte a SWAR borrow can flag,
/// plus the all-free, all-tag and alternating tag / tag ^ 1 extremes.
std::vector<Case> Cases() {
  std::vector<Case> cases;
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> any_tag(0, 0x7F);
  std::uniform_int_distribution<int> pick(0, 3);
  for (int n = 0; n < 20000; ++n) {
    Case c;
    c.tag = static_cast<std::uint8_t>(any_tag(rng));
    for (std::uint8_t& byte : c.group) {
      switch (pick(rng)) {
        case 0: byte = kFree; break;
        case 1: byte = c.tag; break;
        case 2: byte = c.tag ^ 1; break;
        default: byte = static_cast<std::uint8_t>(any_tag(rng)); break;
      }
    }
    cases.push_back(c);
  }
  for (int tag : {0x00, 0x01, 0x7E, 0x7F}) {
    const auto t = static_cast<std::uint8_t>(tag);
    Case c;
    c.tag = t;
    c.group.fill(kFree);
    cases.push_back(c);
    c.group.fill(t);
    cases.push_back(c);
    for (std::size_t i = 0; i < kGroupWidth; ++i) {
      c.group[i] = i % 2 == 0 ? t : static_cast<std::uint8_t>(t ^ 1);
    }
    cases.push_back(c);
    c.group.fill(static_cast<std::uint8_t>(t ^ 1));
    c.group[0] = t;
    c.group[8] = t;
    cases.push_back(c);
  }
  return cases;
}

TEST(GroupMatchTest, PortableTagMatchFlagsEveryTagAndOnlyBorrowNeighbours) {
  for (const Case& c : Cases()) {
    const Mask got = portable::MatchTag(c.group.data(), c.tag);
    const Mask want = TagLoop(c.group, c.tag);
    ASSERT_EQ(got & want, want) << "a tag byte went unflagged";
    // A false positive is a tag ^ 1 byte that a borrow out of the flagged
    // byte just below it, in the same 64-bit word, reached.
    Mask model = 0;
    for (std::size_t i = 0; i < kGroupWidth; ++i) {
      const bool borrow = i % 8 != 0 && (model >> (i - 1) & 1) != 0;
      if (c.group[i] == c.tag || (c.group[i] == (c.tag ^ 1) && borrow)) {
        model |= Mask{1} << i;
      }
    }
    ASSERT_EQ(got, model) << "tag " << int{c.tag};
    for (Mask extra = got & ~want; extra != 0; extra &= extra - 1) {
      const int i = std::countr_zero(extra);
      ASSERT_EQ(c.group[static_cast<std::size_t>(i)], c.tag ^ 1);
      ASSERT_NE(c.group[static_cast<std::size_t>(i)], kFree);
    }
  }
}

TEST(GroupMatchTest, PortableFreeMatchIsExact) {
  for (const Case& c : Cases()) {
    ASSERT_EQ(portable::MatchFree(c.group.data()), FreeLoop(c.group));
  }
}

#ifdef __SSE2__
TEST(GroupMatchTest, Sse2MatchesAreExact) {
  for (const Case& c : Cases()) {
    ASSERT_EQ(sse2::MatchTag(c.group.data(), c.tag), TagLoop(c.group, c.tag));
    ASSERT_EQ(sse2::MatchFree(c.group.data()), FreeLoop(c.group));
  }
}
#endif

TEST(GroupMatchTest, TableMatchFindsEveryTagAndEveryFreeByte) {
  // Whichever implementation the table was built with.
  for (const Case& c : Cases()) {
    const Mask want = TagLoop(c.group, c.tag);
    ASSERT_EQ(MatchTag(c.group.data(), c.tag) & want, want);
    ASSERT_EQ(MatchFree(c.group.data()), FreeLoop(c.group));
  }
}

}  // namespace
}  // namespace datalog::group_match
