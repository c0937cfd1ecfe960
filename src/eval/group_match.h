#ifndef DATALOG_EVAL_GROUP_MATCH_H_
#define DATALOG_EVAL_GROUP_MATCH_H_

// Matching over one group of 16 control bytes of the columnar dedup
// table (Relation's RowIdTable, eval/relation.h). A control byte is
// either kFree (top bit set) or the 7-bit tag of a full slot. A probe
// asks two questions of a group at once: which bytes hold my tag, and
// which bytes are free. Bit i of an answer stands for byte i.
//
// Two implementations: SSE2 (one compare and one movemask per
// question), used when the compiler defines __SSE2__, and a portable
// SWAR one over two little-endian 64-bit words. The choice is made by
// the platform, not by a knob; both stay callable here so tests can
// check each against a byte loop on any host.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace datalog::group_match {

/// Slots per group: one control byte each.
inline constexpr std::size_t kGroupWidth = 16;
/// Control byte of a free slot. A full slot's tag is below 0x80.
inline constexpr std::uint8_t kFree = 0x80;

/// Bit i set = byte i of the group answered yes.
using Mask = std::uint32_t;

namespace portable {

inline constexpr std::uint64_t kLowBits = 0x0101010101010101ULL;
inline constexpr std::uint64_t kHighBits = 0x8080808080808080ULL;

/// Bytes [8 * half, 8 * half + 8) of `group`, byte 0 in the low bits.
inline std::uint64_t LoadWord(const std::uint8_t* group, int half) {
  std::uint64_t word;
  std::memcpy(&word, group + 8 * half, sizeof word);
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word;
}

/// Gathers the top bit of each byte of `word` (whose other bits are
/// clear) into bits 0..7: byte k's bit lands at 56 + k under the
/// multiply, with no two partial products overlapping.
inline Mask TopBits(std::uint64_t word) {
  return static_cast<Mask>(((word >> 7) * 0x0102040810204080ULL) >> 56);
}

/// Flags every byte of `word` equal to `tag` through the zero-byte test
/// on word ^ broadcast(tag). The subtraction's borrow out of a zero byte
/// can also flag the byte above it when that byte is tag ^ 1 (and so on
/// up a run of such bytes): these are the only false positives. The
/// table rejects them on the key compare, and a free byte is never one.
inline Mask MatchTagWord(std::uint64_t word, std::uint8_t tag) {
  const std::uint64_t x = word ^ (kLowBits * tag);
  return TopBits((x - kLowBits) & ~x & kHighBits);
}

/// Every byte equal to `tag` (a tag, below 0x80), plus the borrow false
/// positives described at MatchTagWord.
inline Mask MatchTag(const std::uint8_t* group, std::uint8_t tag) {
  return MatchTagWord(LoadWord(group, 0), tag) |
         MatchTagWord(LoadWord(group, 1), tag) << 8;
}

/// Exactly the free bytes.
inline Mask MatchFree(const std::uint8_t* group) {
  return TopBits(LoadWord(group, 0) & kHighBits) |
         TopBits(LoadWord(group, 1) & kHighBits) << 8;
}

}  // namespace portable

#ifdef __SSE2__
namespace sse2 {

inline __m128i Load(const std::uint8_t* group) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(group));
}

/// Exactly the bytes equal to `tag`.
inline Mask MatchTag(const std::uint8_t* group, std::uint8_t tag) {
  const __m128i tags = _mm_set1_epi8(static_cast<char>(tag));
  return static_cast<Mask>(
      _mm_movemask_epi8(_mm_cmpeq_epi8(Load(group), tags)));
}

/// Exactly the free bytes: the top bit of each byte.
inline Mask MatchFree(const std::uint8_t* group) {
  return static_cast<Mask>(_mm_movemask_epi8(Load(group)));
}

}  // namespace sse2
#endif

/// The implementation the table uses.
#ifdef __SSE2__
using sse2::MatchFree;
using sse2::MatchTag;
#else
using portable::MatchFree;
using portable::MatchTag;
#endif

}  // namespace datalog::group_match

#endif  // DATALOG_EVAL_GROUP_MATCH_H_
