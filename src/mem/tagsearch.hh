/**
 * @file
 * Vectorized tag search for set-associative tag arrays.
 *
 * The classic per-set lookup is a linear scan over `assoc` fat line
 * structs — at 8–16 ways and millions of probes per study cell it is
 * the hottest loop in replay. This header provides the fast probe:
 *
 *  - each way keeps a 16-bit *signature* (XOR-fold of the full tag)
 *    in a contiguous per-set array;
 *  - a probe compares 8 signatures per step with SSE2;
 *  - signature matches are *candidates* only — two tags can fold to
 *    the same signature — so every candidate is confirmed against the
 *    full 64-bit tag and the valid mask. False positives cost one
 *    extra compare; false negatives are impossible (equal tags have
 *    equal signatures).
 *
 * Selection is fixed at compile time: findWay() is findWaySimd() when
 * the target has SSE2 and findWayScalar() otherwise. findWayScalar()
 * is the oracle; tests/test_mem_replay_determinism.cc pins the two
 * equal across associativities 1–16 with partial/invalid sets.
 */

#ifndef STACK3D_MEM_TAGSEARCH_HH
#define STACK3D_MEM_TAGSEARCH_HH

#include <bit>
#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace stack3d {
namespace mem {

/** 16-bit tag signature: XOR-fold of the 64-bit tag. */
using TagSig = std::uint16_t;

inline TagSig
sigOf(std::uint64_t tag)
{
    tag ^= tag >> 32;
    tag ^= tag >> 16;
    return TagSig(tag & 0xFFFF);
}

/** Signatures are stored padded to a multiple of 8 lanes so SSE2
 *  probes can always load full groups. Padding lanes belong to no
 *  way and are rejected by the `way < assoc` candidate check. */
inline unsigned
sigStride(unsigned assoc)
{
    return (assoc + 7u) & ~7u;
}

/**
 * Reference scan: first way with a valid matching full tag, or -1.
 * The vector probe must agree with this one exactly.
 */
inline int
findWayScalar(const std::uint64_t *tags, std::uint32_t valid_mask,
              unsigned assoc, std::uint64_t tag)
{
    for (unsigned w = 0; w < assoc; ++w) {
        if ((valid_mask >> w) & 1u) {
            if (tags[w] == tag)
                return int(w);
        }
    }
    return -1;
}

#if defined(__SSE2__)
/** SSE2 probe: 8 signatures per step via cmpeq + movemask. @p sigs
 *  must have sigStride(assoc) valid-to-read lanes. */
inline int
findWaySimd(const TagSig *sigs, const std::uint64_t *tags,
            std::uint32_t valid_mask, unsigned assoc, std::uint64_t tag)
{
    const __m128i pattern = _mm_set1_epi16(short(sigOf(tag)));
    const unsigned stride = sigStride(assoc);
    for (unsigned base = 0; base < stride; base += 8) {
        __m128i chunk = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(sigs + base));
        unsigned cand = unsigned(
            _mm_movemask_epi8(_mm_cmpeq_epi16(chunk, pattern)));
        while (cand) {
            unsigned lane = unsigned(std::countr_zero(cand)) / 2u;
            cand &= cand - 1;   // clear low bit of the 2-bit lane pair
            cand &= cand - 1;
            unsigned w = base + lane;
            if (w < assoc && ((valid_mask >> w) & 1u) &&
                tags[w] == tag) {
                return int(w);
            }
        }
    }
    return -1;
}
#endif

/** The build's probe: SSE2 when compiled in, else the scalar scan. */
inline int
findWay(const TagSig *sigs, const std::uint64_t *tags,
        std::uint32_t valid_mask, unsigned assoc, std::uint64_t tag)
{
#if defined(__SSE2__)
    return findWaySimd(sigs, tags, valid_mask, assoc, tag);
#else
    (void)sigs;
    return findWayScalar(tags, valid_mask, assoc, tag);
#endif
}

} // namespace mem
} // namespace stack3d

#endif // STACK3D_MEM_TAGSEARCH_HH
