/**
 * @file
 * Rectangular block interleaver for burst-error dispersal.
 *
 * A convolutional code corrects errors that are *spread out*; the
 * channel model's burst faults (codec/faultinject.hh, FaultSpec
 * bursts x burstBytes) deliver exactly the opposite.  The classic fix
 * is a block interleaver: write the symbol stream into a depth-D
 * matrix row by row, transmit it column by column.  Symbols adjacent
 * on the wire then sit D apart in decode order, so a channel burst of
 * L wire symbols lands as runs of ceil(L / D) in the deinterleaved
 * stream - below the free-distance correction span of the K=7 code
 * once D covers the burst (see docs/FEC.md for the sizing rule
 * against FaultSpec.burstBytes).
 *
 * The mapping is a pure permutation for any length: the trailing
 * partial column is simply skipped in read order.  depth <= 1 is the
 * identity.
 */

#ifndef M4PS_FEC_INTERLEAVE_HH
#define M4PS_FEC_INTERLEAVE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace m4ps::fec
{

/** Write row-major into @p depth rows, read column-major. */
std::vector<uint8_t> interleave(const std::vector<uint8_t> &in,
                                int depth);

/** Inverse of interleave() at the same depth. */
std::vector<uint8_t> deinterleave(const std::vector<uint8_t> &in,
                                  int depth);

/** deinterleave() of @p n symbols into @p out, which must not alias. */
void deinterleave(const uint8_t *in, size_t n, int depth, uint8_t *out);

/**
 * Interleaver depth that disperses a burst of @p burst_bytes channel
 * bytes (8 * burst_bytes wire symbols in packed-hard form) into
 * isolated single-symbol errors.
 */
int interleaveDepthForBurst(int burst_bytes);

} // namespace m4ps::fec

#endif // M4PS_FEC_INTERLEAVE_HH
