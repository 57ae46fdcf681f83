/**
 * @file
 * Where each wire symbol of a block comes from: puncturing
 * (fec/puncture.hh) and a rectangular block interleaver, walked as one
 * map that protect() and recover() share.
 *
 * A convolutional code corrects errors that are *spread out*; the
 * channel model's burst faults (codec/faultinject.hh, FaultSpec
 * bursts x burstBytes) deliver exactly the opposite.  The classic fix
 * is a block interleaver: write the punctured symbol stream into a
 * depth-D matrix row by row, transmit it column by column.  Symbols
 * adjacent on the wire then sit D apart in decode order, so a channel
 * burst of L wire symbols lands as runs of ceil(L / D) in the
 * deinterleaved stream - below the free-distance correction span of
 * the K=7 code once D covers the burst (see docs/FEC.md for the sizing
 * rule against FaultSpec.burstBytes).
 *
 * The mapping is a pure permutation for any length: the trailing
 * partial column is simply skipped in read order.  depth <= 1 is the
 * identity.
 */

#ifndef M4PS_FEC_INTERLEAVE_HH
#define M4PS_FEC_INTERLEAVE_HH

#include <cstddef>
#include <cstdint>

#include "fec/puncture.hh"

namespace m4ps::fec
{

/**
 * Walk the @p syms wire symbols of one block, punctured at @p rate
 * and interleaved at @p depth, in wire order: calls fn(w, m, n) for
 * each maximal run in which wire positions w..w+n-1 carry mother-code
 * positions m..m+n-1.  protect() copies coded bits m.. to wire w..;
 * recover() copies received symbols w.. to trellis input m.., and the
 * mother-code positions no run names are the punctured erasures.
 * Without interleaving, a rate-1/2 block is one run.
 */
template <typename Fn>
void
forEachWireRun(size_t syms, int depth, Rate rate, Fn &&fn)
{
    const PuncturePattern &p = puncturePattern(rate);
    const size_t rows = depth > 1 ? static_cast<size_t>(depth) : 1;
    if (syms == 0)
        return;
    if (rows == 1 && p.kept == p.period) {
        fn(size_t{0}, size_t{0}, syms);
        return;
    }
    // Punctured position j is mother-code position
    // (j / kept) * period + at[j % kept].  The walk carries j as that
    // quotient and remainder, so no symbol pays a division.
    const size_t kept = static_cast<size_t>(p.kept);
    const size_t period = static_cast<size_t>(p.period);
    size_t at[8] = {};
    for (size_t i = 0, r = 0; i < period; ++i) {
        if (p.keep[i])
            at[r++] = i;
    }
    // Wire order reads a rows x cols matrix, filled row-major with the
    // punctured stream, column by column: row r of column c holds
    // j = r * cols + c where that is below syms, so the first
    // syms % cols columns are one row taller than the rest.
    const size_t cols = (syms + rows - 1) / rows;
    const size_t shortHeight = syms / cols;
    const size_t tallCols = syms % cols;
    const size_t stepQ = cols / kept, stepR = cols % kept;
    size_t runW = 0, runM = 0, runN = 0;
    size_t w = 0, colQ = 0, colR = 0;
    for (size_t c = 0; c < cols; ++c) {
        size_t q = colQ, r = colR;
        const size_t height = shortHeight + (c < tallCols ? 1 : 0);
        for (size_t i = 0; i < height; ++i, ++w) {
            const size_t m = q * period + at[r];
            if (m != runM + runN) {
                fn(runW, runM, runN);
                runW = w;
                runM = m;
                runN = 0;
            }
            ++runN;
            q += stepQ;
            r += stepR;
            if (r >= kept) {
                r -= kept;
                ++q;
            }
        }
        if (++colR == kept) {
            colR = 0;
            ++colQ;
        }
    }
    fn(runW, runM, runN);
}

/**
 * Interleaver depth that disperses a burst of @p burst_bytes channel
 * bytes (8 * burst_bytes wire symbols in packed-hard form) into
 * isolated single-symbol errors.
 */
inline int
interleaveDepthForBurst(int burst_bytes)
{
    // A burst of B bytes corrupts 8B consecutive wire symbols; depth
    // 8B spreads them one per row, i.e. isolated errors a column
    // apart after deinterleaving.
    return burst_bytes <= 0 ? 1 : 8 * burst_bytes;
}

} // namespace m4ps::fec

#endif // M4PS_FEC_INTERLEAVE_HH
