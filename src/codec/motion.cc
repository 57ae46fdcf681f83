#include "codec/motion.hh"

#include "codec/interp.hh"
#include "codec/kernels/kernels.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "support/logging.hh"

namespace m4ps::codec
{

namespace
{

constexpr int kMb = 16;

/** H.263 chroma rounding: v/2 with 0.5 rounded toward +-1. */
int
chromaComponent(int v)
{
    const int mag = std::abs(v);
    const int r = (mag >> 1) | (mag & 1);
    return v < 0 ? -r : r;
}

} // namespace

MotionVector
chromaVector(MotionVector luma_mv)
{
    return {chromaComponent(luma_mv.x), chromaComponent(luma_mv.y)};
}

// The pel loops below all go through the kernel dispatch table
// (codec/kernels/); the memsim trace calls and the row-level early
// exit stay here so the simulated access stream is identical for
// every backend (kernels.hh contract 2).

int
sad16(const video::Plane &cur, int cx, int cy,
      const video::Plane &ref, int rx, int ry, int best)
{
    const kernels::KernelOps &k = kernels::active();
    int acc = 0;
    for (int row = 0; row < kMb; ++row) {
        cur.traceLoadRow(cx, cy + row, kMb);
        ref.traceLoadRow(rx, ry + row, kMb);
        acc += k.sadRow16(cur.rowPtr(cy + row) + cx,
                          ref.rowPtr(ry + row) + rx);
        // Row-level early exit, as in the reference software.
        if (acc >= best)
            return acc;
    }
    return acc;
}

int
sad8(const video::Plane &cur, int cx, int cy,
     const video::Plane &ref, int rx, int ry, int best)
{
    const kernels::KernelOps &k = kernels::active();
    int acc = 0;
    for (int row = 0; row < 8; ++row) {
        cur.traceLoadRow(cx, cy + row, 8);
        ref.traceLoadRow(rx, ry + row, 8);
        acc += k.sadRow8(cur.rowPtr(cy + row) + cx,
                         ref.rowPtr(ry + row) + rx);
        if (acc >= best)
            return acc;
    }
    return acc;
}

namespace
{

/** sad8 at a half-pel position (hx, hy in {0, 1}). */
int
sad8HalfPel(const video::Plane &cur, int cx, int cy,
            const video::Plane &ref, int rx, int ry, int hx, int hy,
            int best)
{
    const kernels::KernelOps &k = kernels::active();
    int acc = 0;
    const int extra_x = hx ? 1 : 0;
    const int extra_y = hy ? 1 : 0;
    for (int row = 0; row < 8; ++row) {
        cur.traceLoadRow(cx, cy + row, 8);
        ref.traceLoadRow(rx, ry + row, 8 + extra_x);
        if (extra_y)
            ref.traceLoadRow(rx, ry + row + 1, 8 + extra_x);
        acc += k.sadRowHpel8(cur.rowPtr(cy + row) + cx,
                             ref.rowPtr(ry + row) + rx,
                             ref.rowPtr(ry + row + extra_y) + rx,
                             hx, hy);
        if (acc >= best)
            return acc;
    }
    return acc;
}

} // namespace

SearchResult
motionSearch8(const video::Plane &cur, const video::Plane &ref,
              int bx, int by, MotionVector around, int range,
              bool half_pel)
{
    const int cx = bx + around.x / 2;
    const int cy = by + around.y / 2;
    const int x_lo = std::max(cx - range, 0);
    const int y_lo = std::max(cy - range, 0);
    const int x_hi = std::min(cx + range, ref.width() - 8);
    const int y_hi = std::min(cy + range, ref.height() - 8);

    SearchResult best;
    best.mv = {0, 0};
    best.sad = sad8(cur, bx, by, ref, bx, by, INT32_MAX);
    for (int ry = y_lo; ry <= y_hi; ++ry) {
        for (int rx = x_lo; rx <= x_hi; ++rx) {
            if (rx == bx && ry == by)
                continue;
            const int sad = sad8(cur, bx, by, ref, rx, ry, best.sad);
            if (sad < best.sad) {
                best.sad = sad;
                best.mv = {2 * (rx - bx), 2 * (ry - by)};
            }
        }
    }
    if (!half_pel)
        return best;

    SearchResult refined = best;
    for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
            if (dx == 0 && dy == 0)
                continue;
            const int hvx = best.mv.x + dx;
            const int hvy = best.mv.y + dy;
            const int bx2 = bx + (hvx >> 1);
            const int by2 = by + (hvy >> 1);
            const int hx = hvx & 1;
            const int hy = hvy & 1;
            if (bx2 < 0 || by2 < 0 ||
                bx2 + 8 + (hx ? 1 : 0) > ref.width() ||
                by2 + 8 + (hy ? 1 : 0) > ref.height()) {
                continue;
            }
            const int sad = sad8HalfPel(cur, bx, by, ref, bx2, by2,
                                        hx, hy, refined.sad);
            if (sad < refined.sad) {
                refined.sad = sad;
                refined.mv = {hvx, hvy};
            }
        }
    }
    return refined;
}

namespace
{

/**
 * SAD at a half-pel position.  (hx, hy) are the half-pel offsets
 * (0 or 1) added to the full-pel base (rx, ry); interpolation reads
 * one extra row/column.
 */
int
sad16HalfPel(const video::Plane &cur, int cx, int cy,
             const video::Plane &ref, int rx, int ry, int hx, int hy,
             int best)
{
    const kernels::KernelOps &k = kernels::active();
    int acc = 0;
    const int extra_x = hx ? 1 : 0;
    const int extra_y = hy ? 1 : 0;
    for (int row = 0; row < kMb; ++row) {
        cur.traceLoadRow(cx, cy + row, kMb);
        ref.traceLoadRow(rx, ry + row, kMb + extra_x);
        if (extra_y)
            ref.traceLoadRow(rx, ry + row + 1, kMb + extra_x);
        acc += k.sadRowHpel16(cur.rowPtr(cy + row) + cx,
                              ref.rowPtr(ry + row) + rx,
                              ref.rowPtr(ry + row + extra_y) + rx,
                              hx, hy);
        if (acc >= best)
            return acc;
    }
    return acc;
}

} // namespace

SearchResult
motionSearch(const video::Plane &cur, const video::Plane &ref,
             int bx, int by, int range, bool half_pel)
{
    M4PS_ASSERT(range >= 0, "negative search range");
    // Restrict candidates so the 16x16 block (plus the half-pel
    // interpolation border) stays inside the reference plane.
    const int x_lo = std::max(bx - range, 0);
    const int y_lo = std::max(by - range, 0);
    const int x_hi = std::min(bx + range, ref.width() - kMb);
    const int y_hi = std::min(by + range, ref.height() - kMb);

    SearchResult best;
    best.sad = INT32_MAX;
    // Raster-order scan with an offset of one pixel between searches
    // (paper §3.2); zero-displacement bias checked first.
    const int zero_sad = sad16(cur, bx, by, ref, bx, by, INT32_MAX);
    best.sad = zero_sad;
    best.mv = {0, 0};

    for (int ry = y_lo; ry <= y_hi; ++ry) {
        // Conservative compiler-style prefetch: the next candidate
        // row will read reference row ry + 16 for the first time.
        if (ry + 1 <= y_hi)
            ref.prefetch(std::min(x_hi + kMb - 1, ref.width() - 1),
                         std::min(ry + kMb, ref.height() - 1));
        for (int rx = x_lo; rx <= x_hi; ++rx) {
            if (rx == bx && ry == by)
                continue; // already evaluated
            const int sad = sad16(cur, bx, by, ref, rx, ry, best.sad);
            if (sad < best.sad) {
                best.sad = sad;
                best.mv = {2 * (rx - bx), 2 * (ry - by)};
            }
        }
    }

    if (!half_pel)
        return best;

    // Half-pel refinement around the full-pel optimum.  Positive
    // half-pel offsets need one extra sample right/below; negative
    // offsets are expressed as (full-pel - 1) + positive half.
    SearchResult refined = best;
    for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
            if (dx == 0 && dy == 0)
                continue;
            // Candidate half-pel vector.
            const int hvx = best.mv.x + dx;
            const int hvy = best.mv.y + dy;
            // Full-pel base for interpolation (floor of half coord).
            const int bx2 = bx + (hvx >> 1);
            const int by2 = by + (hvy >> 1);
            const int hx = hvx & 1;
            const int hy = hvy & 1;
            if (bx2 < 0 || by2 < 0 ||
                bx2 + kMb + (hx ? 1 : 0) > ref.width() ||
                by2 + kMb + (hy ? 1 : 0) > ref.height()) {
                continue;
            }
            const int sad = sad16HalfPel(cur, bx, by, ref, bx2, by2,
                                         hx, hy, refined.sad);
            if (sad < refined.sad) {
                refined.sad = sad;
                refined.mv = {hvx, hvy};
            }
        }
    }
    return refined;
}

void
blockActivity16(const video::Plane &cur, int bx, int by,
                int &mean, int &deviation)
{
    const kernels::KernelOps &k = kernels::active();
    int sum = 0;
    for (int row = 0; row < kMb; ++row) {
        cur.traceLoadRow(bx, by + row, kMb);
        sum += k.sumRow16(cur.rowPtr(by + row) + bx);
    }
    mean = (sum + 128) >> 8;
    int dev = 0;
    for (int row = 0; row < kMb; ++row) {
        cur.traceLoadRow(bx, by + row, kMb);
        dev += k.absDevRow16(cur.rowPtr(by + row) + bx,
                             static_cast<uint8_t>(mean));
    }
    deviation = dev;
}

namespace
{

/** Generic motion-compensated block fetch with bilinear half-pel. */
void
predictBlock(const video::Plane &ref, int bx, int by, MotionVector mv,
             int edge, uint8_t *out)
{
    const kernels::KernelOps &k = kernels::active();
    // Clamp the displaced block inside the plane; vectors produced by
    // motionSearch() already satisfy this, chroma vectors may need a
    // final clamp at the borders.
    int x0 = bx + (mv.x >> 1);
    int y0 = by + (mv.y >> 1);
    const int hx = mv.x & 1;
    const int hy = mv.y & 1;
    const int need_x = edge + (hx ? 1 : 0);
    const int need_y = edge + (hy ? 1 : 0);
    x0 = std::clamp(x0, 0, ref.width() - need_x);
    y0 = std::clamp(y0, 0, ref.height() - need_y);

    for (int row = 0; row < edge; ++row) {
        ref.traceLoadRow(x0, y0 + row, need_x);
        if (hy)
            ref.traceLoadRow(x0, y0 + row + 1, need_x);
        k.predictRow(ref.rowPtr(y0 + row) + x0,
                     ref.rowPtr(y0 + row + (hy ? 1 : 0)) + x0,
                     hx, hy, edge, out + row * edge);
    }
}

} // namespace

void
predictLuma16(const video::Plane &ref, int bx, int by, MotionVector mv,
              uint8_t *out)
{
    // Model the decoder-side compiler prefetch of the next block row.
    ref.prefetch(bx + (mv.x >> 1), by + (mv.y >> 1) + kMb);
    predictBlock(ref, bx, by, mv, kMb, out);
}

void
predictLuma8(const video::Plane &ref, int bx, int by, MotionVector mv,
             uint8_t *out)
{
    predictBlock(ref, bx, by, mv, 8, out);
}

void
predictLuma16FromInterp(const video::Plane &base,
                        const HalfPelPlanes &interp, int bx, int by,
                        MotionVector mv, uint8_t *out)
{
    const int hx = mv.x & 1;
    const int hy = mv.y & 1;
    // Same clamp as predictBlock() so both paths pick the same
    // source block even at the borders.
    int x0 = bx + (mv.x >> 1);
    int y0 = by + (mv.y >> 1);
    x0 = std::clamp(x0, 0, base.width() - (kMb + (hx ? 1 : 0)));
    y0 = std::clamp(y0, 0, base.height() - (kMb + (hy ? 1 : 0)));

    const video::Plane *src = interp.phase(hx, hy);
    if (!src)
        src = &base;
    src->prefetch(x0, y0 + kMb);
    for (int row = 0; row < kMb; ++row) {
        src->traceLoadRow(x0, y0 + row, kMb);
        std::memcpy(out + row * kMb, src->rowPtr(y0 + row) + x0, kMb);
    }
}

void
predictChroma8(const video::Plane &ref, int bx, int by,
               MotionVector luma_mv, uint8_t *out)
{
    predictBlock(ref, bx, by, chromaVector(luma_mv), 8, out);
}

void
averagePrediction(const uint8_t *a, const uint8_t *b, int n, uint8_t *out)
{
    kernels::active().avgRow(a, b, n, out);
}

} // namespace m4ps::codec
