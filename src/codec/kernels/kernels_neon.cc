/**
 * @file
 * NEON kernel backend (AArch64, 128-bit).
 *
 * Bit-identity notes (full argument in docs/KERNELS.md and the SSE4.1
 * backend header):
 *  - vrhaddq_u8 computes (a + b + 1) >> 1 exactly, matching the
 *    half-pel rounding; four-point averages widen through uint16.
 *  - The H.263 quantizer divides by the uniform step 2q with
 *    vdivq_f32 (AArch64 has a true float divide); numerator and
 *    divisor are exact in float and the correctly-rounded quotient
 *    truncates (vcvtq_s32_f32 rounds toward zero) to the same value
 *    as integer division for this domain.  The MPEG-matrix mode
 *    divides by a per-coefficient value and stays on the shared
 *    scalar path in every backend.
 *  - The DCT uses float64x2_t lanes across outputs with separate
 *    vmulq_f64 + vaddq_f64 (never vfmaq_f64) and scalar rounding
 *    epilogues, so each lane reproduces the scalar double stream.
 */

#if defined(M4PS_KERNELS_HAVE_NEON)

#include "codec/kernels/kernels_internal.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <arm_neon.h>

namespace m4ps::codec::kernels
{

namespace neon
{

namespace
{

/** (a + b + c + d + 2) >> 2 over 16 pels, widened through uint16. */
inline uint8x16_t
avg4x16(uint8x16_t a, uint8x16_t b, uint8x16_t c, uint8x16_t d)
{
    uint16x8_t lo = vaddl_u8(vget_low_u8(a), vget_low_u8(b));
    lo = vaddq_u16(lo, vaddl_u8(vget_low_u8(c), vget_low_u8(d)));
    lo = vshrq_n_u16(vaddq_u16(lo, vdupq_n_u16(2)), 2);
    uint16x8_t hi = vaddl_u8(vget_high_u8(a), vget_high_u8(b));
    hi = vaddq_u16(hi, vaddl_u8(vget_high_u8(c), vget_high_u8(d)));
    hi = vshrq_n_u16(vaddq_u16(hi, vdupq_n_u16(2)), 2);
    return vcombine_u8(vmovn_u16(lo), vmovn_u16(hi));
}

inline uint8x8_t
avg4x8(uint8x8_t a, uint8x8_t b, uint8x8_t c, uint8x8_t d)
{
    uint16x8_t s = vaddq_u16(vaddl_u8(a, b), vaddl_u8(c, d));
    s = vshrq_n_u16(vaddq_u16(s, vdupq_n_u16(2)), 2);
    return vmovn_u16(s);
}

/** Half-pel interpolated row of 16 pels at phase (hx, hy). */
inline uint8x16_t
hpel16(const uint8_t *r0, const uint8_t *r1, int hx, int hy)
{
    const uint8x16_t a = vld1q_u8(r0);
    if (hx && hy)
        return avg4x16(a, vld1q_u8(r0 + 1), vld1q_u8(r1),
                       vld1q_u8(r1 + 1));
    if (hx)
        return vrhaddq_u8(a, vld1q_u8(r0 + 1));
    if (hy)
        return vrhaddq_u8(a, vld1q_u8(r1));
    return a;
}

inline uint8x8_t
hpel8(const uint8_t *r0, const uint8_t *r1, int hx, int hy)
{
    const uint8x8_t a = vld1_u8(r0);
    if (hx && hy)
        return avg4x8(a, vld1_u8(r0 + 1), vld1_u8(r1),
                      vld1_u8(r1 + 1));
    if (hx)
        return vrhadd_u8(a, vld1_u8(r0 + 1));
    if (hy)
        return vrhadd_u8(a, vld1_u8(r1));
    return a;
}

} // namespace

int
sadRow16(const uint8_t *c, const uint8_t *r)
{
    return static_cast<int>(
        vaddlvq_u8(vabdq_u8(vld1q_u8(c), vld1q_u8(r))));
}

int
sadRow8(const uint8_t *c, const uint8_t *r)
{
    return static_cast<int>(
        vaddlv_u8(vabd_u8(vld1_u8(c), vld1_u8(r))));
}

int
sadRowHpel16(const uint8_t *c, const uint8_t *r0, const uint8_t *r1,
             int hx, int hy)
{
    return static_cast<int>(
        vaddlvq_u8(vabdq_u8(vld1q_u8(c), hpel16(r0, r1, hx, hy))));
}

int
sadRowHpel8(const uint8_t *c, const uint8_t *r0, const uint8_t *r1,
            int hx, int hy)
{
    return static_cast<int>(
        vaddlv_u8(vabd_u8(vld1_u8(c), hpel8(r0, r1, hx, hy))));
}

int
sumRow16(const uint8_t *c)
{
    return static_cast<int>(vaddlvq_u8(vld1q_u8(c)));
}

int
absDevRow16(const uint8_t *c, uint8_t mean)
{
    return static_cast<int>(
        vaddlvq_u8(vabdq_u8(vld1q_u8(c), vdupq_n_u8(mean))));
}

void
predictRow(const uint8_t *r0, const uint8_t *r1, int hx, int hy, int n,
           uint8_t *out)
{
    int i = 0;
    for (; i + 16 <= n; i += 16)
        vst1q_u8(out + i, hpel16(r0 + i, r1 + i, hx, hy));
    for (; i + 8 <= n; i += 8)
        vst1_u8(out + i, hpel8(r0 + i, r1 + i, hx, hy));
    if (i < n)
        scalar::predictRow(r0 + i, r1 + i, hx, hy, n - i, out + i);
}

void
interpRow(const uint8_t *r0, const uint8_t *r1, int n, uint8_t *h,
          uint8_t *v, uint8_t *hv)
{
    int i = 0;
    for (; i + 16 <= n; i += 16) {
        const uint8x16_t a = vld1q_u8(r0 + i);
        const uint8x16_t b = vld1q_u8(r0 + i + 1);
        const uint8x16_t c = vld1q_u8(r1 + i);
        const uint8x16_t d = vld1q_u8(r1 + i + 1);
        vst1q_u8(h + i, vrhaddq_u8(a, b));
        vst1q_u8(v + i, vrhaddq_u8(a, c));
        vst1q_u8(hv + i, avg4x16(a, b, c, d));
    }
    if (i < n)
        scalar::interpRow(r0 + i, r1 + i, n - i, h + i, v + i, hv + i);
}

void
avgRow(const uint8_t *a, const uint8_t *b, int n, uint8_t *out)
{
    int i = 0;
    for (; i + 16 <= n; i += 16)
        vst1q_u8(out + i, vrhaddq_u8(vld1q_u8(a + i), vld1q_u8(b + i)));
    if (i < n)
        scalar::avgRow(a + i, b + i, n - i, out + i);
}

void
quant(const int16_t *coefs, int16_t *levels, int start,
      const QuantArgs &qa)
{
    if (qa.mpeg) {
        scalar::quantMpeg(coefs, levels, start, qa);
        return;
    }
    int i = start;
    if (i & 3) {
        const int head = std::min((i + 3) & ~3, 64);
        scalar::quantRange(coefs, levels, i, head, qa);
        i = head;
    }
    const int32x4_t zero = vdupq_n_s32(0);
    const int32x4_t dead = vdupq_n_s32(qa.intra ? 0 : qa.q / 2);
    const float32x4_t step = vdupq_n_f32(static_cast<float>(2 * qa.q));
    const int32x4_t cap = vdupq_n_s32(2047);
    for (; i < 64; i += 4) {
        const int16x4_t cv = vld1_s16(coefs + i);
        const int32x4_t c32 = vmovl_s16(cv);
        const int32x4_t mag = vabsq_s32(c32);
        const int32x4_t num = vsubq_s32(mag, dead);
        // Exact trunc(num / 2q) via float division (file header).
        const int32x4_t lvl =
            vcvtq_s32_f32(vdivq_f32(vcvtq_f32_s32(num), step));
        int32x4_t l = vminq_s32(vmaxq_s32(lvl, zero), cap);
        // Apply the coefficient sign (l is 0 whenever c is 0).
        const uint32x4_t negm = vcltq_s32(c32, zero);
        l = vbslq_s32(negm, vnegq_s32(l), l);
        vst1_s16(levels + i, vmovn_s32(l));
    }
}

void
dequant(const int16_t *levels, int16_t *coefs, int start,
        const QuantArgs &qa)
{
    if (qa.mpeg) {
        scalar::dequantMpeg(levels, coefs, start, qa);
        return;
    }
    int i = start;
    if (i & 3) {
        const int head = std::min((i + 3) & ~3, 64);
        scalar::dequantRange(levels, coefs, i, head, qa);
        i = head;
    }
    const int32x4_t zero = vdupq_n_s32(0);
    const int32x4_t qv = vdupq_n_s32(qa.q);
    const int32x4_t even = vdupq_n_s32(qa.q % 2 == 0 ? 1 : 0);
    const int32x4_t one = vdupq_n_s32(1);
    const int32x4_t lcap = vdupq_n_s32(2047);
    const int32x4_t lfloor = vdupq_n_s32(-2048);
    for (; i < 64; i += 4) {
        const int16x4_t lv = vld1_s16(levels + i);
        const int32x4_t l32 = vmovl_s16(lv);
        const int32x4_t mag = vabsq_s32(l32);
        // c = q * (2|lvl| + 1) - [q even]
        int32x4_t c =
            vmulq_s32(qv, vaddq_s32(vshlq_n_s32(mag, 1), one));
        c = vsubq_s32(c, even);
        // Zero where lvl == 0, negate where lvl < 0, then clamp.
        c = vbslq_s32(vceqq_s32(l32, zero), zero, c);
        c = vbslq_s32(vcltq_s32(l32, zero), vnegq_s32(c), c);
        c = vminq_s32(vmaxq_s32(c, lfloor), lcap);
        vst1_s16(coefs + i, vmovn_s32(c));
    }
}

void
fdct(const int16_t *in, int16_t *out)
{
    const DctTables &t = dctTables();
    double din[64];
    for (int i = 0; i < 64; ++i)
        din[i] = static_cast<double>(in[i]); // exact conversion
    double tmp[64];
    // Rows: tmp[y*8+u] = sum_x basis[u][x] * in[y*8+x]; lanes over u.
    for (int y = 0; y < 8; ++y) {
        float64x2_t acc[4] = {vdupq_n_f64(0), vdupq_n_f64(0),
                              vdupq_n_f64(0), vdupq_n_f64(0)};
        for (int x = 0; x < 8; ++x) {
            const float64x2_t vx = vdupq_n_f64(din[y * 8 + x]);
            for (int k = 0; k < 4; ++k) {
                acc[k] = vaddq_f64(
                    acc[k],
                    vmulq_f64(vx, vld1q_f64(&t.basisT[x][2 * k])));
            }
        }
        for (int k = 0; k < 4; ++k)
            vst1q_f64(&tmp[y * 8 + 2 * k], acc[k]);
    }
    // Columns: out[v*8+u] = sum_y basis[v][y] * tmp[y*8+u]; lanes u.
    for (int v = 0; v < 8; ++v) {
        float64x2_t acc[4] = {vdupq_n_f64(0), vdupq_n_f64(0),
                              vdupq_n_f64(0), vdupq_n_f64(0)};
        for (int y = 0; y < 8; ++y) {
            const float64x2_t bv = vdupq_n_f64(t.basis[v][y]);
            for (int k = 0; k < 4; ++k) {
                acc[k] = vaddq_f64(
                    acc[k],
                    vmulq_f64(bv, vld1q_f64(&tmp[y * 8 + 2 * k])));
            }
        }
        double vals[8];
        for (int k = 0; k < 4; ++k)
            vst1q_f64(&vals[2 * k], acc[k]);
        for (int u = 0; u < 8; ++u) {
            const double r = std::clamp(vals[u], -32768.0, 32767.0);
            out[v * 8 + u] = static_cast<int16_t>(std::lround(r));
        }
    }
}

void
idct(const int16_t *in, int16_t *out)
{
    const DctTables &t = dctTables();
    double din[64];
    for (int i = 0; i < 64; ++i)
        din[i] = static_cast<double>(in[i]);
    double tmp[64];
    // Columns: tmp[y*8+u] = sum_v basis[v][y] * in[v*8+u]; lanes u.
    for (int y = 0; y < 8; ++y) {
        float64x2_t acc[4] = {vdupq_n_f64(0), vdupq_n_f64(0),
                              vdupq_n_f64(0), vdupq_n_f64(0)};
        for (int v = 0; v < 8; ++v) {
            const float64x2_t bv = vdupq_n_f64(t.basis[v][y]);
            for (int k = 0; k < 4; ++k) {
                acc[k] = vaddq_f64(
                    acc[k],
                    vmulq_f64(bv, vld1q_f64(&din[v * 8 + 2 * k])));
            }
        }
        for (int k = 0; k < 4; ++k)
            vst1q_f64(&tmp[y * 8 + 2 * k], acc[k]);
    }
    // Rows: out[y*8+x] = sum_u basis[u][x] * tmp[y*8+u]; lanes x.
    for (int y = 0; y < 8; ++y) {
        float64x2_t acc[4] = {vdupq_n_f64(0), vdupq_n_f64(0),
                              vdupq_n_f64(0), vdupq_n_f64(0)};
        for (int u = 0; u < 8; ++u) {
            const float64x2_t tu = vdupq_n_f64(tmp[y * 8 + u]);
            for (int k = 0; k < 4; ++k) {
                acc[k] = vaddq_f64(
                    acc[k],
                    vmulq_f64(tu, vld1q_f64(&t.basis[u][2 * k])));
            }
        }
        double vals[8];
        for (int k = 0; k < 4; ++k)
            vst1q_f64(&vals[2 * k], acc[k]);
        for (int x = 0; x < 8; ++x) {
            const double r =
                std::clamp(std::round(vals[x]), -2048.0, 2047.0);
            out[y * 8 + x] = static_cast<int16_t>(r);
        }
    }
}

/**
 * K=7 butterfly ACS over 8 butterflies per q register of uint16
 * metrics (exact for any input; the bound is argued in
 * kernels_internal.hh).  m[0..3] hold states 0..31 - the "j" side of
 * the 32 butterflies - and m[4..7] states 32..63.  Survivors zip back
 * into state order; the decision masks zip the same way, narrow to
 * bytes, and collapse to bits by weight-and-add.  Branch costs are
 * formed per lane as pair[0] + (bit-0 mask & d0) + (bit-1 mask & d1)
 * in wrapping uint16 arithmetic whose result is the exact cost.
 */
uint64_t
viterbiAcs(const AcsArgs &a)
{
    if (a.k != 7)
        return scalar::viterbiAcs(a);
    uint16_t mask0[32], mask1[32];
    for (int j = 0; j < 32; ++j) {
        mask0[j] = (a.butterfly[j] & 1) ? 0xffff : 0;
        mask1[j] = (a.butterfly[j] & 2) ? 0xffff : 0;
    }
    uint16x8_t x0[4], x1[4];
    for (int g = 0; g < 4; ++g) {
        x0[g] = vld1q_u16(mask0 + 8 * g);
        x1[g] = vld1q_u16(mask1 + 8 * g);
    }
    static const uint8_t kBitWeights[16] = {1, 2, 4, 8, 16, 32, 64, 128,
                                            1, 2, 4, 8, 16, 32, 64, 128};
    const uint8x16_t weights = vld1q_u8(kBitWeights);
    uint16x8_t m[8];
    for (uint16x8_t &r : m)
        r = vdupq_n_u16(kAcsUnreachable);
    m[0] = vsetq_lane_u16(0, m[0], 0);
    uint64_t normalized = 0;
    for (size_t t = 0; t < a.steps; ++t) {
        const AcsCosts c = acsCosts(a.symbols + 2 * t, a.soft);
        const uint16x8_t base = vdupq_n_u16(c.pair[0]);
        const uint16x8_t d0 = vdupq_n_u16(
            static_cast<uint16_t>(c.bit[0][1] - c.bit[0][0]));
        const uint16x8_t d1 = vdupq_n_u16(
            static_cast<uint16_t>(c.bit[1][1] - c.bit[1][0]));
        const uint16x8_t total = vdupq_n_u16(c.total);
        uint64_t word = 0;
        uint16x8_t n[8];
        for (int g = 0; g < 4; ++g) {
            const uint16x8_t bm = vaddq_u16(
                base, vaddq_u16(vandq_u16(x0[g], d0),
                                vandq_u16(x1[g], d1)));
            const uint16x8_t bmc = vsubq_u16(total, bm);
            const uint16x8_t m0 = vaddq_u16(m[g], bm);
            const uint16x8_t m1 = vaddq_u16(m[g + 4], bmc);
            const uint16x8_t m2 = vaddq_u16(m[g], bmc);
            const uint16x8_t m3 = vaddq_u16(m[g + 4], bm);
            const uint16x8_t s0 = vminq_u16(m0, m1);
            const uint16x8_t s1 = vminq_u16(m2, m3);
            n[2 * g] = vzip1q_u16(s0, s1);
            n[2 * g + 1] = vzip2q_u16(s0, s1);
            const uint16x8_t e0 = vcgtq_u16(m0, m1);
            const uint16x8_t e1 = vcgtq_u16(m2, m3);
            const uint8x16_t dec = vandq_u8(
                vcombine_u8(vmovn_u16(vzip1q_u16(e0, e1)),
                            vmovn_u16(vzip2q_u16(e0, e1))),
                weights);
            const uint64_t bits =
                vaddv_u8(vget_low_u8(dec)) |
                (static_cast<uint64_t>(vaddv_u8(vget_high_u8(dec))) << 8);
            word |= bits << (16 * g);
        }
        a.decisions[t] = word;
        for (int i = 0; i < 8; ++i)
            m[i] = n[i];
        if (t % kAcsRenormSteps == kAcsRenormSteps - 1) {
            uint16x8_t mn = m[0];
            for (int i = 1; i < 8; ++i)
                mn = vminq_u16(mn, m[i]);
            const uint16_t lo = vminvq_u16(mn);
            const uint16x8_t v = vdupq_n_u16(lo);
            for (uint16x8_t &r : m)
                r = vsubq_u16(r, v);
            normalized += lo;
        }
    }
    return normalized + vgetq_lane_u16(m[0], 0);
}

} // namespace neon

const KernelOps &
neonOps()
{
    static const KernelOps ops = {
        "neon",
        neon::sadRow16,
        neon::sadRow8,
        neon::sadRowHpel16,
        neon::sadRowHpel8,
        neon::sumRow16,
        neon::absDevRow16,
        neon::fdct,
        neon::idct,
        neon::quant,
        neon::dequant,
        neon::predictRow,
        neon::interpRow,
        neon::avgRow,
        neon::viterbiAcs,
    };
    return ops;
}

} // namespace m4ps::codec::kernels

#endif // M4PS_KERNELS_HAVE_NEON
