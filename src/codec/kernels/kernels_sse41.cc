/**
 * @file
 * SSE4.1 kernel backend (x86-64, 128-bit).
 *
 * Integer kernels are exact by construction, so any correct SSE
 * formulation matches scalar bit-for-bit: PSADBW *is* a row SAD,
 * PAVGB *is* the (a+b+1)>>1 half-pel rounding, and the four-point
 * average widens to 16-bit before the +2>>2 so nothing saturates.
 * The H.263 quantizer divides by the uniform 2q via float division:
 * with |num| <= 32768 and d <= 62 both operands are exact in float
 * and the correctly-rounded quotient is < 2^-9 ulp-relative away from
 * the true value while the nearest integer boundary is >= 1/62 away,
 * so truncation is exact (see docs/KERNELS.md for the argument).  The
 * per-coefficient-divisor MPEG-matrix mode stays on the scalar path.
 *
 * The double-precision DCT vectorizes across outputs - each 64-bit
 * lane runs the scalar accumulation order with separate mul/add
 * (this file is compiled without -mfma, so no contraction) - and
 * rounds through the same scalar epilogue, keeping bit-identity.
 *
 * Compiled with -msse4.1 only when the toolchain targets x86-64; the
 * dispatcher never installs this table unless CPUID agrees.
 */

#if defined(M4PS_KERNELS_HAVE_SSE41)

#include "codec/kernels/kernels_internal.hh"

#include <algorithm>
#include <cmath>
#include <smmintrin.h>

namespace m4ps::codec::kernels
{

namespace sse41
{

namespace
{

inline int
hsum_sad(__m128i s)
{
    return _mm_cvtsi128_si32(s) + _mm_extract_epi16(s, 4);
}

/** (a + b + c + d + 2) >> 2 for 8 pels widened through epi16. */
inline __m128i
avg4x8(__m128i a, __m128i b, __m128i c, __m128i d)
{
    const __m128i s = _mm_add_epi16(
        _mm_add_epi16(_mm_cvtepu8_epi16(a), _mm_cvtepu8_epi16(b)),
        _mm_add_epi16(_mm_cvtepu8_epi16(c), _mm_cvtepu8_epi16(d)));
    return _mm_srli_epi16(_mm_add_epi16(s, _mm_set1_epi16(2)), 2);
}

/** Half-pel interpolated row of 16 pels at phase (hx, hy). */
inline __m128i
hpel16(const uint8_t *r0, const uint8_t *r1, int hx, int hy)
{
    const __m128i a = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(r0));
    if (hx && hy) {
        const __m128i b = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(r0 + 1));
        const __m128i c = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(r1));
        const __m128i d = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(r1 + 1));
        const __m128i lo = avg4x8(a, b, c, d);
        const __m128i hi =
            avg4x8(_mm_srli_si128(a, 8), _mm_srli_si128(b, 8),
                   _mm_srli_si128(c, 8), _mm_srli_si128(d, 8));
        return _mm_packus_epi16(lo, hi);
    }
    if (hx) {
        return _mm_avg_epu8(a, _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(r0 + 1)));
    }
    if (hy) {
        return _mm_avg_epu8(a, _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(r1)));
    }
    return a;
}

/** Half-pel interpolated row of 8 pels (low lanes; high lanes 0). */
inline __m128i
hpel8(const uint8_t *r0, const uint8_t *r1, int hx, int hy)
{
    const __m128i a = _mm_loadl_epi64(
        reinterpret_cast<const __m128i *>(r0));
    if (hx && hy) {
        const __m128i b = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(r0 + 1));
        const __m128i c = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(r1));
        const __m128i d = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(r1 + 1));
        return _mm_packus_epi16(avg4x8(a, b, c, d),
                                _mm_setzero_si128());
    }
    if (hx) {
        return _mm_avg_epu8(a, _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(r0 + 1)));
    }
    if (hy) {
        return _mm_avg_epu8(a, _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(r1)));
    }
    return a;
}

} // namespace

int
sadRow16(const uint8_t *c, const uint8_t *r)
{
    const __m128i cv = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(c));
    const __m128i rv = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(r));
    return hsum_sad(_mm_sad_epu8(cv, rv));
}

int
sadRow8(const uint8_t *c, const uint8_t *r)
{
    const __m128i cv = _mm_loadl_epi64(
        reinterpret_cast<const __m128i *>(c));
    const __m128i rv = _mm_loadl_epi64(
        reinterpret_cast<const __m128i *>(r));
    return _mm_cvtsi128_si32(_mm_sad_epu8(cv, rv));
}

int
sadRowHpel16(const uint8_t *c, const uint8_t *r0, const uint8_t *r1,
             int hx, int hy)
{
    const __m128i cv = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(c));
    return hsum_sad(_mm_sad_epu8(cv, hpel16(r0, r1, hx, hy)));
}

int
sadRowHpel8(const uint8_t *c, const uint8_t *r0, const uint8_t *r1,
            int hx, int hy)
{
    const __m128i cv = _mm_loadl_epi64(
        reinterpret_cast<const __m128i *>(c));
    return _mm_cvtsi128_si32(
        _mm_sad_epu8(cv, hpel8(r0, r1, hx, hy)));
}

int
sumRow16(const uint8_t *c)
{
    const __m128i cv = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(c));
    return hsum_sad(_mm_sad_epu8(cv, _mm_setzero_si128()));
}

int
absDevRow16(const uint8_t *c, uint8_t mean)
{
    const __m128i cv = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(c));
    const __m128i mv = _mm_set1_epi8(static_cast<char>(mean));
    return hsum_sad(_mm_sad_epu8(cv, mv));
}

void
predictRow(const uint8_t *r0, const uint8_t *r1, int hx, int hy, int n,
           uint8_t *out)
{
    int i = 0;
    for (; i + 16 <= n; i += 16) {
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + i),
                         hpel16(r0 + i, r1 + i, hx, hy));
    }
    for (; i + 8 <= n; i += 8) {
        _mm_storel_epi64(reinterpret_cast<__m128i *>(out + i),
                         hpel8(r0 + i, r1 + i, hx, hy));
    }
    if (i < n)
        scalar::predictRow(r0 + i, r1 + i, hx, hy, n - i, out + i);
}

void
interpRow(const uint8_t *r0, const uint8_t *r1, int n, uint8_t *h,
          uint8_t *v, uint8_t *hv)
{
    int i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m128i a = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(r0 + i));
        const __m128i b = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(r0 + i + 1));
        const __m128i c = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(r1 + i));
        const __m128i d = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(r1 + i + 1));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(h + i),
                         _mm_avg_epu8(a, b));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(v + i),
                         _mm_avg_epu8(a, c));
        const __m128i lo = avg4x8(a, b, c, d);
        const __m128i hi =
            avg4x8(_mm_srli_si128(a, 8), _mm_srli_si128(b, 8),
                   _mm_srli_si128(c, 8), _mm_srli_si128(d, 8));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(hv + i),
                         _mm_packus_epi16(lo, hi));
    }
    if (i < n)
        scalar::interpRow(r0 + i, r1 + i, n - i, h + i, v + i, hv + i);
}

void
avgRow(const uint8_t *a, const uint8_t *b, int n, uint8_t *out)
{
    int i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m128i av = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(a + i));
        const __m128i bv = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(b + i));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + i),
                         _mm_avg_epu8(av, bv));
    }
    if (i < n)
        scalar::avgRow(a + i, b + i, n - i, out + i);
}

void
quant(const int16_t *coefs, int16_t *levels, int start,
      const QuantArgs &qa)
{
    if (qa.mpeg) {
        // Per-coefficient matrix divisor: no uniform reciprocal, so
        // the reference path stays authoritative.
        scalar::quantMpeg(coefs, levels, start, qa);
        return;
    }
    // Peel the misaligned head (start is 1 for intra blocks) to the
    // scalar loop, then vectorize the remaining full 8-lane chunks.
    int i = start;
    if (i & 7) {
        const int head = std::min((i + 7) & ~7, 64);
        scalar::quantRange(coefs, levels, i, head, qa);
        i = head;
    }
    const __m128i zero = _mm_setzero_si128();
    const __m128i dead =
        _mm_set1_epi32(qa.intra ? 0 : qa.q / 2);
    const __m128 inv = _mm_set1_ps(static_cast<float>(2 * qa.q));
    const __m128i cap = _mm_set1_epi32(2047);
    for (; i < 64; i += 8) {
        const __m128i cv = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(coefs + i));
        const __m128i lo = _mm_cvtepi16_epi32(cv);
        const __m128i hi = _mm_cvtepi16_epi32(_mm_srli_si128(cv, 8));
        __m128i out[2];
        const __m128i cs[2] = {lo, hi};
        for (int half = 0; half < 2; ++half) {
            const __m128i c32 = cs[half];
            const __m128i mag = _mm_abs_epi32(c32);
            const __m128i num = _mm_sub_epi32(mag, dead);
            // Exact trunc(num / 2q) via float division (file header).
            const __m128i lvl = _mm_cvttps_epi32(
                _mm_div_ps(_mm_cvtepi32_ps(num), inv));
            __m128i l = _mm_max_epi32(lvl, zero);
            l = _mm_min_epi32(l, cap);
            out[half] = _mm_sign_epi32(l, c32);
        }
        _mm_storeu_si128(reinterpret_cast<__m128i *>(levels + i),
                         _mm_packs_epi32(out[0], out[1]));
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
    if (i & 7) {
        const int head = std::min((i + 7) & ~7, 64);
        scalar::dequantRange(levels, coefs, i, head, qa);
        i = head;
    }
    const __m128i qv = _mm_set1_epi32(qa.q);
    const __m128i even = _mm_set1_epi32(qa.q % 2 == 0 ? 1 : 0);
    const __m128i one = _mm_set1_epi32(1);
    const __m128i lcap = _mm_set1_epi32(2047);
    const __m128i lfloor = _mm_set1_epi32(-2048);
    for (; i < 64; i += 8) {
        const __m128i lv = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(levels + i));
        const __m128i lo = _mm_cvtepi16_epi32(lv);
        const __m128i hi = _mm_cvtepi16_epi32(_mm_srli_si128(lv, 8));
        __m128i out[2];
        const __m128i ls[2] = {lo, hi};
        for (int half = 0; half < 2; ++half) {
            const __m128i l32 = ls[half];
            const __m128i mag = _mm_abs_epi32(l32);
            // c = q * (2|lvl| + 1) - [q even]
            __m128i c = _mm_mullo_epi32(
                qv, _mm_add_epi32(_mm_slli_epi32(mag, 1), one));
            c = _mm_sub_epi32(c, even);
            // Zero where lvl == 0, negate where lvl < 0, then clamp.
            c = _mm_sign_epi32(c, l32);
            c = _mm_min_epi32(_mm_max_epi32(c, lfloor), lcap);
            out[half] = c;
        }
        _mm_storeu_si128(reinterpret_cast<__m128i *>(coefs + i),
                         _mm_packs_epi32(out[0], out[1]));
    }
}

namespace
{

/**
 * 2-lane double accumulation helpers for the DCT passes.  Each lane
 * reproduces the scalar order: acc starts at 0 and takes a separate
 * multiply then add per step.
 */
inline void
dctRowsPass(const double *din, const DctTables &t, double *tmp)
{
    // tmp[y*8+u] = sum_x basis[u][x] * in[y*8+x]; lanes over u.
    for (int y = 0; y < 8; ++y) {
        __m128d acc[4] = {_mm_setzero_pd(), _mm_setzero_pd(),
                          _mm_setzero_pd(), _mm_setzero_pd()};
        for (int x = 0; x < 8; ++x) {
            const __m128d vx = _mm_set1_pd(din[y * 8 + x]);
            for (int j = 0; j < 4; ++j) {
                const __m128d b =
                    _mm_loadu_pd(&t.basisT[x][2 * j]);
                acc[j] = _mm_add_pd(acc[j], _mm_mul_pd(vx, b));
            }
        }
        for (int j = 0; j < 4; ++j)
            _mm_storeu_pd(&tmp[y * 8 + 2 * j], acc[j]);
    }
}

} // namespace

void
fdct(const int16_t *in, int16_t *out)
{
    const DctTables &t = dctTables();
    double din[64];
    for (int i = 0; i < 64; ++i)
        din[i] = static_cast<double>(in[i]); // exact conversion
    double tmp[64];
    dctRowsPass(din, t, tmp);
    // Columns: out[v*8+u] from sum_y basis[v][y] * tmp[y*8+u];
    // lanes over u, broadcast basis[v][y].
    for (int v = 0; v < 8; ++v) {
        __m128d acc[4] = {_mm_setzero_pd(), _mm_setzero_pd(),
                          _mm_setzero_pd(), _mm_setzero_pd()};
        for (int y = 0; y < 8; ++y) {
            const __m128d bv = _mm_set1_pd(t.basis[v][y]);
            for (int j = 0; j < 4; ++j) {
                const __m128d row = _mm_loadu_pd(&tmp[y * 8 + 2 * j]);
                acc[j] = _mm_add_pd(acc[j], _mm_mul_pd(bv, row));
            }
        }
        double vals[8];
        for (int j = 0; j < 4; ++j)
            _mm_storeu_pd(&vals[2 * j], acc[j]);
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
        __m128d acc[4] = {_mm_setzero_pd(), _mm_setzero_pd(),
                          _mm_setzero_pd(), _mm_setzero_pd()};
        for (int v = 0; v < 8; ++v) {
            const __m128d bv = _mm_set1_pd(t.basis[v][y]);
            for (int j = 0; j < 4; ++j) {
                const __m128d row = _mm_loadu_pd(&din[v * 8 + 2 * j]);
                acc[j] = _mm_add_pd(acc[j], _mm_mul_pd(bv, row));
            }
        }
        for (int j = 0; j < 4; ++j)
            _mm_storeu_pd(&tmp[y * 8 + 2 * j], acc[j]);
    }
    // Rows: out[y*8+x] = sum_u basis[u][x] * tmp[y*8+u]; lanes x.
    for (int y = 0; y < 8; ++y) {
        __m128d acc[4] = {_mm_setzero_pd(), _mm_setzero_pd(),
                          _mm_setzero_pd(), _mm_setzero_pd()};
        for (int u = 0; u < 8; ++u) {
            const __m128d tu = _mm_set1_pd(tmp[y * 8 + u]);
            for (int j = 0; j < 4; ++j) {
                const __m128d b = _mm_loadu_pd(&t.basis[u][2 * j]);
                acc[j] = _mm_add_pd(acc[j], _mm_mul_pd(tu, b));
            }
        }
        double vals[8];
        for (int j = 0; j < 4; ++j)
            _mm_storeu_pd(&vals[2 * j], acc[j]);
        for (int x = 0; x < 8; ++x) {
            const double r =
                std::clamp(std::round(vals[x]), -2048.0, 2047.0);
            out[y * 8 + x] = static_cast<int16_t>(r);
        }
    }
}

/**
 * K=7 butterfly ACS over 8 butterflies per xmm of uint16 metrics
 * (exact for any input; the bound is argued in kernels_internal.hh).
 * m[0..3] hold states 0..31 - the "j" side of the 32 butterflies -
 * and m[4..7] states 32..63.  Survivors interleave back into state
 * order with one unpack pair, the decision masks interleave the same
 * way and pack to bytes in state order, and branch costs are formed
 * per lane as pair[0] + (bit-0 mask & d0) + (bit-1 mask & d1) in
 * wrapping uint16 arithmetic whose result is the exact cost.
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
    __m128i x0[4], x1[4];
    for (int g = 0; g < 4; ++g) {
        x0[g] = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(mask0 + 8 * g));
        x1[g] = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(mask1 + 8 * g));
    }
    const short u = static_cast<short>(kAcsUnreachable);
    __m128i m[8];
    for (__m128i &r : m)
        r = _mm_set1_epi16(u);
    m[0] = _mm_setr_epi16(0, u, u, u, u, u, u, u);
    uint64_t normalized = 0;
    for (size_t t = 0; t < a.steps; ++t) {
        const AcsCosts c = acsCosts(a.symbols + 2 * t, a.soft);
        const __m128i base = _mm_set1_epi16(static_cast<short>(c.pair[0]));
        const __m128i d0 = _mm_set1_epi16(
            static_cast<short>(c.bit[0][1] - c.bit[0][0]));
        const __m128i d1 = _mm_set1_epi16(
            static_cast<short>(c.bit[1][1] - c.bit[1][0]));
        const __m128i total = _mm_set1_epi16(static_cast<short>(c.total));
        uint64_t word = 0;
        __m128i n[8];
        for (int g = 0; g < 4; ++g) {
            const __m128i bm = _mm_add_epi16(
                base, _mm_add_epi16(_mm_and_si128(x0[g], d0),
                                    _mm_and_si128(x1[g], d1)));
            const __m128i bmc = _mm_sub_epi16(total, bm);
            const __m128i m0 = _mm_add_epi16(m[g], bm);
            const __m128i m1 = _mm_add_epi16(m[g + 4], bmc);
            const __m128i m2 = _mm_add_epi16(m[g], bmc);
            const __m128i m3 = _mm_add_epi16(m[g + 4], bm);
            const __m128i s0 = _mm_min_epu16(m0, m1);
            const __m128i s1 = _mm_min_epu16(m2, m3);
            n[2 * g] = _mm_unpacklo_epi16(s0, s1);
            n[2 * g + 1] = _mm_unpackhi_epi16(s0, s1);
            const __m128i e0 = _mm_cmpgt_epi16(m0, m1);
            const __m128i e1 = _mm_cmpgt_epi16(m2, m3);
            const __m128i dec = _mm_packs_epi16(_mm_unpacklo_epi16(e0, e1),
                                                _mm_unpackhi_epi16(e0, e1));
            word |= static_cast<uint64_t>(
                        static_cast<uint16_t>(_mm_movemask_epi8(dec)))
                    << (16 * g);
        }
        a.decisions[t] = word;
        for (int i = 0; i < 8; ++i)
            m[i] = n[i];
        if (t % kAcsRenormSteps == kAcsRenormSteps - 1) {
            __m128i mn = m[0];
            for (int i = 1; i < 8; ++i)
                mn = _mm_min_epu16(mn, m[i]);
            const uint16_t lo = static_cast<uint16_t>(
                _mm_extract_epi16(_mm_minpos_epu16(mn), 0));
            const __m128i v = _mm_set1_epi16(static_cast<short>(lo));
            for (__m128i &r : m)
                r = _mm_sub_epi16(r, v);
            normalized += lo;
        }
    }
    return normalized +
           static_cast<uint16_t>(_mm_extract_epi16(m[0], 0));
}

} // namespace sse41

const KernelOps &
sse41Ops()
{
    static const KernelOps ops = {
        "sse41",
        sse41::sadRow16,
        sse41::sadRow8,
        sse41::sadRowHpel16,
        sse41::sadRowHpel8,
        sse41::sumRow16,
        sse41::absDevRow16,
        sse41::fdct,
        sse41::idct,
        sse41::quant,
        sse41::dequant,
        sse41::predictRow,
        sse41::interpRow,
        sse41::avgRow,
        sse41::viterbiAcs,
    };
    return ops;
}

} // namespace m4ps::codec::kernels

#endif // M4PS_KERNELS_HAVE_SSE41
