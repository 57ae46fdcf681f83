/**
 * @file
 * AVX2 kernel backend (x86-64, 256-bit): SSE4.1's table with six
 * entries replaced.
 *
 * A 16-pel macroblock row never fills a ymm, so the row kernels (SAD
 * and its half-pel forms, row sum and deviation, prediction) and
 * dequant stay SSE4.1's; this file holds only the kernels where
 * bench_kernels measured 256-bit lanes faster (docs/KERNELS.md):
 * fdct, idct, quant, interpRow, avgRow and viterbiAcs.  They keep the
 * SSE4.1 backend's bit-identity strategy - exact integer
 * formulations, float division by the uniform 2q quantizer step
 * (exact for this domain), and a DCT vectorized across outputs, four
 * double lanes per register, two registers covering all eight
 * outputs of a pass, each lane running the scalar multiply-then-add
 * order (no FMA: this file is compiled with -mavx2 only).
 *
 * Built only alongside the SSE4.1 backend, whose table this one
 * starts from.
 */

#if defined(M4PS_KERNELS_HAVE_AVX2)

#include "codec/kernels/kernels_internal.hh"

#include <algorithm>
#include <cmath>
#include <immintrin.h>

namespace m4ps::codec::kernels
{

namespace avx2
{

namespace
{

/** (a + b + c + d + 2) >> 2 over 16 pels, widened through epi16. */
inline __m128i
avg4x16(__m128i a, __m128i b, __m128i c, __m128i d)
{
    const __m256i s = _mm256_add_epi16(
        _mm256_add_epi16(_mm256_cvtepu8_epi16(a),
                         _mm256_cvtepu8_epi16(b)),
        _mm256_add_epi16(_mm256_cvtepu8_epi16(c),
                         _mm256_cvtepu8_epi16(d)));
    const __m256i r = _mm256_srli_epi16(
        _mm256_add_epi16(s, _mm256_set1_epi16(2)), 2);
    return _mm_packus_epi16(_mm256_castsi256_si128(r),
                            _mm256_extracti128_si256(r, 1));
}

} // namespace

void
interpRow(const uint8_t *r0, const uint8_t *r1, int n, uint8_t *h,
          uint8_t *v, uint8_t *hv)
{
    int i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(r0 + i));
        const __m256i b = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(r0 + i + 1));
        const __m256i c = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(r1 + i));
        const __m256i d = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(r1 + i + 1));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(h + i),
                            _mm256_avg_epu8(a, b));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(v + i),
                            _mm256_avg_epu8(a, c));
        // Four-point average, widened per 128-bit half.
        const __m128i alo = _mm256_castsi256_si128(a);
        const __m128i ahi = _mm256_extracti128_si256(a, 1);
        const __m128i blo = _mm256_castsi256_si128(b);
        const __m128i bhi = _mm256_extracti128_si256(b, 1);
        const __m128i clo = _mm256_castsi256_si128(c);
        const __m128i chi = _mm256_extracti128_si256(c, 1);
        const __m128i dlo = _mm256_castsi256_si128(d);
        const __m128i dhi = _mm256_extracti128_si256(d, 1);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(hv + i),
                         avg4x16(alo, blo, clo, dlo));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(hv + i + 16),
                         avg4x16(ahi, bhi, chi, dhi));
    }
    if (i < n)
        scalar::interpRow(r0 + i, r1 + i, n - i, h + i, v + i, hv + i);
}

void
avgRow(const uint8_t *a, const uint8_t *b, int n, uint8_t *out)
{
    int i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i av = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + i));
        const __m256i bv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + i),
                            _mm256_avg_epu8(av, bv));
    }
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
    if (i & 7) {
        const int head = std::min((i + 7) & ~7, 64);
        scalar::quantRange(coefs, levels, i, head, qa);
        i = head;
    }
    const __m256i zero = _mm256_setzero_si256();
    const __m256i dead = _mm256_set1_epi32(qa.intra ? 0 : qa.q / 2);
    const __m256 step = _mm256_set1_ps(static_cast<float>(2 * qa.q));
    const __m256i cap = _mm256_set1_epi32(2047);
    for (; i < 64; i += 8) {
        const __m128i cv = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(coefs + i));
        const __m256i c32 = _mm256_cvtepi16_epi32(cv);
        const __m256i mag = _mm256_abs_epi32(c32);
        const __m256i num = _mm256_sub_epi32(mag, dead);
        // Exact trunc(num / 2q) via float division (file header).
        const __m256i lvl = _mm256_cvttps_epi32(
            _mm256_div_ps(_mm256_cvtepi32_ps(num), step));
        __m256i l = _mm256_max_epi32(lvl, zero);
        l = _mm256_min_epi32(l, cap);
        l = _mm256_sign_epi32(l, c32);
        const __m128i packed = _mm_packs_epi32(
            _mm256_castsi256_si128(l),
            _mm256_extracti128_si256(l, 1));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(levels + i),
                         packed);
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
        __m256d acc0 = _mm256_setzero_pd();
        __m256d acc1 = _mm256_setzero_pd();
        for (int x = 0; x < 8; ++x) {
            const __m256d vx = _mm256_set1_pd(din[y * 8 + x]);
            acc0 = _mm256_add_pd(
                acc0,
                _mm256_mul_pd(vx, _mm256_loadu_pd(&t.basisT[x][0])));
            acc1 = _mm256_add_pd(
                acc1,
                _mm256_mul_pd(vx, _mm256_loadu_pd(&t.basisT[x][4])));
        }
        _mm256_storeu_pd(&tmp[y * 8 + 0], acc0);
        _mm256_storeu_pd(&tmp[y * 8 + 4], acc1);
    }
    // Columns: out[v*8+u] = sum_y basis[v][y] * tmp[y*8+u]; lanes u,
    // scalar clamp/round epilogue for exact half-away-from-zero.
    for (int v = 0; v < 8; ++v) {
        __m256d acc0 = _mm256_setzero_pd();
        __m256d acc1 = _mm256_setzero_pd();
        for (int y = 0; y < 8; ++y) {
            const __m256d bv = _mm256_set1_pd(t.basis[v][y]);
            acc0 = _mm256_add_pd(
                acc0, _mm256_mul_pd(bv, _mm256_loadu_pd(&tmp[y * 8])));
            acc1 = _mm256_add_pd(
                acc1,
                _mm256_mul_pd(bv, _mm256_loadu_pd(&tmp[y * 8 + 4])));
        }
        double vals[8];
        _mm256_storeu_pd(&vals[0], acc0);
        _mm256_storeu_pd(&vals[4], acc1);
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
        __m256d acc0 = _mm256_setzero_pd();
        __m256d acc1 = _mm256_setzero_pd();
        for (int v = 0; v < 8; ++v) {
            const __m256d bv = _mm256_set1_pd(t.basis[v][y]);
            acc0 = _mm256_add_pd(
                acc0, _mm256_mul_pd(bv, _mm256_loadu_pd(&din[v * 8])));
            acc1 = _mm256_add_pd(
                acc1,
                _mm256_mul_pd(bv, _mm256_loadu_pd(&din[v * 8 + 4])));
        }
        _mm256_storeu_pd(&tmp[y * 8 + 0], acc0);
        _mm256_storeu_pd(&tmp[y * 8 + 4], acc1);
    }
    // Rows: out[y*8+x] = sum_u basis[u][x] * tmp[y*8+u]; lanes x.
    for (int y = 0; y < 8; ++y) {
        __m256d acc0 = _mm256_setzero_pd();
        __m256d acc1 = _mm256_setzero_pd();
        for (int u = 0; u < 8; ++u) {
            const __m256d tu = _mm256_set1_pd(tmp[y * 8 + u]);
            acc0 = _mm256_add_pd(
                acc0,
                _mm256_mul_pd(tu, _mm256_loadu_pd(&t.basis[u][0])));
            acc1 = _mm256_add_pd(
                acc1,
                _mm256_mul_pd(tu, _mm256_loadu_pd(&t.basis[u][4])));
        }
        double vals[8];
        _mm256_storeu_pd(&vals[0], acc0);
        _mm256_storeu_pd(&vals[4], acc1);
        for (int x = 0; x < 8; ++x) {
            const double r =
                std::clamp(std::round(vals[x]), -2048.0, 2047.0);
            out[y * 8 + x] = static_cast<int16_t>(r);
        }
    }
}

/**
 * K=7 butterfly ACS over 16 butterflies per ymm of uint16 metrics
 * (exact for any input; the bound is argued in kernels_internal.hh).
 * m[0..1] hold states 0..31 - the "j" side of the 32 butterflies -
 * and m[2..3] states 32..63.  Survivors interleave back into state
 * order (unpack, then a 128-bit lane fix-up), and the decision masks
 * interleave the same way, pack to bytes already in state order, and
 * leave by movemask.  Branch costs are formed per lane as
 * pair[0] + (bit-0 mask & d0) + (bit-1 mask & d1), in wrapping uint16
 * arithmetic whose result is the exact cost.
 */
uint64_t
viterbiAcs(const AcsArgs &a)
{
    if (a.k != 7)
        return scalar::viterbiAcs(a);
    alignas(32) uint16_t mask0[32], mask1[32];
    for (int j = 0; j < 32; ++j) {
        mask0[j] = (a.butterfly[j] & 1) ? 0xffff : 0;
        mask1[j] = (a.butterfly[j] & 2) ? 0xffff : 0;
    }
    __m256i x0[2], x1[2];
    for (int g = 0; g < 2; ++g) {
        x0[g] = _mm256_load_si256(
            reinterpret_cast<const __m256i *>(mask0 + 16 * g));
        x1[g] = _mm256_load_si256(
            reinterpret_cast<const __m256i *>(mask1 + 16 * g));
    }
    const short u = static_cast<short>(kAcsUnreachable);
    __m256i m[4] = {
        _mm256_setr_epi16(0, u, u, u, u, u, u, u, u, u, u, u, u, u, u,
                          u),
        _mm256_set1_epi16(u), _mm256_set1_epi16(u),
        _mm256_set1_epi16(u)};
    uint64_t normalized = 0;
    for (size_t t = 0; t < a.steps; ++t) {
        const AcsCosts c = acsCosts(a.symbols + 2 * t, a.soft);
        const __m256i base =
            _mm256_set1_epi16(static_cast<short>(c.pair[0]));
        const __m256i d0 = _mm256_set1_epi16(
            static_cast<short>(c.bit[0][1] - c.bit[0][0]));
        const __m256i d1 = _mm256_set1_epi16(
            static_cast<short>(c.bit[1][1] - c.bit[1][0]));
        const __m256i total =
            _mm256_set1_epi16(static_cast<short>(c.total));
        uint64_t word = 0;
        __m256i n[4];
        for (int g = 0; g < 2; ++g) {
            const __m256i bm = _mm256_add_epi16(
                base, _mm256_add_epi16(_mm256_and_si256(x0[g], d0),
                                       _mm256_and_si256(x1[g], d1)));
            const __m256i bmc = _mm256_sub_epi16(total, bm);
            const __m256i m0 = _mm256_add_epi16(m[g], bm);
            const __m256i m1 = _mm256_add_epi16(m[g + 2], bmc);
            const __m256i m2 = _mm256_add_epi16(m[g], bmc);
            const __m256i m3 = _mm256_add_epi16(m[g + 2], bm);
            const __m256i s0 = _mm256_min_epu16(m0, m1);
            const __m256i s1 = _mm256_min_epu16(m2, m3);
            const __m256i lo = _mm256_unpacklo_epi16(s0, s1);
            const __m256i hi = _mm256_unpackhi_epi16(s0, s1);
            n[2 * g] = _mm256_permute2x128_si256(lo, hi, 0x20);
            n[2 * g + 1] = _mm256_permute2x128_si256(lo, hi, 0x31);
            const __m256i e0 = _mm256_cmpgt_epi16(m0, m1);
            const __m256i e1 = _mm256_cmpgt_epi16(m2, m3);
            const __m256i dec =
                _mm256_packs_epi16(_mm256_unpacklo_epi16(e0, e1),
                                   _mm256_unpackhi_epi16(e0, e1));
            word |= static_cast<uint64_t>(static_cast<uint32_t>(
                        _mm256_movemask_epi8(dec)))
                    << (32 * g);
        }
        a.decisions[t] = word;
        for (int i = 0; i < 4; ++i)
            m[i] = n[i];
        if (t % kAcsRenormSteps == kAcsRenormSteps - 1) {
            const __m256i mn =
                _mm256_min_epu16(_mm256_min_epu16(m[0], m[1]),
                                 _mm256_min_epu16(m[2], m[3]));
            const uint16_t lo = static_cast<uint16_t>(
                _mm_extract_epi16(
                    _mm_minpos_epu16(_mm_min_epu16(
                        _mm256_castsi256_si128(mn),
                        _mm256_extracti128_si256(mn, 1))),
                    0));
            const __m256i v = _mm256_set1_epi16(static_cast<short>(lo));
            for (__m256i &r : m)
                r = _mm256_sub_epi16(r, v);
            normalized += lo;
        }
    }
    return normalized + static_cast<uint16_t>(_mm_extract_epi16(
                            _mm256_castsi256_si128(m[0]), 0));
}

} // namespace avx2

const KernelOps &
avx2Ops()
{
    static const KernelOps ops = [] {
        KernelOps o = sse41Ops();
        o.name = "avx2";
        o.fdct = avx2::fdct;
        o.idct = avx2::idct;
        o.quant = avx2::quant;
        o.interpRow = avx2::interpRow;
        o.avgRow = avx2::avgRow;
        o.viterbiAcs = avx2::viterbiAcs;
        return o;
    }();
    return ops;
}

} // namespace m4ps::codec::kernels

#endif // M4PS_KERNELS_HAVE_AVX2
