/**
 * @file
 * Backend-internal sharing for the kernel layer: the scalar reference
 * implementations (SIMD backends call them for tails and for the
 * division-per-coefficient MPEG-matrix quantizer, and the test suite
 * compares against them directly) and the DCT basis tables.
 *
 * Not part of the public API; include kernels.hh from codec code.
 */

#ifndef M4PS_CODEC_KERNELS_KERNELS_INTERNAL_HH
#define M4PS_CODEC_KERNELS_KERNELS_INTERNAL_HH

#include "codec/kernels/kernels.hh"

namespace m4ps::codec::kernels
{

/**
 * cos((2x+1) u pi / 16) basis scaled by the 1/2 c(u) factor, plus its
 * transpose.  One shared instance: every backend multiplies the same
 * doubles, which is half of the DCT bit-identity argument (the other
 * half is per-lane scalar operation order; see kernels.hh).
 */
struct DctTables
{
    double basis[8][8];  //!< [u][x]
    double basisT[8][8]; //!< [x][u]
};

const DctTables &dctTables();

/*
 * Viterbi ACS in uint16 path metrics, exactly.  Every backend keeps
 * the metrics of one block in uint16 lanes and must still make the
 * decisions - and return the total - of unbounded arithmetic:
 *
 *  - A decision compares two metrics of the same step (m1 < m0, ties
 *    keep predecessor s/2), so subtracting one common value from
 *    every metric changes no decision: metrics may be renormalized
 *    at any cadence, and the caller's total is the sum of what was
 *    subtracted plus the final metric of state 0.
 *  - A branch costs at most 2 * 255 = 510 (soft; hard costs <= 2).
 *    Every state is reachable from every other in k-1 <= 6 steps, so
 *    once the start has been left behind no metric exceeds the
 *    step's minimum by more than (k-1) * 510 = 3060.  Subtracting
 *    the minimum every kAcsRenormSteps = 32 steps therefore keeps
 *    every metric <= 3060 + 32 * 510 = 19380, for any input.
 *  - States other than 0 start at kAcsUnreachable = 0x4000 > 3060:
 *    for the first k-1 steps every comparison between a path from
 *    state 0 and one from elsewhere goes to the path from state 0,
 *    as it would from an infinite start, and paths that both start
 *    elsewhere compare by their costs alone.  Those metrics stay
 *    below 0x4000 + 6 * 510 = 19444 and are gone after step k-2.
 *
 * So every metric stays below 2^15: unsigned and signed 16-bit
 * compares agree, and no add wraps.
 */
constexpr unsigned kAcsRenormSteps = 32;
constexpr uint16_t kAcsUnreachable = 0x4000;

/**
 * One step's branch costs: pair[e] is the cost of expecting coded
 * pair e (g1 parity in bit 0) against the two received symbols, and
 * bit[i][x] the cost of symbol i against expected bit x, so that
 * pair[e] = bit[0][e & 1] + bit[1][e >> 1] and
 * pair[e ^ 3] = total - pair[e].  Soft: a symbol r costs r against
 * 0 and 255 - r against 1.  Hard: a symbol costs 1 when it lies on
 * the other side of the erasure value 128, and 0 when it is 128.
 */
struct AcsCosts
{
    uint16_t bit[2][2];
    uint16_t pair[4];
    uint16_t total;
};

inline AcsCosts
acsCosts(const uint8_t *sym, bool soft)
{
    AcsCosts c;
    for (int i = 0; i < 2; ++i) {
        const uint8_t r = sym[i];
        c.bit[i][0] = soft ? r : static_cast<uint16_t>(r > 128);
        c.bit[i][1] = soft ? static_cast<uint16_t>(255 - r)
                           : static_cast<uint16_t>(r < 128);
    }
    for (int e = 0; e < 4; ++e)
        c.pair[e] =
            static_cast<uint16_t>(c.bit[0][e & 1] + c.bit[1][e >> 1]);
    c.total = static_cast<uint16_t>(c.pair[0] + c.pair[3]);
    return c;
}

namespace scalar
{

int sadRow16(const uint8_t *c, const uint8_t *r);
int sadRow8(const uint8_t *c, const uint8_t *r);
int sadRowHpel16(const uint8_t *c, const uint8_t *r0,
                 const uint8_t *r1, int hx, int hy);
int sadRowHpel8(const uint8_t *c, const uint8_t *r0, const uint8_t *r1,
                int hx, int hy);
int sumRow16(const uint8_t *c);
int absDevRow16(const uint8_t *c, uint8_t mean);
void fdct(const int16_t *in, int16_t *out);
void idct(const int16_t *in, int16_t *out);
void quant(const int16_t *coefs, int16_t *levels, int start,
           const QuantArgs &qa);
void dequant(const int16_t *levels, int16_t *coefs, int start,
             const QuantArgs &qa);
void predictRow(const uint8_t *r0, const uint8_t *r1, int hx, int hy,
                int n, uint8_t *out);
void interpRow(const uint8_t *r0, const uint8_t *r1, int n, uint8_t *h,
               uint8_t *v, uint8_t *hv);
void avgRow(const uint8_t *a, const uint8_t *b, int n, uint8_t *out);
/** Any k in [3, 7]; the SIMD backends take k = 7 only. */
uint64_t viterbiAcs(const AcsArgs &a);

/** MPEG-matrix halves of quant/dequant, shared by every backend. */
void quantMpeg(const int16_t *coefs, int16_t *levels, int start,
               const QuantArgs &qa);
void dequantMpeg(const int16_t *levels, int16_t *coefs, int start,
                 const QuantArgs &qa);

/**
 * H.263-mode quant/dequant over [first, last): the scalar bodies,
 * exposed with an explicit end so SIMD backends can peel the
 * misaligned head (start is 1 for intra blocks) without giving up
 * the vector loop for the rest.
 */
void quantRange(const int16_t *coefs, int16_t *levels, int first,
                int last, const QuantArgs &qa);
void dequantRange(const int16_t *levels, int16_t *coefs, int first,
                  int last, const QuantArgs &qa);

} // namespace scalar

/** Per-backend table factories; defined in their own TUs. */
const KernelOps &scalarOps();
#if defined(M4PS_KERNELS_HAVE_SSE41)
const KernelOps &sse41Ops();
#endif
#if defined(M4PS_KERNELS_HAVE_AVX2)
const KernelOps &avx2Ops();
#endif
#if defined(M4PS_KERNELS_HAVE_NEON)
const KernelOps &neonOps();
#endif

} // namespace m4ps::codec::kernels

#endif // M4PS_CODEC_KERNELS_KERNELS_INTERNAL_HH
