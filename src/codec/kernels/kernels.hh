/**
 * @file
 * Runtime-dispatched pel/coefficient kernels for the hot codec loops.
 *
 * The paper deliberately measures MPEG-4 on *non-SIMD* general-purpose
 * hardware; this layer is the controlled experiment that adds SIMD
 * back.  The inner loops of motion estimation (16x16/8x8 SAD with
 * half-pel variants), the 8x8 DCT/IDCT, quantization, motion-
 * compensated prediction, half-pel plane interpolation and B-VOP
 * averaging - plus the FEC decoder's Viterbi add-compare-select - are
 * factored into a table of function pointers (KernelOps) with one
 * table per instruction set: portable scalar (the reference, always
 * compiled), SSE4.1 and AVX2 on x86-64, NEON on AArch64.  A wider
 * backend starts from the next-narrower table and replaces only the
 * entries its lanes measurably speed up: AVX2 is SSE4.1's table with
 * six entries of its own.  The backend is chosen once at startup -
 * CPUID-based feature detection picks the widest supported set - and
 * can be forced with `--kernels=<name>` on the tools or the
 * M4PS_KERNELS environment variable (docs/KERNELS.md).
 *
 * Two contracts every backend must honour:
 *
 *  1. **Bit-identity.**  A kernel returns *exactly* the scalar
 *     reference's result for every input.  Integer kernels get this
 *     for free; the double-precision DCT keeps it by vectorizing
 *     *across outputs* (one output per SIMD lane) so each lane
 *     executes the scalar accumulation order, with separate
 *     multiply-then-add (never FMA) and a scalar rounding epilogue.
 *     The golden-bitstream conformance suite runs every compiled-in
 *     backend against the same digests.
 *
 *  2. **The memsim trace stream stays scalar-canonical.**  Kernels
 *     operate on raw row pointers only; every traceLoadRow /
 *     traceStoreRow call stays in the caller, outside this layer, so
 *     the simulated access stream - and therefore every Table-2..7
 *     metric - is identical no matter which backend computes.  SAD
 *     early exit is likewise decided in the caller from per-row
 *     partial sums, which are exact, so even the *set* of traced rows
 *     cannot diverge.
 *
 * Layout mirrors ViterbiDecoderCpp's helpers/simd_type.h +
 * decoder_factories.h: an ISA enum, per-ISA factory functions compiled
 * in their own translation units with per-file architecture flags, and
 * a small registry that maps names to tables.
 */

#ifndef M4PS_CODEC_KERNELS_KERNELS_HH
#define M4PS_CODEC_KERNELS_KERNELS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace m4ps::codec::kernels
{

/** Instruction sets a kernel table can be built for. */
enum class Isa
{
    Scalar = 0, //!< Portable reference; always compiled in.
    Sse41,      //!< x86-64, 128-bit integer + double lanes.
    Avx2,       //!< x86-64, 256-bit.
    Neon,       //!< AArch64, 128-bit.
};

/** Quantizer configuration handed to the quant/dequant kernels. */
struct QuantArgs
{
    int q = 1;                  //!< Quantizer step, 1..31.
    bool intra = false;         //!< Intra block (no dead zone).
    bool mpeg = false;          //!< MPEG weighting-matrix mode.
    const int *matrix = nullptr;//!< 64-entry weight matrix when mpeg.
};

/**
 * One block of Viterbi add-compare-select for the rate-1/2 code of
 * fec/conv.hh (fec/viterbi.cc builds these).  States are numbered
 * bit-reversed - newest input in the low bit - so butterfly j reads
 * the metrics of states j and j + 2^(k-2) and writes states 2j
 * (input 0) and 2j + 1 (input 1).
 */
struct AcsArgs
{
    int k = 7;                         //!< Constraint length, 3..7.
    /**
     * 2^(k-2) entries: the coded pair (g1 parity in bit 0) butterfly
     * j expects from state j on input 0.  The other three branches
     * follow from it: state j on input 1 and state j + 2^(k-2) on
     * input 0 expect pair ^ 3, state j + 2^(k-2) on input 1 expects
     * the pair itself.
     */
    const uint8_t *butterfly = nullptr;
    const uint8_t *symbols = nullptr;  //!< 2 * steps offset-LLR bytes.
    size_t steps = 0;                  //!< Trellis steps.
    bool soft = false;                 //!< Soft or hard branch costs.
    /**
     * Out: one word per step; bit s is set when state s was reached
     * from its predecessor s/2 + 2^(k-2) rather than s/2 (ties keep
     * s/2).
     */
    uint64_t *decisions = nullptr;
};

/**
 * The dispatch table.  All row kernels take raw pointers the caller
 * has already offset into (traced) plane storage; `n` counts pels.
 * Half-pel kernels read one extra sample right (`hx`) and take a
 * second row pointer for below (`hy`); when hy == 0 the caller may
 * pass r0 again for r1.
 */
struct KernelOps
{
    const char *name; //!< Backend name ("scalar", "avx2", ...).

    // --- Motion estimation -----------------------------------------
    /** Sum of absolute differences over one 16-pel row. */
    int (*sadRow16)(const uint8_t *c, const uint8_t *r);
    /** SAD over one 8-pel row. */
    int (*sadRow8)(const uint8_t *c, const uint8_t *r);
    /** 16-pel row SAD against the (hx, hy) half-pel interpolation. */
    int (*sadRowHpel16)(const uint8_t *c, const uint8_t *r0,
                        const uint8_t *r1, int hx, int hy);
    /** 8-pel variant of sadRowHpel16. */
    int (*sadRowHpel8)(const uint8_t *c, const uint8_t *r0,
                       const uint8_t *r1, int hx, int hy);
    /** Sum of one 16-pel row (mode-decision activity). */
    int (*sumRow16)(const uint8_t *c);
    /** Sum of |c[i] - mean| over one 16-pel row. */
    int (*absDevRow16)(const uint8_t *c, uint8_t mean);

    // --- Texture ---------------------------------------------------
    /** Forward 8x8 DCT, 64 int16 row-major in/out (codec/dct.hh). */
    void (*fdct)(const int16_t *in, int16_t *out);
    /** Inverse 8x8 DCT, output clamped to [-2048, 2047]. */
    void (*idct)(const int16_t *in, int16_t *out);
    /**
     * Quantize coefficients [start, 64) in place of codec/quant.cc's
     * loop; the intra-DC coefficient is the caller's business.
     */
    void (*quant)(const int16_t *coefs, int16_t *levels, int start,
                  const QuantArgs &qa);
    /** Inverse of quant over [start, 64). */
    void (*dequant)(const int16_t *levels, int16_t *coefs, int start,
                    const QuantArgs &qa);

    // --- Prediction / interpolation --------------------------------
    /**
     * Motion-compensated prediction of one row: out[i] is r0/r1
     * bilinear at half-pel phase (hx, hy), n in {8, 16}.
     */
    void (*predictRow)(const uint8_t *r0, const uint8_t *r1, int hx,
                       int hy, int n, uint8_t *out);
    /**
     * Half-pel plane interpolation over an interior span: h/v/hv get
     * the three phases for i in [0, n); r0[n] and r1[n] must be
     * readable (the caller peels the clamped last column).
     */
    void (*interpRow)(const uint8_t *r0, const uint8_t *r1, int n,
                      uint8_t *h, uint8_t *v, uint8_t *hv);
    /** out[i] = (a[i] + b[i] + 1) >> 1 (B-VOP bidirectional mode). */
    void (*avgRow)(const uint8_t *a, const uint8_t *b, int n,
                   uint8_t *out);

    // --- Channel decoding ------------------------------------------
    /**
     * Viterbi add-compare-select over a block starting in state 0.
     * Fills a.decisions and returns the exact accumulated metric of
     * state 0 after the last step.
     */
    uint64_t (*viterbiAcs)(const AcsArgs &a);
};

/** Backend name for an ISA ("scalar", "sse41", "avx2", "neon"). */
const char *isaName(Isa isa);

/** ISAs whose kernels were compiled into this binary. */
std::vector<Isa> compiledIsas();

/** Whether the running host can execute @p isa kernels. */
bool hostSupports(Isa isa);

/** Widest compiled-in ISA the host supports (the "auto" choice). */
Isa bestSupported();

/**
 * The active kernel table.  First use resolves the M4PS_KERNELS
 * environment variable ("scalar", "sse41", "avx2", "neon", or "auto",
 * the default); see select() for the fallback rules.
 */
const KernelOps &active();

/** ISA of the active table. */
Isa activeIsa();

/**
 * Select a backend by name.  "auto" picks bestSupported().  A known
 * ISA that is not compiled in or not supported by the host degrades
 * to scalar with a warn() - a forced run on the wrong machine should
 * measure *something* rather than die.  An unknown name throws
 * std::invalid_argument.  Returns the ISA actually installed.
 * Call before spinning up codec work; the table pointer itself is
 * atomic, but switching mid-encode mixes backends between rows.
 */
Isa select(const std::string &name);

/** Per-ISA table getters (null when not compiled in). */
const KernelOps *opsFor(Isa isa);

} // namespace m4ps::codec::kernels

#endif // M4PS_CODEC_KERNELS_KERNELS_HH
