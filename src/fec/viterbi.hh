/**
 * @file
 * Viterbi decoding of the rate-1/2 convolutional code (fec/conv.hh).
 *
 * Maximum-likelihood sequence decoding over the code trellis:
 * add-compare-select across all 2^(k-1) states per received symbol
 * pair, decisions recorded per step, one traceback from the
 * terminated (all-zero) state.  Blocks in this codebase are one video
 * packet each - a few kilobytes at most - so the decoder keeps the
 * whole decision history and traces back once per block, which is
 * exact (no truncated-traceback approximation) and still small.
 *
 * The add-compare-select is a butterfly kernel behind the
 * kernel-dispatch layer (KernelOps::viterbiAcs in
 * codec/kernels/kernels.hh): every valid code taps both the newest
 * and the oldest register bit, so the four branches of a butterfly
 * expect one coded pair or its complement, and a step costs one
 * branch-metric pair per butterfly.  Backends use exact uint16 path
 * metrics and agree bit for bit.  The traceback packs the decoded
 * bytes and counts, along the survivor path, the received symbols the
 * decoder overrode - the same count as re-encoding the decoded bytes
 * and comparing, without the re-encode.
 *
 * Symbols use one unsigned byte each in an offset-LLR convention
 * shared by the hard and soft paths:
 *
 *     0   = confident bit 0        255 = confident bit 1
 *     128 = erased / no information (depunctured positions)
 *
 * The *hard* path quantizes each symbol to {0, 1, erased} and counts
 * Hamming distance; the *soft* path accumulates the full quantized
 * magnitudes, which is what buys the classic ~2 dB over hard decision
 * on the AWGN channel (bench_resilience_ber_sweep measures it).
 */

#ifndef M4PS_FEC_VITERBI_HH
#define M4PS_FEC_VITERBI_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fec/conv.hh"

namespace m4ps::fec
{

/** Offset-LLR symbol constants. */
constexpr uint8_t kSymZero = 0;
constexpr uint8_t kSymOne = 255;
constexpr uint8_t kSymErased = 128;

/** Hard or soft branch-metric path. */
enum class Decision
{
    Hard,
    Soft,
};

const char *decisionName(Decision d);

/** One decoded block. */
struct ViterbiResult
{
    /** Decoded information bits (tail removed), values 0/1. */
    std::vector<uint8_t> bits;

    /** Accumulated metric of the surviving path (0 = clean). */
    uint64_t pathMetric = 0;
};

/** What decodeInto() reports besides the decoded bytes. */
struct ViterbiMetrics
{
    /** Accumulated metric of the surviving path (0 = clean). */
    uint64_t pathMetric = 0;

    /**
     * Non-erased symbols whose hard decision (which side of
     * kSymErased) differs from the coded bit on the surviving path:
     * the channel bits the decoder overrode.
     */
    uint64_t correctedBits = 0;
};

/**
 * Decoder for one ConvCode.  Construction precomputes the butterfly
 * table; decode() and decodeInto() may be called any number of
 * times, from any number of threads.
 */
class ViterbiDecoder
{
  public:
    explicit ViterbiDecoder(const ConvCode &code);

    /** Trellis steps - and decision words - for @p nInfoBits. */
    size_t steps(size_t nInfoBits) const
    {
        return nInfoBits + static_cast<size_t>(code_.tailBits());
    }

    /**
     * Decode @p nInfoBits information bits from @p symbols, which
     * must hold 2 * steps(nInfoBits) offset-LLR symbols (the
     * depunctured stream, erasures at kSymErased).  The encoder is
     * assumed to have started in and been flushed back to state 0.
     * Writes (nInfoBits + 7) / 8 bytes to @p out, bits MSB first and
     * the last byte zero-padded; @p decisions is scratch for
     * steps(nInfoBits) words.  Allocates nothing.
     */
    ViterbiMetrics decodeInto(const uint8_t *symbols, size_t nInfoBits,
                              Decision decision, uint64_t *decisions,
                              uint8_t *out) const;

    /** decodeInto() with its own buffers, one bit per element. */
    ViterbiResult decode(const uint8_t *symbols, size_t nInfoBits,
                         Decision decision) const;

    const ConvCode &code() const { return code_; }

  private:
    ConvCode code_;
    /**
     * Coded pair per butterfly, in the kernel's bit-reversed state
     * numbering (codec/kernels/kernels.hh, AcsArgs::butterfly).
     */
    uint8_t butterfly_[32] = {};
};

} // namespace m4ps::fec

#endif // M4PS_FEC_VITERBI_HH
