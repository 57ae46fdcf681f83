/**
 * @file
 * Deterministic fault injection for elementary streams.
 *
 * The paper's target scenario is streaming delivery, where the
 * channel - not the codec - decides which bits arrive.  This module
 * models that channel: seeded random bit flips at a configurable
 * bit-error rate, contiguous burst errors, truncation, and startcode
 * emulation.  Everything is a pure function of (stream, spec), so a
 * BER sweep is reproducible from its seeds.
 */

#ifndef M4PS_CODEC_FAULTINJECT_HH
#define M4PS_CODEC_FAULTINJECT_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace m4ps::codec
{

/** What to do to a stream.  Defaults leave it untouched. */
struct FaultSpec
{
    /** Independent bit-flip probability per transmitted bit. */
    double ber = 0.0;

    /** Number of contiguous burst errors (randomized byte runs). */
    int bursts = 0;

    /** Length of each burst in bytes. */
    int burstBytes = 16;

    /** Keep this fraction of the stream; 1.0 = no truncation. */
    double truncateFraction = 1.0;

    /** Forged 0x000001 prefixes written at random offsets. */
    int startcodeEmulations = 0;

    /** Seed for all randomized placement. */
    uint64_t seed = 1;

    /**
     * Bytes at the start of the stream that the channel never
     * touches.  A transport protects its session headers (FEC,
     * retransmission); set this to protectableHeaderBytes() to model
     * that while exposing every VOP to loss.
     */
    size_t protectPrefixBytes = 0;
};

/** Flip each unprotected bit independently with probability @p ber. */
std::vector<uint8_t> flipBits(std::vector<uint8_t> stream, double ber,
                              uint64_t seed, size_t protect_prefix = 0);

/** Overwrite @p bursts random runs of @p burst_bytes with noise. */
std::vector<uint8_t> burstErrors(std::vector<uint8_t> stream, int bursts,
                                 int burst_bytes, uint64_t seed,
                                 size_t protect_prefix = 0);

/** Keep the first @p fraction of the stream (at least the prefix). */
std::vector<uint8_t> truncateStream(std::vector<uint8_t> stream,
                                    double fraction,
                                    size_t protect_prefix = 0);

/** Write @p count forged 0x000001 prefixes at random offsets. */
std::vector<uint8_t> emulateStartcodes(std::vector<uint8_t> stream,
                                       int count, uint64_t seed,
                                       size_t protect_prefix = 0);

/**
 * Apply every fault class of @p spec in a fixed order: flips, bursts,
 * startcode emulation, and truncation *last*.  The order is part of
 * the contract: truncation running last means truncateFraction is a
 * fraction of the original stream length (not of some intermediate),
 * every in-place fault class sees the full stream extent, and
 * protectPrefixBytes is honored by each class individually - the
 * returned stream always begins with the protected prefix unchanged
 * (clamped to the original size).  fec::channelHard mirrors the same
 * order over framed streams.
 */
std::vector<uint8_t> injectFaults(std::vector<uint8_t> stream,
                                  const FaultSpec &spec);

/**
 * Byte offset of the first VOP section: the sequence/VO/VOL header
 * prefix a modelled transport would protect.  Returns the stream
 * size if no VOP is found.
 */
size_t protectableHeaderBytes(std::span<const uint8_t> stream);

} // namespace m4ps::codec

#endif // M4PS_CODEC_FAULTINJECT_HH
