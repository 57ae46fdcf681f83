/**
 * @file
 * FEC framing over the video-packet layer: protect, channel, recover.
 *
 * This is where the coding-theory pieces (fec/conv.hh, fec/viterbi.hh,
 * fec/puncture.hh, fec/interleave.hh) meet the elementary stream.
 * protect() splits a stream at its startcode-delimited sections (the
 * resync video packets of docs/RESILIENCE.md) and wraps each section
 * as one independently decodable FEC block:
 *
 *     frame  := header(24) | cleartext | block*
 *     block  := sectionCode(1) vopIndex(2 LE) payloadBytes(4 LE)
 *               | wire symbols of conv(payload | crc32(payload))
 *
 * The cleartext prefix is protectableHeaderBytes(): the session
 * headers a transport protects out of band (same model FaultSpec's
 * protectPrefixBytes encodes).  Only a stream that opens on a
 * section has one.  A stream that opens mid-section - a packet cut
 * from the middle of a VOP - has no cleartext: its bytes before the
 * first section (all of them, if it has none) form one block with
 * section code kNoSection and VOP index kNoVop.  Per block, the
 * payload plus a CRC-32 trailer is convolutionally encoded,
 * punctured to the configured rate, interleaved, and emitted either
 * as packed bits (hard wire form) or one offset-LLR byte per symbol
 * (soft wire form).
 *
 * The channel functions perturb *only* the wire-symbol regions -
 * framing metadata rides the protected transport, mirroring how
 * FaultSpec.protectPrefixBytes shields session headers - except for
 * truncation, which cuts the framed stream itself (a dropped tail
 * drops trailing blocks, header and all).  recover() is total: any
 * byte input yields a byte output and a FecStats, never an exception.
 * Blocks whose CRC fails after Viterbi decoding still contribute
 * their (damaged) decoded bytes, so the tolerant MPEG-4 decoder's
 * concealment takes over exactly as for an unprotected stream -
 * protect, then conceal.
 */

#ifndef M4PS_FEC_FRAME_HH
#define M4PS_FEC_FRAME_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "codec/faultinject.hh"
#include "fec/conv.hh"
#include "fec/puncture.hh"
#include "fec/viterbi.hh"

namespace m4ps::fec
{

// Frame header layout (little-endian), kHeaderSize bytes total:
//   [0..3] magic "M4FC"   [4] version   [5] wire form
//   [6] rate code         [7] k         [8] g1   [9] g2
//   [10..11] interleave depth           [12..15] cleartext bytes
//   [16..19] block count                [20..23] CRC-32 of [0..19]
inline constexpr size_t kHeaderSize = 24;
inline constexpr size_t kBlockHeaderSize = 7;
inline constexpr uint8_t kMagic[4] = {'M', '4', 'F', 'C'};
inline constexpr uint8_t kVersion = 1;
inline constexpr size_t kOffWireForm = 5;
inline constexpr size_t kOffRate = 6;
inline constexpr size_t kOffHeaderCrc = 20;
inline constexpr uint16_t kNoVop = 0xffff;
/** Section code of the block before a stream's first startcode. */
inline constexpr uint8_t kNoSection = 0xff;

/** Wire form of the coded symbols. */
enum class WireForm : uint8_t
{
    PackedHard = 0, //!< 8 coded bits per wire byte.
    SoftBytes = 1,  //!< One offset-LLR byte per coded symbol.
};

/** Everything protect() needs; recover() reads it from the header. */
struct FecConfig
{
    Decision decision = Decision::Hard; //!< Also selects wire form.
    Rate rate = Rate::R1_2;
    int interleaveDepth = 1; //!< <= 1 disables interleaving.
    ConvCode code{};

    WireForm wireForm() const
    {
        return decision == Decision::Soft ? WireForm::SoftBytes
                                          : WireForm::PackedHard;
    }
};

/** Per-VOP block outcome, for reports. */
struct VopFecCounts
{
    int vop = -1; //!< VOP index, or -1 for pre/non-VOP blocks.
    uint32_t blocks = 0;
    uint32_t corrected = 0;
    uint32_t uncorrectable = 0;
};

/** What recover() saw.  Also mirrored into obs counters ("fec.*"). */
struct FecStats
{
    size_t blocks = 0;            //!< Blocks attempted.
    size_t blocksCorrected = 0;   //!< CRC ok, channel errors fixed.
    size_t blocksUncorrectable = 0; //!< CRC failed after decoding.
    size_t framingErrors = 0;     //!< Header/bounds damage.
    uint64_t correctedBits = 0;   //!< Wire bits fixed in good blocks.
    std::vector<VopFecCounts> perVop; //!< Ordered by VOP index.
};

/** Result of recover(): best-effort stream plus statistics. */
struct RecoverResult
{
    std::vector<uint8_t> stream;
    FecStats stats;
};

/** Frame @p stream as described above.  Pure function of inputs. */
std::vector<uint8_t> protect(std::span<const uint8_t> stream,
                             const FecConfig &cfg);

/**
 * Decode a framed stream back to an elementary stream.  Total and
 * noexcept-in-spirit: never throws, any input produces output.  If
 * the frame header itself is unusable the input is passed through
 * unchanged (stats.framingErrors set) so downstream tolerant decoding
 * still gets a look.
 */
RecoverResult recover(std::span<const uint8_t> framed);

/**
 * Hard channel over a framed stream: FaultSpec bit flips and bursts
 * applied to the wire-symbol regions only, then truncation over the
 * whole frame (last, like injectFaults) protecting header+cleartext.
 * Falls back to plain injectFaults() if @p framed is not a valid
 * frame.  startcodeEmulations is ignored - forged startcodes are a
 * bitstream-syntax attack and coded symbols have no syntax.
 */
std::vector<uint8_t> channelHard(std::vector<uint8_t> framed,
                                 const codec::FaultSpec &spec);

/**
 * AWGN channel over a soft-wire-form frame: each wire symbol becomes
 * clamp(round(128 + 64 * (x + sigma * n))) with x = +-1 from the
 * symbol's bit, n a seeded unit normal, and sigma set by @p es_n0_db.
 * Then truncation as in channelHard.  Deterministic given
 * (framed, es_n0_db, seed).
 */
std::vector<uint8_t> channelSoft(std::vector<uint8_t> framed,
                                 double es_n0_db, uint64_t seed,
                                 double truncate_fraction = 1.0);

/** Hard-decision BER equivalent of an AWGN Es/N0: Q(sqrt(2 Es/N0)). */
double hardBerAtEsN0Db(double es_n0_db);

/**
 * A lossy channel: FaultSpec damage, or AWGN at an Es/N0 (dB).  A soft
 * wire takes the AWGN as LLRs; other wires see its hard-equivalent
 * BER in place of faults.ber.
 */
struct ChannelSpec
{
    codec::FaultSpec faults;
    std::optional<double> esN0Db;
};

/**
 * Send @p stream over @p ch (docs/FEC.md "Channels").  @p wire is the
 * FecConfig @p stream was protect()ed with, or nullptr for a clear
 * stream, which goes through injectFaults() with its session headers
 * protected.  A soft wire with an Es/N0 goes through channelSoft()
 * (seed and truncation from faults), any other wire channelHard().
 */
std::vector<uint8_t> transmit(std::vector<uint8_t> stream,
                              const ChannelSpec &ch,
                              const FecConfig *wire);

} // namespace m4ps::fec

#endif // M4PS_FEC_FRAME_HH
