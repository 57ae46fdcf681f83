#include "fec/frame.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "bitstream/startcode.hh"
#include "codec/streamtools.hh"
#include "fec/interleave.hh"
#include "support/obs/obs.hh"
#include "support/random.hh"
#include "support/serialize.hh"

namespace m4ps::fec
{

namespace
{

// A block whose wire region is cut off by more than this many bytes
// is counted as a framing error instead of being decoded from
// erasures: it bounds decode work on damaged/hostile inputs (the
// declared payload size cannot force work the stream doesn't back).
constexpr size_t kMaxErasurePadBytes = 4096;

// Upper bounds a frame header may claim; anything beyond is damage.
constexpr uint32_t kMaxPayloadBytes = 1u << 24;
constexpr uint32_t kMaxBlockCount = 1u << 20;

inline void
putLe16(std::vector<uint8_t> &out, uint16_t v)
{
    out.push_back(static_cast<uint8_t>(v & 0xff));
    out.push_back(static_cast<uint8_t>(v >> 8));
}

inline void
putLe32(std::vector<uint8_t> &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
}

inline uint16_t
getLe16(const uint8_t *p)
{
    return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

inline uint32_t
getLe32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
           (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
}

/** Coded-symbol count on the wire for one block's payload. */
size_t
blockSymbolCount(uint32_t payload_bytes, const ConvCode &code,
                 Rate rate)
{
    const size_t infoBits = 8 * (static_cast<size_t>(payload_bytes) +
                                 4 /* CRC trailer */);
    const size_t codedBits =
        2 * (infoBits + static_cast<size_t>(code.tailBits()));
    return puncturedSize(codedBits, rate);
}

size_t
blockWireBytes(size_t sym_count, WireForm form)
{
    return form == WireForm::PackedHard ? (sym_count + 7) / 8
                                        : sym_count;
}

struct BlockInfo
{
    uint8_t sectionCode = 0;
    uint16_t vopIndex = kNoVop;
    uint32_t payloadBytes = 0;
    size_t wireOffset = 0; //!< Start of the wire symbols.
    size_t wireBytes = 0;  //!< Nominal size on an intact wire.
    size_t avail = 0;      //!< Bytes actually present in the stream.
};

/** Everything the header + block walk yields; total, never throws. */
struct FrameLayout
{
    bool headerOk = false;
    WireForm form = WireForm::PackedHard;
    Rate rate = Rate::R1_2;
    ConvCode code{};
    int depth = 1;
    uint32_t cleartextLen = 0;
    uint32_t blockCount = 0;
    size_t missingBlocks = 0; //!< Declared but cut off entirely.
    std::vector<BlockInfo> blocks;
};

FrameLayout
parseLayout(std::span<const uint8_t> framed)
{
    FrameLayout lay;
    if (framed.size() < kHeaderSize)
        return lay;
    const uint8_t *p = framed.data();
    if (!std::equal(kMagic, kMagic + 4, p) || p[4] != kVersion)
        return lay;
    if (support::crc32(p, kOffHeaderCrc) != getLe32(p + kOffHeaderCrc))
        return lay;
    if (p[kOffWireForm] > 1 || p[kOffRate] >= kNumRates)
        return lay;
    lay.form = static_cast<WireForm>(p[kOffWireForm]);
    lay.rate = static_cast<Rate>(p[kOffRate]);
    lay.code = ConvCode(p[7], p[8], p[9]);
    if (!lay.code.valid())
        return lay;
    lay.depth = getLe16(p + 10);
    lay.cleartextLen = getLe32(p + 12);
    lay.blockCount = getLe32(p + 16);
    if (lay.cleartextLen > framed.size() - kHeaderSize ||
        lay.blockCount > kMaxBlockCount) {
        return lay;
    }
    lay.headerOk = true;

    size_t pos = kHeaderSize + lay.cleartextLen;
    for (uint32_t i = 0; i < lay.blockCount; ++i) {
        if (pos + kBlockHeaderSize > framed.size()) {
            lay.missingBlocks = lay.blockCount - i;
            break;
        }
        BlockInfo b;
        b.sectionCode = framed[pos];
        b.vopIndex = getLe16(&framed[pos + 1]);
        b.payloadBytes = getLe32(&framed[pos + 3]);
        if (b.payloadBytes > kMaxPayloadBytes) {
            lay.missingBlocks = lay.blockCount - i;
            break;
        }
        const size_t syms =
            blockSymbolCount(b.payloadBytes, lay.code, lay.rate);
        b.wireBytes = blockWireBytes(syms, lay.form);
        b.wireOffset = pos + kBlockHeaderSize;
        b.avail = std::min(b.wireBytes,
                           framed.size() - b.wireOffset);
        lay.blocks.push_back(b);
        pos = b.wireOffset + b.avail;
        if (b.avail < b.wireBytes) {
            // The stream ends inside this block; everything after is
            // gone too.
            lay.missingBlocks = lay.blockCount - i - 1;
            break;
        }
    }
    return lay;
}

/** Decode buffers, reused from block to block. */
struct BlockScratch
{
    std::vector<uint8_t> full; //!< Trellis input: two per step.
    std::vector<uint64_t> decisions;
    std::vector<uint8_t> bytes; //!< Payload, then the CRC trailer.
};

/** What decodeBlock() found; the bytes are left in the scratch. */
struct BlockOutcome
{
    bool crcOk = false;
    uint64_t correctedBits = 0;
};

/**
 * Decode block @p b into s.bytes: payload, then the CRC trailer.
 * Allocates nothing once @p s has grown to the block's size.
 */
BlockOutcome
decodeBlock(std::span<const uint8_t> framed, const FrameLayout &lay,
            const ViterbiDecoder &dec, const BlockInfo &b,
            BlockScratch &s)
{
    const size_t infoBits = 8 * (static_cast<size_t>(b.payloadBytes) + 4);
    const size_t steps = dec.steps(infoBits);
    const size_t syms =
        blockSymbolCount(b.payloadBytes, lay.code, lay.rate);

    // Received symbols go straight to their trellis positions as
    // offset-LLR symbols; punctured and cut-off positions stay erased.
    s.full.assign(2 * steps, kSymErased);
    const uint8_t *wire = framed.data() + b.wireOffset;
    uint8_t *full = s.full.data();
    if (lay.form == WireForm::PackedHard) {
        const size_t present = std::min(syms, 8 * b.avail);
        forEachWireRun(syms, lay.depth, lay.rate,
                       [&](size_t w, size_t m, size_t n) {
                           for (const size_t end = std::min(w + n, present);
                                w < end; ++w, ++m)
                               full[m] = (wire[w / 8] >> (7 - w % 8)) & 1
                                             ? kSymOne
                                             : kSymZero;
                       });
    } else {
        forEachWireRun(syms, lay.depth, lay.rate,
                       [&](size_t w, size_t m, size_t n) {
                           if (w < b.avail)
                               std::copy_n(wire + w,
                                           std::min(n, b.avail - w),
                                           full + m);
                       });
    }

    s.decisions.resize(steps);
    s.bytes.resize(infoBits / 8);
    const ViterbiMetrics m = dec.decodeInto(
        s.full.data(), infoBits,
        lay.form == WireForm::SoftBytes ? Decision::Soft
                                        : Decision::Hard,
        s.decisions.data(), s.bytes.data());
    BlockOutcome o;
    o.crcOk = support::crc32(s.bytes.data(), b.payloadBytes) ==
              getLe32(&s.bytes[b.payloadBytes]);
    o.correctedBits = m.correctedBits;
    return o;
}

} // namespace

std::vector<uint8_t>
protect(std::span<const uint8_t> stream, const FecConfig &cfg)
{
    const auto sections = codec::parseSections(stream);
    // A stream that opens on a section carries the cleartext prefix,
    // protectableHeaderBytes(): everything before its first VOP
    // section.  One that opens mid-section, such as a packet cut from
    // the middle of a VOP, has none: its bytes up to the first
    // section become a block of their own.
    const size_t head =
        sections.empty() ? stream.size() : sections.front().offset;
    size_t cleartext = 0;
    if (head == 0) {
        cleartext = stream.size();
        for (const auto &s : sections) {
            if (bits::isVopCode(s.code)) {
                cleartext = s.offset;
                break;
            }
        }
    }
    // The depth the header can record is the depth the walk uses.
    const int depth = std::clamp(cfg.interleaveDepth, 0, 0xffff);
    const WireForm form = cfg.wireForm();

    std::vector<uint8_t> out;
    out.reserve(kHeaderSize + stream.size() * 2);
    for (uint8_t m : kMagic)
        out.push_back(m);
    out.push_back(kVersion);
    out.push_back(static_cast<uint8_t>(form));
    out.push_back(static_cast<uint8_t>(cfg.rate));
    out.push_back(static_cast<uint8_t>(cfg.code.k));
    out.push_back(cfg.code.g1);
    out.push_back(cfg.code.g2);
    putLe16(out, static_cast<uint16_t>(depth));
    putLe32(out, static_cast<uint32_t>(cleartext));
    const size_t blockCountPos = out.size();
    putLe32(out, 0); // Block count, patched below.
    putLe32(out, 0); // Header CRC, patched below.
    out.insert(out.end(), stream.begin(), stream.begin() + cleartext);

    std::vector<uint8_t> block; //!< Payload, then the CRC trailer.
    std::vector<uint8_t> coded; //!< One bit per mother-code position.
    uint32_t blockCount = 0;
    auto emitBlock = [&](uint8_t code, uint16_t vop, size_t offset,
                         size_t size) {
        block.assign(stream.begin() + offset,
                     stream.begin() + offset + size);
        putLe32(block, support::crc32(block.data(), block.size()));
        convEncode(cfg.code, block.data(), block.size(), coded);
        const size_t syms = puncturedSize(coded.size(), cfg.rate);

        out.push_back(code);
        putLe16(out, vop);
        putLe32(out, static_cast<uint32_t>(size));
        const size_t at = out.size();
        out.resize(at + blockWireBytes(syms, form), 0);
        uint8_t *wire = out.data() + at;
        if (form == WireForm::PackedHard) {
            // Zero bits pad the last wire byte.
            forEachWireRun(syms, depth, cfg.rate,
                           [&](size_t w, size_t m, size_t n) {
                               for (const size_t end = w + n; w < end;
                                    ++w, ++m)
                                   wire[w / 8] |= static_cast<uint8_t>(
                                       coded[m] << (7 - w % 8));
                           });
        } else {
            forEachWireRun(syms, depth, cfg.rate,
                           [&](size_t w, size_t m, size_t n) {
                               for (size_t i = 0; i < n; ++i)
                                   wire[w + i] =
                                       coded[m + i] ? kSymOne : kSymZero;
                           });
        }
        ++blockCount;
    };

    if (cleartext == 0 && head > 0)
        emitBlock(kNoSection, kNoVop, 0, head);
    int vopCount = 0;
    uint16_t curVop = kNoVop;
    for (const auto &s : sections) {
        if (s.offset < cleartext)
            continue;
        if (bits::isVopCode(s.code))
            curVop = static_cast<uint16_t>(vopCount++);
        emitBlock(s.code, curVop, s.offset, s.size);
    }

    // Patch block count, then the header CRC over bytes [0, 20).
    for (int i = 0; i < 4; ++i)
        out[blockCountPos + i] =
            static_cast<uint8_t>((blockCount >> (8 * i)) & 0xff);
    const uint32_t crc = support::crc32(out.data(), kOffHeaderCrc);
    for (int i = 0; i < 4; ++i)
        out[kOffHeaderCrc + i] =
            static_cast<uint8_t>((crc >> (8 * i)) & 0xff);
    return out;
}

RecoverResult
recover(std::span<const uint8_t> framed)
{
    RecoverResult res;
    const FrameLayout lay = parseLayout(framed);
    if (!lay.headerOk) {
        // Unusable header: hand the bytes through so the tolerant
        // decoder still gets its chance at them.
        res.stats.framingErrors = 1;
        res.stream.assign(framed.begin(), framed.end());
        obs::counter("fec.framing_errors").add(1);
        return res;
    }

    res.stream.assign(framed.begin() + kHeaderSize,
                      framed.begin() + kHeaderSize + lay.cleartextLen);
    res.stats.framingErrors = lay.missingBlocks;

    const ViterbiDecoder dec(lay.code);
    // Grows to the largest block, then blocks allocate nothing.  They
    // decode one after another: on the pool, the scratch in flight
    // multiplies, and under serve's concurrent sessions that raised
    // peak RSS by a third (docs/FEC.md).
    BlockScratch scratch;
    auto vopEntry = [&res](uint16_t vop) -> VopFecCounts & {
        const int v = vop == kNoVop ? -1 : static_cast<int>(vop);
        for (auto &e : res.stats.perVop) {
            if (e.vop == v)
                return e;
        }
        res.stats.perVop.push_back(VopFecCounts{v, 0, 0, 0});
        return res.stats.perVop.back();
    };

    for (const BlockInfo &b : lay.blocks) {
        if (b.wireBytes - b.avail > kMaxErasurePadBytes) {
            ++res.stats.framingErrors;
            continue;
        }
        ++res.stats.blocks;
        VopFecCounts &vc = vopEntry(b.vopIndex);
        ++vc.blocks;

        const BlockOutcome o = decodeBlock(framed, lay, dec, b, scratch);
        if (!o.crcOk) {
            ++res.stats.blocksUncorrectable;
            ++vc.uncorrectable;
        } else if (o.correctedBits > 0) {
            // The channel bits the decoder overrode, counted along the
            // survivor path (fec/viterbi.hh).
            res.stats.correctedBits += o.correctedBits;
            ++res.stats.blocksCorrected;
            ++vc.corrected;
        }

        // Damaged or not, the decoded bytes go downstream: the
        // tolerant decoder's concealment handles what FEC could not.
        res.stream.insert(res.stream.end(), scratch.bytes.begin(),
                          scratch.bytes.begin() + b.payloadBytes);
    }

    std::sort(res.stats.perVop.begin(), res.stats.perVop.end(),
              [](const VopFecCounts &a, const VopFecCounts &b) {
                  return a.vop < b.vop;
              });

    obs::counter("fec.blocks").add(res.stats.blocks);
    obs::counter("fec.blocks_corrected").add(res.stats.blocksCorrected);
    obs::counter("fec.blocks_uncorrectable")
        .add(res.stats.blocksUncorrectable);
    obs::counter("fec.framing_errors").add(res.stats.framingErrors);
    obs::counter("fec.corrected_bits").add(res.stats.correctedBits);
    for (const auto &e : res.stats.perVop) {
        if (e.vop < 0)
            continue;
        const std::string base = "fec.vop" + std::to_string(e.vop);
        obs::counter(base + ".corrected").add(e.corrected);
        obs::counter(base + ".uncorrectable").add(e.uncorrectable);
    }
    return res;
}

std::vector<uint8_t>
channelHard(std::vector<uint8_t> framed, const codec::FaultSpec &spec)
{
    const FrameLayout lay = parseLayout(framed);
    if (!lay.headerOk)
        return codec::injectFaults(std::move(framed), spec);

    // Gather the wire-symbol regions, damage them as one stream, and
    // scatter the result back: framing metadata rides the protected
    // transport, only coded symbols face the channel.
    std::vector<uint8_t> wire;
    for (const BlockInfo &b : lay.blocks)
        wire.insert(wire.end(), framed.begin() + b.wireOffset,
                    framed.begin() + b.wireOffset + b.avail);
    wire = codec::flipBits(std::move(wire), spec.ber, spec.seed);
    wire = codec::burstErrors(std::move(wire), spec.bursts,
                              spec.burstBytes, spec.seed + 1);
    size_t pos = 0;
    for (const BlockInfo &b : lay.blocks) {
        std::copy(wire.begin() + pos, wire.begin() + pos + b.avail,
                  framed.begin() + b.wireOffset);
        pos += b.avail;
    }

    // Truncation last (mirroring injectFaults), shielding the frame
    // header and the transport-protected cleartext prefix.
    return codec::truncateStream(std::move(framed),
                                 spec.truncateFraction,
                                 kHeaderSize + lay.cleartextLen);
}

std::vector<uint8_t>
channelSoft(std::vector<uint8_t> framed, double es_n0_db,
            uint64_t seed, double truncate_fraction)
{
    const FrameLayout lay = parseLayout(framed);
    if (!lay.headerOk || lay.form != WireForm::SoftBytes)
        return framed;

    const double esN0 = std::pow(10.0, es_n0_db / 10.0);
    const double sigma = 1.0 / std::sqrt(2.0 * esN0);
    Rng rng(seed);
    for (const BlockInfo &b : lay.blocks) {
        for (size_t i = 0; i < b.avail; ++i) {
            uint8_t &sym = framed[b.wireOffset + i];
            const double x = sym >= kSymErased ? 1.0 : -1.0;
            const double y = x + sigma * rng.gaussian();
            const double scaled = 64.0 * y;
            const int v = 128 + static_cast<int>(
                scaled >= 0.0 ? scaled + 0.5 : scaled - 0.5);
            sym = static_cast<uint8_t>(std::clamp(v, 0, 255));
        }
    }
    return codec::truncateStream(std::move(framed), truncate_fraction,
                                 kHeaderSize + lay.cleartextLen);
}

double
hardBerAtEsN0Db(double es_n0_db)
{
    // BPSK: Pb = Q(sqrt(2 Es/N0)) = erfc(sqrt(Es/N0)) / 2.
    return 0.5 * std::erfc(std::sqrt(std::pow(10.0, es_n0_db / 10.0)));
}

std::vector<uint8_t>
transmit(std::vector<uint8_t> stream, const ChannelSpec &ch,
         const FecConfig *wire)
{
    if (wire != nullptr && wire->decision == Decision::Soft && ch.esN0Db)
        return channelSoft(std::move(stream), *ch.esN0Db, ch.faults.seed,
                           ch.faults.truncateFraction);
    codec::FaultSpec faults = ch.faults;
    if (ch.esN0Db)
        faults.ber = hardBerAtEsN0Db(*ch.esN0Db);
    if (wire != nullptr)
        return channelHard(std::move(stream), faults);
    faults.protectPrefixBytes = codec::protectableHeaderBytes(stream);
    return codec::injectFaults(std::move(stream), faults);
}

} // namespace m4ps::fec
