#include "codec/streamtools.hh"

#include "bitstream/bitstream.hh"
#include "bitstream/expgolomb.hh"
#include "bitstream/startcode.hh"
#include "codec/vop.hh"
#include "support/logging.hh"

namespace m4ps::codec
{

namespace
{

/**
 * Parse and sanity-check a candidate VOP header at @p payload.
 * Our entropy coding does not guarantee startcode-emulation
 * freedom, so a blind byte scan can hit a false 0x000001 inside a
 * payload; requiring a plausible header (~40 constrained bits)
 * makes a false accept vanishingly unlikely.
 */
bool
plausibleVopHeader(const uint8_t *payload, size_t size, int &vo_id,
                   int &vol_id)
{
    bits::BitReader br(payload, size);
    const uint32_t type = br.getBits(2);
    vo_id = static_cast<int>(bits::getUe(br));
    vol_id = static_cast<int>(bits::getUe(br));
    const uint32_t ts = bits::getUe(br);
    const uint32_t qp = br.getBits(5);
    const uint32_t wx = bits::getUe(br);
    const uint32_t wy = bits::getUe(br);
    const uint32_t ww = bits::getUe(br);
    const uint32_t wh = bits::getUe(br);
    return !br.overrun() && type <= 2 && vo_id < 32 && vol_id < 16 &&
           ts < (1u << 20) && qp >= 1 && qp <= 31 && wx < 1024 &&
           wy < 1024 && ww >= 1 && ww < 1024 && wh >= 1 && wh < 1024;
}

} // namespace

std::vector<StreamSection>
parseSections(std::span<const uint8_t> stream)
{
    std::vector<StreamSection> sections;
    bool seen_vop = false;
    // Byte-scan for the 0x000001 prefix (all sections are aligned),
    // validating each candidate in context.
    size_t i = 0;
    while (i + 3 < stream.size()) {
        if (!(stream[i] == 0 && stream[i + 1] == 0 &&
              stream[i + 2] == 1)) {
            ++i;
            continue;
        }
        StreamSection s;
        s.code = stream[i + 3];
        s.offset = i;

        bool accept = false;
        if (bits::isVopCode(s.code)) {
            // Resilient VOPs (0xb7) append a data-partitioning flag,
            // but the prefix fields checked here are identical.
            accept = plausibleVopHeader(stream.data() + i + 4,
                                        stream.size() - i - 4,
                                        s.voId, s.volId);
            seen_vop = seen_vop || accept;
        } else if (s.code ==
                       static_cast<uint8_t>(
                           bits::StartCode::VisualObjectSequenceEnd)) {
            accept = true;
        } else if (bits::isVoCode(s.code) || bits::isVolCode(s.code) ||
                   s.code == static_cast<uint8_t>(
                                 bits::StartCode::
                                     VisualObjectSequence)) {
            // Header sections only appear before the first VOP.
            accept = !seen_vop;
        }
        if (!accept) {
            ++i;
            continue;
        }
        if (!sections.empty())
            sections.back().size = s.offset - sections.back().offset;
        sections.push_back(s);
        i += 4;
    }
    if (!sections.empty())
        sections.back().size = stream.size() - sections.back().offset;
    return sections;
}

namespace
{

/**
 * Rebuild a stream keeping VOL/VOP sections accepted by the
 * predicates; the VOS and VO headers are re-emitted with adjusted
 * counts.
 */
template <typename KeepVo, typename KeepVol>
std::vector<uint8_t>
filterStream(const std::vector<uint8_t> &stream, int new_num_vos,
             int new_layers, KeepVo keep_vo, KeepVol keep_vol)
{
    const auto sections = parseSections(stream);
    M4PS_ASSERT(!sections.empty() &&
                sections.front().code ==
                    static_cast<uint8_t>(
                        bits::StartCode::VisualObjectSequence),
                "not an m4ps elementary stream");

    bits::BitWriter out;
    bits::putStartCode(out, static_cast<uint8_t>(
        bits::StartCode::VisualObjectSequence));
    bits::putUe(out, static_cast<uint32_t>(new_num_vos));

    int current_vo = -1;
    for (const StreamSection &s : sections) {
        if (s.code == static_cast<uint8_t>(
                          bits::StartCode::VisualObjectSequence) ||
            s.code == static_cast<uint8_t>(
                          bits::StartCode::VisualObjectSequenceEnd)) {
            continue; // re-emitted explicitly
        }
        if (bits::isVoCode(s.code)) {
            current_vo = s.code;
            if (!keep_vo(current_vo))
                continue;
            bits::putVoStartCode(out, current_vo);
            bits::putUe(out, static_cast<uint32_t>(new_layers));
            continue;
        }
        if (bits::isVolCode(s.code)) {
            const int vol_id =
                s.code - static_cast<uint8_t>(
                             bits::StartCode::VideoObjectLayer);
            if (!keep_vo(current_vo) || !keep_vol(vol_id))
                continue;
        } else if (bits::isVopCode(s.code)) {
            if (!keep_vo(s.voId) || !keep_vol(s.volId))
                continue;
        }
        // Copy the section bytes verbatim (it is self-contained).
        out.byteAlign();
        for (size_t i = 0; i < s.size; ++i)
            out.putBits(stream[s.offset + i], 8);
    }

    bits::putStartCode(out, static_cast<uint8_t>(
        bits::StartCode::VisualObjectSequenceEnd));
    return out.take();
}

/** Count VOs / layers from the original header sections. */
void
streamCounts(const std::vector<uint8_t> &stream, int &num_vos,
             int &layers)
{
    bits::BitReader br(stream);
    auto code = bits::nextStartCode(br);
    M4PS_ASSERT(code && *code == static_cast<uint8_t>(
                            bits::StartCode::VisualObjectSequence),
                "not an m4ps elementary stream");
    num_vos = static_cast<int>(bits::getUe(br));
    code = bits::nextStartCode(br);
    M4PS_ASSERT(code && bits::isVoCode(*code), "missing VO header");
    layers = static_cast<int>(bits::getUe(br));
}

} // namespace

std::vector<uint8_t>
extractLayers(const std::vector<uint8_t> &stream, int max_vol_id)
{
    int num_vos = 0, layers = 0;
    streamCounts(stream, num_vos, layers);
    const int new_layers = std::min(layers, max_vol_id + 1);
    M4PS_ASSERT(new_layers >= 1, "cannot drop every layer");
    return filterStream(
        stream, num_vos, new_layers, [](int) { return true; },
        [&](int vol) { return vol <= max_vol_id; });
}

std::vector<uint8_t>
extractVoPrefix(const std::vector<uint8_t> &stream, int num_vos)
{
    int orig_vos = 0, layers = 0;
    streamCounts(stream, orig_vos, layers);
    M4PS_ASSERT(num_vos >= 1 && num_vos <= orig_vos,
                "VO prefix out of range: ", num_vos, " of ", orig_vos);
    return filterStream(
        stream, num_vos, layers,
        [&](int vo) { return vo >= 0 && vo < num_vos; },
        [](int) { return true; });
}

} // namespace m4ps::codec
