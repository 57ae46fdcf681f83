/**
 * @file
 * Elementary-stream manipulation without re-encoding.
 *
 * Scalable and object-based streams exist so that receivers and
 * network elements can adapt content by *dropping sections*: a
 * bandwidth-constrained path forwards only the base layer, a simple
 * terminal skips foreground objects.  Because every section of the
 * stream is startcode-delimited and byte-aligned, these operations
 * are pure demux/remux - exactly how MPEG-4 transport works.
 */

#ifndef M4PS_CODEC_STREAMTOOLS_HH
#define M4PS_CODEC_STREAMTOOLS_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace m4ps::codec
{

/** One startcode-delimited section of an elementary stream. */
struct StreamSection
{
    uint8_t code = 0;   //!< Startcode byte (0x00..0xff).
    size_t offset = 0;  //!< Byte offset of the 0x000001 prefix.
    size_t size = 0;    //!< Bytes up to the next startcode / end.

    /** VOP sections carry ids parsed from their header. */
    int voId = -1;
    int volId = -1;
};

/** Parse the startcode-delimited section structure of a stream. */
std::vector<StreamSection> parseSections(
    std::span<const uint8_t> stream);

/**
 * Keep only VOPs and VOL headers of layers <= @p max_vol_id,
 * rewriting the per-VO layer counts.  extract with @p max_vol_id = 0
 * turns a spatially scalable stream into a decodable base-layer
 * stream (at base resolution).
 */
std::vector<uint8_t> extractLayers(const std::vector<uint8_t> &stream,
                                   int max_vol_id);

/** Convenience: base layer only. */
inline std::vector<uint8_t>
extractBaseLayer(const std::vector<uint8_t> &stream)
{
    return extractLayers(stream, 0);
}

/**
 * Keep only the first @p num_vos visual objects (a receiver that
 * ignores trailing foreground objects).  The retained VOs keep
 * their ids, so @p num_vos must be a prefix of the original set.
 */
std::vector<uint8_t> extractVoPrefix(const std::vector<uint8_t> &stream,
                                     int num_vos);

} // namespace m4ps::codec

#endif // M4PS_CODEC_STREAMTOOLS_HH
