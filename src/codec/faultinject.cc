#include "codec/faultinject.hh"

#include <algorithm>
#include <cmath>

#include "bitstream/startcode.hh"
#include "codec/streamtools.hh"
#include "support/logging.hh"
#include "support/random.hh"

namespace m4ps::codec
{

std::vector<uint8_t>
flipBits(std::vector<uint8_t> stream, double ber, uint64_t seed,
         size_t protect_prefix)
{
    if (ber <= 0 || stream.size() <= protect_prefix)
        return stream;
    Rng rng(seed);
    const uint64_t total_bits =
        (stream.size() - protect_prefix) * 8ull;
    // Geometric inter-error gaps: equivalent to a Bernoulli draw per
    // bit but O(errors) instead of O(bits).
    const double log1m = std::log1p(-std::min(ber, 0.999999));
    uint64_t pos = 0;
    while (true) {
        const double u = rng.uniformReal();
        const double gap = std::floor(std::log1p(-u) / log1m);
        if (gap >= static_cast<double>(total_bits - pos))
            break;
        pos += static_cast<uint64_t>(gap);
        const size_t byte = protect_prefix + (pos >> 3);
        stream[byte] ^= static_cast<uint8_t>(1u << (7 - (pos & 7)));
        if (++pos >= total_bits)
            break;
    }
    return stream;
}

std::vector<uint8_t>
burstErrors(std::vector<uint8_t> stream, int bursts, int burst_bytes,
            uint64_t seed, size_t protect_prefix)
{
    if (bursts <= 0 || burst_bytes <= 0 ||
        stream.size() <= protect_prefix)
        return stream;
    Rng rng(seed ^ 0xb5ull);
    const size_t span = stream.size() - protect_prefix;
    for (int b = 0; b < bursts; ++b) {
        const size_t start =
            protect_prefix +
            static_cast<size_t>(rng.uniformInt(
                0, static_cast<int64_t>(span) - 1));
        const size_t end =
            std::min(stream.size(),
                     start + static_cast<size_t>(burst_bytes));
        for (size_t i = start; i < end; ++i)
            stream[i] = static_cast<uint8_t>(rng.next());
    }
    return stream;
}

std::vector<uint8_t>
truncateStream(std::vector<uint8_t> stream, double fraction,
               size_t protect_prefix)
{
    if (fraction >= 1.0)
        return stream;
    const double f = std::max(fraction, 0.0);
    const size_t keep = std::max(
        protect_prefix,
        static_cast<size_t>(f * static_cast<double>(stream.size())));
    stream.resize(std::min(keep, stream.size()));
    return stream;
}

std::vector<uint8_t>
emulateStartcodes(std::vector<uint8_t> stream, int count, uint64_t seed,
                  size_t protect_prefix)
{
    if (count <= 0 || stream.size() < protect_prefix + 4)
        return stream;
    Rng rng(seed ^ 0x5cull);
    const size_t span = stream.size() - protect_prefix - 3;
    for (int c = 0; c < count; ++c) {
        const size_t at =
            protect_prefix +
            static_cast<size_t>(rng.uniformInt(
                0, static_cast<int64_t>(span) - 1));
        stream[at] = 0x00;
        stream[at + 1] = 0x00;
        stream[at + 2] = 0x01;
        // A random code byte: sometimes a VOP, sometimes garbage.
        stream[at + 3] = static_cast<uint8_t>(rng.next());
    }
    return stream;
}

std::vector<uint8_t>
injectFaults(std::vector<uint8_t> stream, const FaultSpec &spec)
{
    const size_t originalSize = stream.size();
    stream = flipBits(std::move(stream), spec.ber, spec.seed,
                      spec.protectPrefixBytes);
    stream = burstErrors(std::move(stream), spec.bursts,
                         spec.burstBytes, spec.seed,
                         spec.protectPrefixBytes);
    stream = emulateStartcodes(std::move(stream),
                               spec.startcodeEmulations, spec.seed,
                               spec.protectPrefixBytes);
    // Truncation runs last, by contract (see the header): its
    // fraction applies to the *original* length, and because the
    // in-place classes above never resize, running it last is what
    // makes that equivalence hold.
    M4PS_ASSERT(stream.size() == originalSize,
                "in-place fault classes must not resize the stream");
    stream = truncateStream(std::move(stream), spec.truncateFraction,
                            spec.protectPrefixBytes);
    return stream;
}

size_t
protectableHeaderBytes(std::span<const uint8_t> stream)
{
    for (const StreamSection &s : parseSections(stream)) {
        if (bits::isVopCode(s.code))
            return s.offset;
    }
    return stream.size();
}

} // namespace m4ps::codec
