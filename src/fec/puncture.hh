/**
 * @file
 * Puncturing: rate adaptation on top of the rate-1/2 mother code.
 *
 * Deleting coded bits in a fixed periodic pattern raises the code
 * rate without a new encoder or decoder: the receiver re-inserts the
 * deleted positions as *erasures* (fec/viterbi.hh's kSymErased) and
 * runs the unmodified rate-1/2 Viterbi trellis over them.  The
 * patterns here are the standard ones (DVB-S / 802.11 family):
 *
 *     rate 2/3: period 4 coded bits, keep 1101  (puncture 2nd g2)
 *     rate 3/4: period 6 coded bits, keep 110110
 *
 * written over the coded-bit stream g1 g2 g1 g2 ..., one period per
 * 2 / 3 information bits.  Rate 1/2 is the identity pattern.  Which
 * positions survive, and where each lands on the wire, is walked by
 * forEachWireRun() (fec/interleave.hh) in both directions.
 */

#ifndef M4PS_FEC_PUNCTURE_HH
#define M4PS_FEC_PUNCTURE_HH

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace m4ps::fec
{

/** Supported code rates after puncturing the rate-1/2 mother code. */
enum class Rate : uint8_t
{
    R1_2 = 0,
    R2_3 = 1,
    R3_4 = 2,
};

inline constexpr int kNumRates = 3;

/** "1/2", "2/3", "3/4" - also the CLI spelling. */
const char *rateName(Rate r);

/** Parse a CLI spelling; returns false on unknown input. */
bool parseRate(std::string_view text, Rate &out);

/** Periodic keep pattern over the coded-bit stream. */
struct PuncturePattern
{
    int period;          //!< Pattern length in coded bits.
    const uint8_t *keep; //!< keep[i] != 0: bit i of a period survives.
    int kept;            //!< Number of surviving bits per period.
};

const PuncturePattern &puncturePattern(Rate r);

/** Surviving bit count after puncturing @p coded_bits positions. */
size_t puncturedSize(size_t coded_bits, Rate r);

} // namespace m4ps::fec

#endif // M4PS_FEC_PUNCTURE_HH
