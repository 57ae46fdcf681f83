/**
 * @file
 * Convolutional channel coding: the encoder half.
 *
 * The resilience subsystem (docs/RESILIENCE.md) *conceals* channel
 * damage; this module is the start of the other half - *protecting*
 * bits before they meet the channel.  A rate-1/2 binary convolutional
 * code with constraint length K emits two parity bits per input bit,
 * each a modulo-2 sum over the last K inputs selected by a generator
 * polynomial.  The default is the ubiquitous K=7 {171, 133} (octal)
 * code (Voyager, 802.11, DVB), decoded by fec::ViterbiDecoder.
 *
 * There is one encoder, convEncode(), which clocks a block through
 * the shift register one bit at a time.  tests/test_fec.cc keeps a
 * separate shift-register encoder as its reference and pins the two
 * equal.
 */

#ifndef M4PS_FEC_CONV_HH
#define M4PS_FEC_CONV_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace m4ps::fec
{

/**
 * A rate-1/2 binary convolutional code.  Generator polynomials are
 * written in the conventional MSB-equals-newest-input form, so the
 * literature's octal constants work verbatim: g1 = 0171, g2 = 0133.
 */
struct ConvCode
{
    int k = 7;         //!< Constraint length, in [3, 7].
    uint8_t g1 = 0171; //!< 1 + D + D^2 + D^3 + D^6.
    uint8_t g2 = 0133; //!< 1 + D^2 + D^3 + D^5 + D^6.

    ConvCode() = default;
    ConvCode(int k_, uint8_t g1_, uint8_t g2_)
        : k(k_), g1(g1_), g2(g2_)
    {}

    int numStates() const { return 1 << (k - 1); }

    /** Tail bits appended to drive the trellis back to state 0. */
    int tailBits() const { return k - 1; }

    /** k in range and both polynomials tap the full register span. */
    bool valid() const;
};

/**
 * The 2 coded bits for one trellis branch: previous state @p state
 * (the last k-1 inputs, most recent at the high bit) consuming input
 * bit @p u.  Bit 0 of the result is the g1 parity, bit 1 the g2
 * parity.
 */
uint8_t branchBits(const ConvCode &code, int state, int u);

/** Successor state of @p state on input bit @p u. */
int nextState(const ConvCode &code, int state, int u);

/**
 * Encode @p n bytes (bits MSB first) from state 0, then the k-1 zero
 * tail that returns the register to state 0.  @p coded is resized to
 * 2 * (8n + k-1) and holds one coded bit (0/1) per element, the g1
 * then the g2 parity of each input bit: the mother-code positions the
 * wire walk (fec/interleave.hh) reads.
 */
void convEncode(const ConvCode &code, const uint8_t *bytes, size_t n,
                std::vector<uint8_t> &coded);

} // namespace m4ps::fec

#endif // M4PS_FEC_CONV_HH
