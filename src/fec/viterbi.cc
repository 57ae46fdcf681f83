#include "fec/viterbi.hh"

#include "codec/kernels/kernels.hh"
#include "support/logging.hh"

namespace m4ps::fec
{

const char *
decisionName(Decision d)
{
    return d == Decision::Hard ? "hard" : "soft";
}

ViterbiDecoder::ViterbiDecoder(const ConvCode &code) : code_(code)
{
    M4PS_ASSERT(code.valid(), "invalid convolutional code (k=",
                code.k, ")");
    // Kernel state s is conv state reverse(s) over k-1 bits, so
    // butterfly j reads conv states 2 * reverse(j) (over k-2 bits)
    // and its odd neighbour.
    const int bits = code.k - 2;
    for (int j = 0; j < (1 << bits); ++j) {
        int rev = 0;
        for (int b = 0; b < bits; ++b)
            rev |= ((j >> b) & 1) << (bits - 1 - b);
        butterfly_[j] = branchBits(code, 2 * rev, 0);
    }
}

ViterbiMetrics
ViterbiDecoder::decodeInto(const uint8_t *symbols, size_t nInfoBits,
                           Decision decision, uint64_t *decisions,
                           uint8_t *out) const
{
    codec::kernels::AcsArgs acs;
    acs.k = code_.k;
    acs.butterfly = butterfly_;
    acs.symbols = symbols;
    acs.steps = steps(nInfoBits);
    acs.soft = decision == Decision::Soft;
    acs.decisions = decisions;
    ViterbiMetrics res;
    res.pathMetric = codec::kernels::active().viterbiAcs(acs);

    // Traceback from the flushed state 0, in the kernel's numbering:
    // a state's low bit is its newest input, i.e. the decoded bit,
    // and the step's decision bit picks the predecessor half.  Along
    // the way, each step's branch gives the coded pair the encoder
    // sent if the decoded bits are right.
    const int top = code_.k - 2;
    unsigned state = 0;
    unsigned byte = 0;
    uint64_t corrected = 0;
    for (size_t t = acs.steps; t-- > 0;) {
        const unsigned u = state & 1;
        const unsigned d =
            static_cast<unsigned>(decisions[t] >> state) & 1;
        const unsigned j = state >> 1;
        const unsigned coded = butterfly_[j] ^ (3 * (d ^ u));
        for (int i = 0; i < 2; ++i) {
            const uint8_t r = symbols[2 * t + i];
            corrected += (r != kSymErased) &
                         ((r > kSymErased) != ((coded >> i) & 1));
        }
        state = j | (d << top);
        if (t < nInfoBits) {
            byte |= u << (7 - (t & 7));
            if ((t & 7) == 0) {
                out[t >> 3] = static_cast<uint8_t>(byte);
                byte = 0;
            }
        }
    }
    res.correctedBits = corrected;
    return res;
}

ViterbiResult
ViterbiDecoder::decode(const uint8_t *symbols, size_t nInfoBits,
                       Decision decision) const
{
    std::vector<uint64_t> decisions(steps(nInfoBits));
    std::vector<uint8_t> bytes((nInfoBits + 7) / 8);
    ViterbiResult res;
    res.pathMetric = decodeInto(symbols, nInfoBits, decision,
                                decisions.data(), bytes.data())
                         .pathMetric;
    res.bits.resize(nInfoBits);
    for (size_t i = 0; i < nInfoBits; ++i)
        res.bits[i] = (bytes[i / 8] >> (7 - i % 8)) & 1;
    return res;
}

} // namespace m4ps::fec
