/**
 * @file
 * Forward-error-correction subsystem: the convolutional encoder must
 * agree with a bit-serial reference and with the published K=7
 * {171, 133} code, the Viterbi decoder must be exact on a clean
 * channel and actually correct errors on a dirty one, the wire walk
 * must be the lossless permutation puncturing and interleaving
 * promise, and the framing layer must round-trip an elementary stream
 * byte-identically - then degrade into the concealment path, never an
 * exception, when the channel wins.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "bitstream/startcode.hh"
#include "codec/decoder.hh"
#include "codec/kernels/kernels.hh"
#include "codec/faultinject.hh"
#include "codec/streamtools.hh"
#include "core/runner.hh"
#include "core/workload.hh"
#include "fec/conv.hh"
#include "fec/frame.hh"
#include "fec/interleave.hh"
#include "fec/puncture.hh"
#include "fec/viterbi.hh"
#include "support/obs/obs.hh"
#include "support/random.hh"
#include "support/serialize.hh"

namespace m4ps::fec
{
namespace
{

namespace kn = codec::kernels;

std::vector<uint8_t>
randomBytes(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> out(n);
    for (auto &b : out)
        b = static_cast<uint8_t>(rng.next());
    return out;
}

/** Offset-LLR symbols for a clean hard-decision channel. */
std::vector<uint8_t>
bitsToSymbols(const std::vector<uint8_t> &bits)
{
    std::vector<uint8_t> syms(bits.size());
    for (size_t i = 0; i < bits.size(); ++i)
        syms[i] = bits[i] ? kSymOne : kSymZero;
    return syms;
}

/**
 * Bit-serial reference encoder, the executable specification of the
 * code: every input bit (value 0/1) appends its g1 then g2 parity to
 * the output, and flush() appends the k-1 zero tail that returns the
 * register to state 0.
 */
class ShiftRegisterEncoder
{
  public:
    explicit ShiftRegisterEncoder(const ConvCode &code) : code_(code) {}

    void reset() { state_ = 0; }

    void encodeBit(int u, std::vector<uint8_t> &out)
    {
        const uint8_t b = branchBits(code_, state_, u);
        out.push_back(b & 1);
        out.push_back((b >> 1) & 1);
        state_ = nextState(code_, state_, u);
    }

    void encodeBits(const uint8_t *bits, size_t n,
                    std::vector<uint8_t> &out)
    {
        for (size_t i = 0; i < n; ++i)
            encodeBit(bits[i] & 1, out);
    }

    /** Whole bytes, MSB first, as the framing layer orders bits. */
    void encodeBytes(const uint8_t *bytes, size_t n,
                     std::vector<uint8_t> &out)
    {
        for (size_t i = 0; i < n; ++i) {
            for (int bit = 7; bit >= 0; --bit)
                encodeBit((bytes[i] >> bit) & 1, out);
        }
    }

    void flush(std::vector<uint8_t> &out)
    {
        for (int i = 0; i < code_.tailBits(); ++i)
            encodeBit(0, out);
    }

    int state() const { return state_; }

  private:
    ConvCode code_;
    int state_ = 0;
};

/** convEncode() into a fresh vector. */
std::vector<uint8_t>
encoded(const ConvCode &code, const std::vector<uint8_t> &bytes)
{
    std::vector<uint8_t> coded;
    convEncode(code, bytes.data(), bytes.size(), coded);
    return coded;
}

/** @p coded (any symbol type) punctured at @p r and interleaved at
 *  @p depth, through the wire walk. */
template <typename T>
std::vector<T>
wireOf(const std::vector<T> &coded, Rate r, int depth)
{
    std::vector<T> wire(puncturedSize(coded.size(), r));
    forEachWireRun(wire.size(), depth, r,
                   [&](size_t w, size_t m, size_t n) {
                       std::copy_n(coded.begin() + m, n, wire.begin() + w);
                   });
    return wire;
}

/**
 * The inverse through the same walk: @p wire back at its positions
 * among @p coded_bits mother-code symbols, @p erased at punctured
 * positions and at those of wire symbols past the end of @p wire.
 */
template <typename T>
std::vector<T>
motherOf(const std::vector<T> &wire, size_t coded_bits, Rate r, int depth,
         T erased)
{
    std::vector<T> full(coded_bits, erased);
    forEachWireRun(puncturedSize(coded_bits, r), depth, r,
                   [&](size_t w, size_t m, size_t n) {
                       for (size_t i = 0; i < n && w + i < wire.size(); ++i)
                           full[m + i] = wire[w + i];
                   });
    return full;
}

core::Workload
resyncWorkload(int frames = 4, bool dp = false)
{
    core::Workload w = core::paperWorkload(64, 64, 1, 1);
    w.frames = frames;
    w.gop = {6, 2};
    w.targetBps = 1e6;
    w.resyncInterval = 2;
    w.dataPartitioning = dp;
    return w;
}

// ------------------------------------------------------------------
// Convolutional encoder.
// ------------------------------------------------------------------

TEST(Conv, CodeValidity)
{
    EXPECT_TRUE(ConvCode().valid());
    EXPECT_TRUE(ConvCode(3, 07, 05).valid());
    EXPECT_FALSE(ConvCode(2, 03, 01).valid());  // k too small
    EXPECT_FALSE(ConvCode(8, 0171, 0133).valid());  // k too large
    EXPECT_FALSE(ConvCode(7, 0171, 0171).valid());  // g1 == g2
    EXPECT_FALSE(ConvCode(7, 0170, 0133).valid());  // g1 drops D^6
    EXPECT_FALSE(ConvCode(7, 0071, 0133).valid());  // g1 drops D^0
}

TEST(Conv, ImpulseResponseMatchesPublishedPolynomials)
{
    // Feeding a single 1 then zeros reads the generator taps back
    // out, newest first: g1 = 1111001, g2 = 1011011 (171, 133 octal).
    const ConvCode code;
    ShiftRegisterEncoder enc(code);
    std::vector<uint8_t> out;
    enc.encodeBit(1, out);
    for (int i = 0; i < 6; ++i)
        enc.encodeBit(0, out);
    const uint8_t g1taps[7] = {1, 1, 1, 1, 0, 0, 1};
    const uint8_t g2taps[7] = {1, 0, 1, 1, 0, 1, 1};
    ASSERT_EQ(out.size(), 14u);
    for (int i = 0; i < 7; ++i) {
        EXPECT_EQ(out[2 * i], g1taps[i]) << "g1 tap " << i;
        EXPECT_EQ(out[2 * i + 1], g2taps[i]) << "g2 tap " << i;
    }
    EXPECT_EQ(enc.state(), 0) << "impulse has left the register";
}

TEST(Conv, EncoderMatchesShiftRegister)
{
    // Every code the frame tests protect with, from an empty block up,
    // into one buffer reused the way protect() reuses it: a long block
    // first, then shorter ones.
    std::vector<uint8_t> got;
    for (const ConvCode &code :
         {ConvCode(), ConvCode(5, 023, 035), ConvCode(3, 07, 05)}) {
        for (size_t n : {257u, 0u, 1u, 9u, 64u}) {
            const auto payload = randomBytes(n, 11 + n);
            ShiftRegisterEncoder ref(code);
            std::vector<uint8_t> want;
            ref.encodeBytes(payload.data(), n, want);
            ref.flush(want);
            EXPECT_EQ(ref.state(), 0);
            convEncode(code, payload.data(), n, got);
            EXPECT_EQ(got, want) << "k=" << code.k << " n=" << n;
        }
    }
}

TEST(Conv, FlushTerminatesFromEveryState)
{
    const ConvCode code;
    for (int s = 0; s < code.numStates(); s += 7) {
        ShiftRegisterEncoder enc(code);
        // Drive into state s by feeding its bits oldest-first.
        for (int i = 0; i < code.k - 1; ++i) {
            std::vector<uint8_t> sink;
            enc.encodeBit((s >> i) & 1, sink);
        }
        ASSERT_EQ(enc.state(), s);
        std::vector<uint8_t> sink;
        enc.flush(sink);
        EXPECT_EQ(enc.state(), 0) << "from state " << s;
    }
}

// ------------------------------------------------------------------
// Viterbi decoder.
// ------------------------------------------------------------------

TEST(Viterbi, CleanChannelIsExactHardAndSoft)
{
    const ConvCode code;
    const ViterbiDecoder dec(code);
    const auto payload = randomBytes(96, 23);
    const auto coded = encoded(code, payload);
    const auto syms = bitsToSymbols(coded);
    const size_t infoBits = payload.size() * 8;

    for (Decision d : {Decision::Hard, Decision::Soft}) {
        const ViterbiResult res =
            dec.decode(syms.data(), infoBits, d);
        ASSERT_EQ(res.bits.size(), infoBits) << decisionName(d);
        EXPECT_EQ(res.pathMetric, 0u) << decisionName(d);
        for (size_t i = 0; i < infoBits; ++i) {
            ASSERT_EQ(res.bits[i],
                      (payload[i / 8] >> (7 - i % 8)) & 1)
                << decisionName(d) << " bit " << i;
        }
    }
}

TEST(Viterbi, CorrectsSpacedHardErrors)
{
    // Sparse errors, farther apart than the traceback memory of the
    // K=7 code, must all be corrected at rate 1/2.
    const ConvCode code;
    const ViterbiDecoder dec(code);
    const auto payload = randomBytes(128, 31);
    const auto coded = encoded(code, payload);
    auto syms = bitsToSymbols(coded);
    int flipped = 0;
    for (size_t i = 40; i < syms.size(); i += 97) {
        syms[i] = syms[i] == kSymOne ? kSymZero : kSymOne;
        ++flipped;
    }
    ASSERT_GT(flipped, 10);

    const ViterbiResult res =
        dec.decode(syms.data(), payload.size() * 8, Decision::Hard);
    // Hard metric is 1 per mismatched symbol; isolated flips cost
    // exactly themselves on the true path.
    EXPECT_EQ(res.pathMetric, static_cast<uint64_t>(flipped));
    for (size_t i = 0; i < res.bits.size(); ++i) {
        ASSERT_EQ(res.bits[i], (payload[i / 8] >> (7 - i % 8)) & 1)
            << "bit " << i;
    }
}

TEST(Viterbi, SoftDecisionUsesConfidence)
{
    // A burst of three *low-confidence* wrong symbols flanked by
    // confident right ones: soft decoding recovers the payload where
    // the symbol-by-symbol hard quantization is at a disadvantage.
    const ConvCode code;
    const ViterbiDecoder dec(code);
    const auto payload = randomBytes(64, 47);
    const auto coded = encoded(code, payload);

    std::vector<uint8_t> syms(coded.size());
    for (size_t i = 0; i < coded.size(); ++i)
        syms[i] = coded[i] ? 230 : 25;  // confident but not saturated
    for (size_t i = 100; i < 103; ++i)
        syms[i] = coded[i] ? 120 : 136; // barely on the wrong side

    const ViterbiResult res =
        dec.decode(syms.data(), payload.size() * 8, Decision::Soft);
    for (size_t i = 0; i < res.bits.size(); ++i) {
        ASSERT_EQ(res.bits[i], (payload[i / 8] >> (7 - i % 8)) & 1)
            << "bit " << i;
    }
}

TEST(Viterbi, ErasuresDecodeAtEveryRate)
{
    // Depunctured positions arrive as kSymErased; the decoder must
    // reconstruct the payload from the surviving symbols alone.
    const ConvCode code;
    const ViterbiDecoder dec(code);
    const auto payload = randomBytes(80, 59);
    const auto symbols = bitsToSymbols(encoded(code, payload));

    for (Rate r : {Rate::R1_2, Rate::R2_3, Rate::R3_4}) {
        const auto syms = motherOf(wireOf(symbols, r, 1), symbols.size(),
                                   r, 1, kSymErased);
        for (Decision d : {Decision::Hard, Decision::Soft}) {
            const ViterbiResult res =
                dec.decode(syms.data(), payload.size() * 8, d);
            for (size_t i = 0; i < res.bits.size(); ++i) {
                ASSERT_EQ(res.bits[i],
                          (payload[i / 8] >> (7 - i % 8)) & 1)
                    << rateName(r) << " " << decisionName(d)
                    << " bit " << i;
            }
        }
    }
}

// ------------------------------------------------------------------
// The butterfly decoder against the decoder it replaced.
// ------------------------------------------------------------------

/**
 * The Viterbi decoder before the butterfly kernel, verbatim: 32-bit
 * metrics, one branchy compare per state, renormalized every 4096
 * steps.  The reference the dispatched decoder must match bit for
 * bit, metric included, on every backend.
 */
class ReferenceViterbi
{
  public:
    explicit ReferenceViterbi(const ConvCode &code) : code_(code)
    {
        const int states = code.numStates();
        branch_.resize(static_cast<size_t>(states) * 2);
        for (int s = 0; s < states; ++s) {
            branch_[s * 2 + 0] = branchBits(code, s, 0);
            branch_[s * 2 + 1] = branchBits(code, s, 1);
        }
    }

    ViterbiResult decode(const uint8_t *symbols, size_t nInfoBits,
                         Decision decision) const;

  private:
    static uint32_t softCost(int e, uint8_t r)
    {
        return e ? static_cast<uint32_t>(255 - r)
                 : static_cast<uint32_t>(r);
    }

    static uint32_t hardCost(int e, uint8_t r)
    {
        if (r == kSymErased)
            return 0;
        return (r > kSymErased ? 1 : 0) != e ? 1u : 0u;
    }

    static constexpr uint32_t kUnreachable = 1u << 29;

    ConvCode code_;
    std::vector<uint8_t> branch_;
};

ViterbiResult
ReferenceViterbi::decode(const uint8_t *symbols, size_t nInfoBits,
                         Decision decision) const
{
    const int k = code_.k;
    const int states = code_.numStates();
    const int halfMask = (1 << (k - 2)) - 1;
    const size_t steps = nInfoBits + static_cast<size_t>(
                                         code_.tailBits());

    // Path metrics, swapped per step; state 0 is the known start.
    std::vector<uint32_t> cur(static_cast<size_t>(states),
                              kUnreachable);
    std::vector<uint32_t> nxt(static_cast<size_t>(states));
    cur[0] = 0;
    uint64_t normalized = 0;

    // One decision word per step: bit ns records which predecessor
    // (by its low bit, the oldest register bit) won state ns.
    std::vector<uint64_t> decisions(steps, 0);

    for (size_t t = 0; t < steps; ++t) {
        const uint8_t r0 = symbols[2 * t];
        const uint8_t r1 = symbols[2 * t + 1];

        // Branch cost per expected pair value (4 possibilities).
        uint32_t pairCost[4];
        for (int e = 0; e < 4; ++e) {
            const int e0 = e & 1, e1 = (e >> 1) & 1;
            pairCost[e] = decision == Decision::Soft
                              ? softCost(e0, r0) + softCost(e1, r1)
                              : hardCost(e0, r0) + hardCost(e1, r1);
        }

        uint64_t word = 0;
        for (int ns = 0; ns < states; ++ns) {
            const int u = ns >> (k - 2);
            const int base = (ns & halfMask) << 1;
            const int s0 = base, s1 = base | 1;
            const uint32_t m0 =
                cur[s0] + pairCost[branch_[s0 * 2 + u]];
            const uint32_t m1 =
                cur[s1] + pairCost[branch_[s1 * 2 + u]];
            if (m1 < m0) {
                nxt[ns] = m1;
                word |= 1ull << ns;
            } else {
                nxt[ns] = m0;
            }
        }
        decisions[t] = word;
        cur.swap(nxt);

        // Keep metrics far from overflow (max step increment 510).
        if ((t & 0xfff) == 0xfff) {
            const uint32_t lo =
                *std::min_element(cur.begin(), cur.end());
            if (lo > 0) {
                for (auto &m : cur)
                    m -= lo;
                normalized += lo;
            }
        }
    }

    // Traceback from the flushed state 0.  Each state carries its
    // newest register bit at the top, which *is* the decoded input.
    ViterbiResult res;
    res.pathMetric = normalized + cur[0];
    std::vector<uint8_t> all(steps);
    int state = 0;
    for (size_t t = steps; t-- > 0;) {
        all[t] = static_cast<uint8_t>(state >> (k - 2));
        const int lsb =
            static_cast<int>((decisions[t] >> state) & 1);
        state = ((state & halfMask) << 1) | lsb;
    }
    all.resize(nInfoBits);
    res.bits = std::move(all);
    return res;
}

/** Every backend this binary has and this host runs. */
std::vector<kn::Isa>
runnableBackends()
{
    std::vector<kn::Isa> out;
    for (kn::Isa isa : kn::compiledIsas()) {
        if (kn::hostSupports(isa))
            out.push_back(isa);
    }
    return out;
}

/** Restores the active kernel backend when a test returns. */
class RestoreKernels
{
  public:
    RestoreKernels() : prev_(kn::activeIsa()) {}
    ~RestoreKernels() { kn::select(kn::isaName(prev_)); }

  private:
    kn::Isa prev_;
};

/** Received symbols for a Viterbi property case. */
enum class Channel
{
    Awgn,          //!< Soft symbols at an Es/N0.
    AwgnErasures,  //!< The same, with runs of erasures.
    Exact128,      //!< AWGN with scattered symbols exactly at 128.
    AllErased,     //!< Every symbol 128: every comparison ties.
    Alternating,   //!< 0, 255, 0, 255, ...: maximum metric spread.
    RandomExtreme, //!< Independent 0/255 symbols.
};

std::vector<uint8_t>
channelSymbols(const std::vector<uint8_t> &coded, Channel ch,
               double esN0Db, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> syms(coded.size());
    const double sigma =
        1.0 / std::sqrt(2.0 * std::pow(10.0, esN0Db / 10.0));
    for (size_t i = 0; i < coded.size(); ++i) {
        switch (ch) {
          case Channel::AllErased:
            syms[i] = kSymErased;
            break;
          case Channel::Alternating:
            syms[i] = i % 2 ? kSymOne : kSymZero;
            break;
          case Channel::RandomExtreme:
            syms[i] = rng.next() & 1 ? kSymOne : kSymZero;
            break;
          default: {
            const double y =
                (coded[i] ? 1.0 : -1.0) + sigma * rng.gaussian();
            const long v = 128 + std::lround(64.0 * y);
            syms[i] = static_cast<uint8_t>(std::clamp(v, 0l, 255l));
          }
        }
    }
    if (ch == Channel::AwgnErasures) {
        for (size_t run = 0; run < coded.size() / 40 + 1; ++run) {
            const size_t at = static_cast<size_t>(
                rng.uniformInt(0, static_cast<int64_t>(coded.size())));
            const size_t len =
                static_cast<size_t>(rng.uniformInt(1, 24));
            for (size_t i = at; i < std::min(coded.size(), at + len);
                 ++i)
                syms[i] = kSymErased;
        }
    }
    if (ch == Channel::Exact128) {
        for (size_t i = 0; i < coded.size(); i += 1 + rng.next() % 7)
            syms[i] = kSymErased;
    }
    return syms;
}

/** Coded bits (0/1) of @p n random information bits plus the tail. */
std::vector<uint8_t>
randomCodeword(const ConvCode &code, size_t n, uint64_t seed)
{
    Rng rng(seed);
    ShiftRegisterEncoder enc(code);
    std::vector<uint8_t> coded;
    for (size_t i = 0; i < n; ++i)
        enc.encodeBit(static_cast<int>(rng.next() & 1), coded);
    enc.flush(coded);
    return coded;
}

/**
 * Decodes @p syms on every runnable backend and checks bits and path
 * metric against the reference, and the corrected-bit count against
 * re-encoding the decoded bits and comparing hard decisions.
 */
void
expectMatchesReference(const ConvCode &code,
                       const std::vector<uint8_t> &syms, size_t n,
                       Decision d, const std::string &what)
{
    const ViterbiResult want =
        ReferenceViterbi(code).decode(syms.data(), n, d);

    ShiftRegisterEncoder reenc(code);
    std::vector<uint8_t> clean;
    reenc.encodeBits(want.bits.data(), want.bits.size(), clean);
    reenc.flush(clean);
    uint64_t wantCorrected = 0;
    for (size_t i = 0; i < clean.size(); ++i) {
        if (syms[i] != kSymErased &&
            (syms[i] > kSymErased ? 1 : 0) != clean[i])
            ++wantCorrected;
    }

    const ViterbiDecoder dec(code);
    std::vector<uint64_t> decisions(dec.steps(n));
    std::vector<uint8_t> bytes((n + 7) / 8);
    for (kn::Isa isa : runnableBackends()) {
        ASSERT_EQ(kn::select(kn::isaName(isa)), isa);
        const std::string where = what + " " + decisionName(d) + " on " +
                                  kn::isaName(isa);
        const ViterbiResult got = dec.decode(syms.data(), n, d);
        ASSERT_EQ(got.bits, want.bits) << where;
        ASSERT_EQ(got.pathMetric, want.pathMetric) << where;
        const ViterbiMetrics m = dec.decodeInto(
            syms.data(), n, d, decisions.data(), bytes.data());
        ASSERT_EQ(m.pathMetric, want.pathMetric) << where;
        ASSERT_EQ(m.correctedBits, wantCorrected) << where;
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ((bytes[i / 8] >> (7 - i % 8)) & 1, want.bits[i])
                << where << " packed bit " << i;
        if (n % 8 != 0) {
            ASSERT_EQ(bytes.back() & (0xff >> (n % 8)), 0) << where;
        }
    }
}

TEST(Viterbi, MatchesReferenceForEveryValidCode)
{
    RestoreKernels restore;
    uint64_t seed = 1;
    int codes = 0;
    for (int k = 3; k <= 7; ++k) {
        for (int g1 = 1; g1 < (1 << k); ++g1) {
            for (int g2 = 1; g2 < (1 << k); ++g2) {
                const ConvCode code(k, static_cast<uint8_t>(g1),
                                    static_cast<uint8_t>(g2));
                if (!code.valid())
                    continue;
                ++codes;
                const size_t n = static_cast<size_t>(seed * 37 % 97);
                const auto coded = randomCodeword(code, n, seed);
                const double db = -2.0 + static_cast<double>(seed % 13);
                const auto syms = channelSymbols(
                    coded,
                    seed % 3 == 0 ? Channel::AwgnErasures : Channel::Awgn,
                    db, seed + 1000);
                const std::string what = "k=" + std::to_string(k) +
                                         " g1=" + std::to_string(g1) +
                                         " g2=" + std::to_string(g2);
                for (Decision d : {Decision::Hard, Decision::Soft})
                    expectMatchesReference(code, syms, n, d, what);
                ++seed;
            }
        }
    }
    EXPECT_EQ(codes, 2 + 12 + 56 + 240 + 992);
}

TEST(Viterbi, MatchesReferenceAcrossChannelsAndLengths)
{
    RestoreKernels restore;
    const ConvCode codes[] = {ConvCode(), ConvCode(3, 07, 05),
                              ConvCode(5, 023, 035)};
    const Channel channels[] = {
        Channel::Awgn,      Channel::AwgnErasures,
        Channel::Exact128,  Channel::AllErased,
        Channel::Alternating, Channel::RandomExtreme};
    // Both sides of the kernels' 32-step renormalization and of the
    // reference's 4096-step one, twice over.
    const size_t lengths[] = {0,    1,    2,    25,   26,   27,
                              57,   58,   64,   4089, 4090, 4091,
                              4096, 8185, 8186, 8187, 8192, 8500};
    uint64_t seed = 7;
    for (const ConvCode &code : codes) {
        for (size_t n : lengths) {
            for (Channel ch : channels) {
                const double db = -2.0 + static_cast<double>(seed % 13);
                const auto syms = channelSymbols(
                    randomCodeword(code, n, seed), ch, db, seed + 1);
                const std::string what =
                    "k=" + std::to_string(code.k) +
                    " n=" + std::to_string(n) + " channel " +
                    std::to_string(static_cast<int>(ch)) + " at " +
                    std::to_string(db) + " dB";
                for (Decision d : {Decision::Hard, Decision::Soft})
                    expectMatchesReference(code, syms, n, d, what);
                ++seed;
            }
        }
    }
}

TEST(Viterbi, MatchesReferenceOnALongBlock)
{
    RestoreKernels restore;
    const ConvCode code;
    const size_t n = 100000;
    const auto syms = channelSymbols(randomCodeword(code, n, 99),
                                     Channel::Awgn, 1.0, 100);
    for (Decision d : {Decision::Hard, Decision::Soft})
        expectMatchesReference(code, syms, n, d, "100k steps");
}

/**
 * The framing layer before its one wire walk, for the tests to hold
 * the library to byte for byte:
 *
 * - protect() as it was before the walk, verbatim but for its encoder:
 *   LookupEncoder is replaced by the ShiftRegisterEncoder it was
 *   tested equal to.  It punctured, then interleaved, whole copies of
 *   each block's coded bits.
 * - recover() before blocks went to the pool, verbatim but for its obs
 *   counters and that encoder: serial blocks, ReferenceViterbi, and
 *   corrected bits counted by re-encoding each good block and diffing
 *   it against the received symbols.
 * - puncture(), depuncture(), interleave() and deinterleave() as the
 *   library had them; the first and third take any symbol type, so a
 *   test can follow labelled positions through them.
 */
namespace reference
{

constexpr size_t kMaxErasurePadBytes = 4096;

// Upper bounds a frame header may claim; anything beyond is damage.
constexpr uint32_t kMaxPayloadBytes = 1u << 24;
constexpr uint32_t kMaxBlockCount = 1u << 20;

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

/** Bits (values 0/1, MSB first) to bytes; n must be a multiple of 8. */
std::vector<uint8_t>
packBits(const std::vector<uint8_t> &bits)
{
    std::vector<uint8_t> out(bits.size() / 8, 0);
    for (size_t i = 0; i < out.size() * 8; ++i)
        out[i / 8] = static_cast<uint8_t>(
            (out[i / 8] << 1) | (bits[i] & 1));
    return out;
}

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

/** Delete the punctured positions of a coded bit/symbol stream. */
template <typename T>
std::vector<T>
puncture(const std::vector<T> &coded, Rate r)
{
    const PuncturePattern &p = puncturePattern(r);
    std::vector<T> out;
    out.reserve(puncturedSize(coded.size(), r));
    for (size_t i = 0; i < coded.size(); ++i) {
        if (p.keep[i % p.period])
            out.push_back(coded[i]);
    }
    return out;
}

/**
 * Re-expand @p kept punctured symbols to the full @p coded_bits
 * mother-code positions, filling deleted positions with @p erased.
 * Missing trailing symbols (truncated input) also become @p erased.
 */
std::vector<uint8_t>
depuncture(const uint8_t *kept, size_t n_kept, size_t coded_bits,
           Rate r, uint8_t erased)
{
    const PuncturePattern &p = puncturePattern(r);
    std::vector<uint8_t> out(coded_bits, erased);
    size_t src = 0;
    for (size_t base = 0; base < coded_bits && src < n_kept;
         base += p.period) {
        for (int i = 0; i < p.period && base + i < coded_bits &&
                        src < n_kept;
             ++i) {
            if (p.keep[i])
                out[base + i] = kept[src++];
        }
    }
    return out;
}

/**
 * Column-major walk over a depth x cols matrix filled row-major with
 * n elements; calls fn(rowMajorIndex) for each present cell in read
 * order.
 */
template <typename Fn>
void
walkColumns(size_t n, int depth, Fn &&fn)
{
    const size_t rows = static_cast<size_t>(depth);
    const size_t cols = (n + rows - 1) / rows;
    for (size_t c = 0; c < cols; ++c) {
        for (size_t r = 0; r < rows; ++r) {
            const size_t idx = r * cols + c;
            if (idx < n)
                fn(idx);
        }
    }
}

/** Write row-major into @p depth rows, read column-major. */
template <typename T>
std::vector<T>
interleave(const std::vector<T> &in, int depth)
{
    if (depth <= 1 || in.size() <= 1)
        return in;
    std::vector<T> out;
    out.reserve(in.size());
    walkColumns(in.size(), depth,
                [&](size_t idx) { out.push_back(in[idx]); });
    return out;
}

/** Inverse of interleave() at the same depth. */
std::vector<uint8_t>
deinterleave(const std::vector<uint8_t> &in, int depth)
{
    if (depth <= 1 || in.size() <= 1)
        return in;
    std::vector<uint8_t> out(in.size());
    size_t pos = 0;
    walkColumns(in.size(), depth,
                [&](size_t idx) { out[idx] = in[pos++]; });
    return out;
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
parseLayout(const std::vector<uint8_t> &framed)
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

std::vector<uint8_t>
protect(const std::vector<uint8_t> &stream, const FecConfig &cfg)
{
    const auto sections = codec::parseSections(stream);
    // Only a stream that opens on a section has the cleartext header
    // prefix; the head of one cut mid-section is a block of its own.
    const size_t head =
        sections.empty() ? stream.size() : sections.front().offset;
    const size_t cleartext =
        head == 0 ? codec::protectableHeaderBytes(stream) : 0;

    std::vector<uint8_t> out;
    out.reserve(kHeaderSize + stream.size() * 2);
    for (uint8_t m : kMagic)
        out.push_back(m);
    out.push_back(kVersion);
    out.push_back(static_cast<uint8_t>(cfg.wireForm()));
    out.push_back(static_cast<uint8_t>(cfg.rate));
    out.push_back(static_cast<uint8_t>(cfg.code.k));
    out.push_back(cfg.code.g1);
    out.push_back(cfg.code.g2);
    putLe16(out, static_cast<uint16_t>(
                     std::clamp(cfg.interleaveDepth, 0, 0xffff)));
    putLe32(out, static_cast<uint32_t>(cleartext));
    const size_t blockCountPos = out.size();
    putLe32(out, 0); // Block count, patched below.
    putLe32(out, 0); // Header CRC, patched below.
    out.insert(out.end(), stream.begin(), stream.begin() + cleartext);

    std::vector<codec::StreamSection> blocks;
    if (cleartext == 0 && head > 0) {
        codec::StreamSection lead;
        lead.code = kNoSection;
        lead.offset = 0;
        lead.size = head;
        blocks.push_back(lead);
    }
    for (const auto &s : sections) {
        if (s.offset >= cleartext)
            blocks.push_back(s);
    }

    ShiftRegisterEncoder enc(cfg.code);
    uint32_t blockCount = 0;
    int vopCount = 0;
    uint16_t curVop = kNoVop;
    for (const auto &s : blocks) {
        if (bits::isVopCode(s.code))
            curVop = static_cast<uint16_t>(vopCount++);

        // payload | CRC-32 trailer, then encode + flush to state 0.
        std::vector<uint8_t> buf(stream.begin() + s.offset,
                                 stream.begin() + s.offset + s.size);
        putLe32(buf, support::crc32(buf.data(), buf.size()));
        enc.reset();
        std::vector<uint8_t> bits;
        enc.encodeBytes(buf.data(), buf.size(), bits);
        enc.flush(bits);

        std::vector<uint8_t> wire =
            interleave(puncture(bits, cfg.rate), cfg.interleaveDepth);

        out.push_back(s.code);
        putLe16(out, curVop);
        putLe32(out, static_cast<uint32_t>(s.size));
        if (cfg.wireForm() == WireForm::PackedHard) {
            // Pad the last wire byte with zero bits.
            wire.resize((wire.size() + 7) / 8 * 8, 0);
            const auto packed = packBits(wire);
            out.insert(out.end(), packed.begin(), packed.end());
        } else {
            for (uint8_t &sym : wire)
                sym = sym ? kSymOne : kSymZero;
            out.insert(out.end(), wire.begin(), wire.end());
        }
        ++blockCount;
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
recover(const std::vector<uint8_t> &framed)
{
    RecoverResult res;
    const FrameLayout lay = parseLayout(framed);
    if (!lay.headerOk) {
        // Unusable header: hand the bytes through so the tolerant
        // decoder still gets its chance at them.
        res.stats.framingErrors = 1;
        res.stream = framed;
        return res;
    }

    res.stream.assign(framed.begin() + kHeaderSize,
                      framed.begin() + kHeaderSize + lay.cleartextLen);
    res.stats.framingErrors = lay.missingBlocks;

    const ReferenceViterbi dec(lay.code);
    ShiftRegisterEncoder reenc(lay.code);
    const Decision decision = lay.form == WireForm::SoftBytes
                                  ? Decision::Soft
                                  : Decision::Hard;
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

        const size_t infoBits =
            8 * (static_cast<size_t>(b.payloadBytes) + 4);
        const size_t codedBits =
            2 * (infoBits + static_cast<size_t>(lay.code.tailBits()));
        const size_t syms =
            blockSymbolCount(b.payloadBytes, lay.code, lay.rate);

        // Wire bytes -> offset-LLR symbols, erasures where cut off.
        std::vector<uint8_t> symbols(syms, kSymErased);
        const uint8_t *w = framed.data() + b.wireOffset;
        if (lay.form == WireForm::PackedHard) {
            for (size_t i = 0; i < syms; ++i) {
                if (i / 8 >= b.avail)
                    break;
                const int bit = (w[i / 8] >> (7 - i % 8)) & 1;
                symbols[i] = bit ? kSymOne : kSymZero;
            }
        } else {
            std::copy(w, w + b.avail, symbols.begin());
        }

        const auto deint = deinterleave(symbols, lay.depth);
        const auto full = depuncture(deint.data(), deint.size(),
                                     codedBits, lay.rate, kSymErased);
        const auto decoded =
            dec.decode(full.data(), infoBits, decision);
        const auto bytes = packBits(decoded.bits);

        const uint32_t wantCrc = getLe32(&bytes[b.payloadBytes]);
        const bool crcOk =
            support::crc32(bytes.data(), b.payloadBytes) == wantCrc;

        if (crcOk) {
            // Count the wire bits the decoder overrode: re-encode the
            // decoded block and diff against the received symbols
            // (in pre-interleave order; erasures don't count).
            reenc.reset();
            std::vector<uint8_t> bits;
            reenc.encodeBytes(bytes.data(), bytes.size(), bits);
            reenc.flush(bits);
            const auto clean = puncture(bits, lay.rate);
            uint64_t diff = 0;
            for (size_t i = 0;
                 i < clean.size() && i < deint.size(); ++i) {
                if (deint[i] == kSymErased)
                    continue;
                if ((deint[i] > kSymErased ? 1 : 0) != clean[i])
                    ++diff;
            }
            res.stats.correctedBits += diff;
            if (diff > 0) {
                ++res.stats.blocksCorrected;
                ++vc.corrected;
            }
        } else {
            ++res.stats.blocksUncorrectable;
            ++vc.uncorrectable;
        }

        // Damaged or not, the decoded bytes go downstream: the
        // tolerant decoder's concealment handles what FEC could not.
        res.stream.insert(res.stream.end(), bytes.begin(),
                          bytes.begin() + b.payloadBytes);
    }

    std::sort(res.stats.perVop.begin(), res.stats.perVop.end(),
              [](const VopFecCounts &a, const VopFecCounts &b) {
                  return a.vop < b.vop;
              });

    return res;
}

} // namespace reference

// ------------------------------------------------------------------
// Puncturing and interleaving.
// ------------------------------------------------------------------

TEST(Puncture, SizesMatchNominalRates)
{
    // 1200 coded bits: rate 1/2 keeps all, 2/3 keeps 3/4 of them,
    // 3/4 keeps 2/3 of them.
    EXPECT_EQ(puncturedSize(1200, Rate::R1_2), 1200u);
    EXPECT_EQ(puncturedSize(1200, Rate::R2_3), 900u);
    EXPECT_EQ(puncturedSize(1200, Rate::R3_4), 800u);
    // Partial trailing periods count the kept positions only.
    EXPECT_EQ(puncturedSize(5, Rate::R2_3), 4u);
    EXPECT_EQ(puncturedSize(0, Rate::R3_4), 0u);
}

TEST(Puncture, DepunctureRestoresKeptPositionsErasesRest)
{
    const auto coded = randomBytes(301, 71); // odd length on purpose
    for (Rate r : {Rate::R1_2, Rate::R2_3, Rate::R3_4}) {
        const auto kept = wireOf(coded, r, 1);
        EXPECT_EQ(kept.size(), puncturedSize(coded.size(), r));
        const auto back = motherOf(kept, coded.size(), r, 1, kSymErased);
        ASSERT_EQ(back.size(), coded.size());
        const PuncturePattern &p = puncturePattern(r);
        for (size_t i = 0; i < coded.size(); ++i) {
            if (p.keep[i % p.period]) {
                EXPECT_EQ(back[i], coded[i]) << rateName(r) << i;
            } else {
                EXPECT_EQ(back[i], kSymErased) << rateName(r) << i;
            }
        }
        // Truncated input: the missing tail becomes erasures.
        const auto cut = motherOf(
            std::vector<uint8_t>(kept.begin(), kept.begin() + kept.size() / 2),
            coded.size(), r, 1, kSymErased);
        EXPECT_EQ(cut.back(), kSymErased);
    }
}

TEST(Interleave, RoundTripsAtAnyDepthAndLength)
{
    for (size_t n : {0u, 1u, 2u, 7u, 64u, 1000u, 1023u}) {
        const auto data = randomBytes(n, 100 + n);
        for (int depth : {0, 1, 2, 3, 16, 100, 2000}) {
            const auto inter = wireOf(data, Rate::R1_2, depth);
            ASSERT_EQ(inter.size(), data.size())
                << "n=" << n << " depth=" << depth;
            EXPECT_EQ(motherOf(inter, n, Rate::R1_2, depth, uint8_t{0}),
                      data)
                << "n=" << n << " depth=" << depth;
        }
    }
}

TEST(Interleave, WalkMatchesPunctureThenInterleave)
{
    // The one walk against the two passes it replaced, on labelled
    // positions: every rate, over the lengths and depths of the round
    // trips above.  The runs tile the wire in order, each as long as it
    // can be, and without interleaving a rate-1/2 block is one run.
    for (Rate r : {Rate::R1_2, Rate::R2_3, Rate::R3_4}) {
        for (size_t n : {0u, 1u, 2u, 7u, 64u, 301u, 1000u, 1023u, 4096u}) {
            std::vector<uint32_t> coded(n);
            std::iota(coded.begin(), coded.end(), 0u);
            const size_t syms = puncturedSize(n, r);
            for (int depth : {0, 1, 2, 3, 16, 32, 100, 2000}) {
                const std::string what = std::string(rateName(r)) +
                                         " n=" + std::to_string(n) +
                                         " depth=" + std::to_string(depth);
                EXPECT_EQ(wireOf(coded, r, depth),
                          reference::interleave(reference::puncture(coded, r),
                                                depth))
                    << what;
                size_t runs = 0, wireEnd = 0, motherEnd = 0;
                forEachWireRun(syms, depth, r,
                               [&](size_t w, size_t m, size_t len) {
                                   EXPECT_EQ(w, wireEnd) << what;
                                   EXPECT_GT(len, 0u) << what;
                                   EXPECT_LE(m + len, n) << what;
                                   if (runs > 0) {
                                       EXPECT_NE(m, motherEnd) << what;
                                   }
                                   ++runs;
                                   wireEnd = w + len;
                                   motherEnd = m + len;
                               });
                EXPECT_EQ(wireEnd, syms) << what;
                if (r == Rate::R1_2 && depth <= 1) {
                    EXPECT_EQ(runs, n > 0 ? 1u : 0u) << what;
                }
            }
        }
    }
}

TEST(Interleave, DisprersesWireBurstsIntoIsolatedErrors)
{
    // A wire burst of D consecutive symbols lands one row each after
    // depth-D deinterleaving: no two damaged positions adjacent.
    const int depth = 32;
    std::vector<uint8_t> wire(4096, 0);
    for (size_t i = 600; i < 600 + depth; ++i)
        wire[i] = 1;
    const auto back =
        motherOf(wire, wire.size(), Rate::R1_2, depth, uint8_t{0});
    int damaged = 0;
    for (size_t i = 0; i < back.size(); ++i) {
        if (!back[i])
            continue;
        ++damaged;
        if (i + 1 < back.size()) {
            EXPECT_FALSE(back[i + 1]) << "adjacent damage at " << i;
        }
    }
    EXPECT_EQ(damaged, depth);
}

TEST(Interleave, DepthForBurstCoversFaultSpecBursts)
{
    EXPECT_EQ(interleaveDepthForBurst(0), 1);
    EXPECT_EQ(interleaveDepthForBurst(16), 128);
    const codec::FaultSpec def;
    EXPECT_EQ(interleaveDepthForBurst(def.burstBytes), 128);
}

// ------------------------------------------------------------------
// Framing: protect / channel / recover.
// ------------------------------------------------------------------

TEST(FecFrame, CleanChannelRoundTripsByteIdentically)
{
    // The acceptance bar: encode -> protect -> clean channel ->
    // recover is byte-identical for hard and soft wire forms at every
    // supported rate (and a few interleaver depths).
    const auto stream =
        core::ExperimentRunner::encodeUntraced(resyncWorkload());
    ASSERT_GT(stream.size(), 0u);

    for (Decision d : {Decision::Hard, Decision::Soft}) {
        for (Rate r : {Rate::R1_2, Rate::R2_3, Rate::R3_4}) {
            for (int depth : {1, 16, 128}) {
                FecConfig cfg;
                cfg.decision = d;
                cfg.rate = r;
                cfg.interleaveDepth = depth;
                const auto framed = protect(stream, cfg);
                const RecoverResult rec = recover(framed);
                EXPECT_EQ(rec.stream, stream)
                    << decisionName(d) << " " << rateName(r)
                    << " depth " << depth;
                EXPECT_GT(rec.stats.blocks, 0u);
                EXPECT_EQ(rec.stats.blocksCorrected, 0u);
                EXPECT_EQ(rec.stats.blocksUncorrectable, 0u);
                EXPECT_EQ(rec.stats.framingErrors, 0u);
                EXPECT_EQ(rec.stats.correctedBits, 0u);
            }
        }
    }
}

TEST(FecFrame, DataPartitionedStreamRoundTrips)
{
    const auto stream = core::ExperimentRunner::encodeUntraced(
        resyncWorkload(4, /*dp=*/true));
    const auto framed = protect(stream, FecConfig{});
    EXPECT_EQ(recover(framed).stream, stream);
}

TEST(FecFrame, DegenerateStreamsRoundTrip)
{
    // Empty stream -> header only.  No section at all -> the bytes
    // are the tail of a section cut earlier: one block, no cleartext.
    const std::vector<uint8_t> empty;
    EXPECT_EQ(recover(protect(empty, FecConfig{})).stream, empty);

    const std::vector<uint8_t> noSections(100, 0x42);
    const RecoverResult rec = recover(protect(noSections, FecConfig{}));
    EXPECT_EQ(rec.stream, noSections);
    EXPECT_EQ(rec.stats.blocks, 1u);
    ASSERT_EQ(rec.stats.perVop.size(), 1u);
    EXPECT_EQ(rec.stats.perVop[0].vop, -1);
}

TEST(FecFrame, MidSectionSliceIsCodedFromItsFirstByte)
{
    // serve protects each MTU slice of a stream on its own.  A slice
    // that starts inside a VOP has no session headers, so nothing of
    // it may travel as cleartext: every byte must face the channel
    // coded, and come back byte-identical at 4 dB.
    core::Workload w = core::paperWorkload(176, 144, 1, 1);
    w.frames = 1;
    w.targetBps = 300000;
    const auto stream = core::ExperimentRunner::encodeUntraced(w);
    constexpr size_t kMtu = 1400;
    const size_t firstVop = codec::protectableHeaderBytes(stream);
    ASSERT_LT(firstVop, kMtu);
    ASSERT_GT(stream.size(), 3 * kMtu) << "the I-VOP spans slices";
    FecConfig cfg;
    cfg.decision = Decision::Soft;
    for (size_t off = 0; off < stream.size(); off += kMtu) {
        const std::vector<uint8_t> slice(
            stream.begin() + off,
            stream.begin() + std::min(off + kMtu, stream.size()));
        const auto framed = protect(slice, cfg);
        EXPECT_EQ(reference::parseLayout(framed).cleartextLen,
                  off == 0 ? firstVop : 0u)
            << "slice at " << off;
        const RecoverResult rec =
            recover(channelSoft(framed, 4.0, 100 + off));
        EXPECT_TRUE(rec.stream == slice) << "slice at " << off;
        EXPECT_GT(rec.stats.blocks, 0u) << "slice at " << off;
        EXPECT_EQ(rec.stats.blocksUncorrectable, 0u) << "slice at " << off;
    }
}

TEST(FecFrame, HardChannelErrorsAreCorrected)
{
    // BER 1e-3 is an order of magnitude inside what the K=7 rate-1/2
    // code corrects: the stream must come back byte-identical with
    // the repair visible in the stats.
    const auto stream =
        core::ExperimentRunner::encodeUntraced(resyncWorkload());
    FecConfig cfg;
    cfg.interleaveDepth = 16;
    const auto framed = protect(stream, cfg);

    codec::FaultSpec spec;
    spec.ber = 1e-3;
    spec.seed = 77;
    const auto noisy = channelHard(framed, spec);
    EXPECT_NE(noisy, framed);

    const RecoverResult rec = recover(noisy);
    EXPECT_EQ(rec.stream, stream);
    EXPECT_GT(rec.stats.blocksCorrected, 0u);
    EXPECT_EQ(rec.stats.blocksUncorrectable, 0u);
    EXPECT_GT(rec.stats.correctedBits, 0u);
}

TEST(FecFrame, InterleaverTurnsBurstsCorrectable)
{
    // Bursts the width of FaultSpec's default land on one block as a
    // contiguous wall of errors; with the interleaver sized by
    // interleaveDepthForBurst they disperse and correct.
    const auto stream =
        core::ExperimentRunner::encodeUntraced(resyncWorkload());
    codec::FaultSpec spec;
    spec.bursts = 3;
    spec.burstBytes = 16;
    spec.seed = 5;

    FecConfig cfg;
    cfg.interleaveDepth = interleaveDepthForBurst(spec.burstBytes);
    const RecoverResult rec =
        recover(channelHard(protect(stream, cfg), spec));
    EXPECT_EQ(rec.stream, stream);
    EXPECT_EQ(rec.stats.blocksUncorrectable, 0u);
    EXPECT_GT(rec.stats.correctedBits, 0u);
}

TEST(FecFrame, SoftChannelRoundTripsAtModerateSnr)
{
    // 6.8 dB Es/N0 is hard-BER 1e-3 territory; the soft decoder has
    // ~2 dB in hand there and must return the exact stream.
    const auto stream =
        core::ExperimentRunner::encodeUntraced(resyncWorkload());
    FecConfig cfg;
    cfg.decision = Decision::Soft;
    cfg.interleaveDepth = 16;
    const auto framed = protect(stream, cfg);
    const auto noisy = channelSoft(framed, 6.8, /*seed=*/3);
    EXPECT_NE(noisy, framed);

    const RecoverResult rec = recover(noisy);
    EXPECT_EQ(rec.stream, stream);
    EXPECT_EQ(rec.stats.blocksUncorrectable, 0u);
}

TEST(FecFrame, ChannelsAreDeterministic)
{
    const auto stream =
        core::ExperimentRunner::encodeUntraced(resyncWorkload(2));
    FecConfig hard;
    hard.interleaveDepth = 8;
    FecConfig soft;
    soft.decision = Decision::Soft;

    codec::FaultSpec spec;
    spec.ber = 5e-3;
    spec.bursts = 1;
    spec.seed = 9;
    const auto framedH = protect(stream, hard);
    EXPECT_EQ(channelHard(framedH, spec), channelHard(framedH, spec));
    spec.seed = 10;
    EXPECT_NE(channelHard(framedH, spec),
              channelHard(framedH, {.ber = 5e-3, .bursts = 1,
                                    .seed = 9}));

    const auto framedS = protect(stream, soft);
    const auto a = channelSoft(framedS, 5.0, 21);
    EXPECT_EQ(a, channelSoft(framedS, 5.0, 21));
    EXPECT_NE(a, channelSoft(framedS, 5.0, 22));

    // And recovery itself is a pure function of its input.
    const auto n = channelHard(framedH, spec);
    EXPECT_EQ(recover(n).stream, recover(n).stream);
}

TEST(FecFrame, UncorrectableBlocksFallThroughToConcealment)
{
    // A channel far beyond the code's correction radius: some blocks
    // must fail CRC, their damaged bytes go downstream, and the
    // tolerant decoder conceals without throwing.
    const auto stream =
        core::ExperimentRunner::encodeUntraced(resyncWorkload(6));
    FecConfig cfg;
    cfg.interleaveDepth = 16;
    codec::FaultSpec spec;
    spec.ber = 0.04;
    spec.seed = 13;

    obs::setMetrics(true);
    obs::resetMetrics();
    const RecoverResult rec =
        recover(channelHard(protect(stream, cfg), spec));
    EXPECT_GT(rec.stats.blocksUncorrectable, 0u);
    EXPECT_NE(rec.stream, stream);

    // Per-VOP accounting adds up and lands in the obs registry.
    size_t uncor = 0;
    for (const auto &v : rec.stats.perVop)
        uncor += v.uncorrectable;
    EXPECT_EQ(uncor, rec.stats.blocksUncorrectable);
    EXPECT_EQ(obs::counter("fec.blocks_uncorrectable").value(),
              rec.stats.blocksUncorrectable);
    EXPECT_EQ(obs::counter("fec.blocks").value(), rec.stats.blocks);
    obs::setMetrics(false);
    obs::resetMetrics();

    memsim::SimContext ctx;
    codec::Mpeg4Decoder dec(ctx);
    int shown = 0;
    const codec::DecodeStats stats = dec.decode(
        rec.stream, [&](const codec::DecodedEvent &) { ++shown; },
        /*tolerant=*/true);
    EXPECT_GE(stats.displayed, 0);
    EXPECT_EQ(stats.displayed, shown);
}

TEST(FecFrame, DamagedFramingNeverThrows)
{
    const auto stream =
        core::ExperimentRunner::encodeUntraced(resyncWorkload(2));
    const auto framed = protect(stream, FecConfig{});

    // Magic smashed: passthrough, framing error flagged.
    auto noMagic = framed;
    noMagic[0] = 'X';
    RecoverResult rec = recover(noMagic);
    EXPECT_EQ(rec.stream, noMagic);
    EXPECT_EQ(rec.stats.framingErrors, 1u);

    // Header CRC smashed: same.
    auto badCrc = framed;
    badCrc[kOffHeaderCrc] ^= 0xff;
    EXPECT_EQ(recover(badCrc).stats.framingErrors, 1u);

    // Truncation at every length: total function, sane stats.
    for (size_t keep = 0; keep < framed.size();
         keep += std::max<size_t>(1, framed.size() / 37)) {
        std::vector<uint8_t> cut(framed.begin(),
                                 framed.begin() + keep);
        const RecoverResult r = recover(cut);
        EXPECT_LE(r.stats.blocksCorrected + r.stats.blocksUncorrectable,
                  r.stats.blocks);
    }

    // Arbitrary junk, including junk that starts with the magic.
    for (uint64_t seed = 0; seed < 25; ++seed) {
        auto junk = randomBytes(64 + seed * 131, seed);
        if (seed % 2 == 0 && junk.size() >= 4)
            std::copy(kMagic, kMagic + 4, junk.begin());
        (void)recover(junk);
    }
}

/** The stream and every FecStats field of two recoveries agree. */
void
expectSameRecovery(const RecoverResult &got, const RecoverResult &want,
                   const std::string &what)
{
    EXPECT_EQ(got.stream, want.stream) << what;
    EXPECT_EQ(got.stats.blocks, want.stats.blocks) << what;
    EXPECT_EQ(got.stats.blocksCorrected, want.stats.blocksCorrected)
        << what;
    EXPECT_EQ(got.stats.blocksUncorrectable,
              want.stats.blocksUncorrectable)
        << what;
    EXPECT_EQ(got.stats.framingErrors, want.stats.framingErrors) << what;
    EXPECT_EQ(got.stats.correctedBits, want.stats.correctedBits) << what;
    ASSERT_EQ(got.stats.perVop.size(), want.stats.perVop.size()) << what;
    for (size_t i = 0; i < want.stats.perVop.size(); ++i) {
        const VopFecCounts &g = got.stats.perVop[i];
        const VopFecCounts &w = want.stats.perVop[i];
        EXPECT_EQ(g.vop, w.vop) << what << " perVop " << i;
        EXPECT_EQ(g.blocks, w.blocks) << what << " perVop " << i;
        EXPECT_EQ(g.corrected, w.corrected) << what << " perVop " << i;
        EXPECT_EQ(g.uncorrectable, w.uncorrectable)
            << what << " perVop " << i;
    }
}

/** @p framed with block @p i's declared payload size set to @p bytes. */
std::vector<uint8_t>
withPayloadSize(std::vector<uint8_t> framed, size_t i, uint32_t bytes)
{
    const auto lay = reference::parseLayout(framed);
    const size_t at = lay.blocks.at(i).wireOffset - kBlockHeaderSize + 3;
    for (int b = 0; b < 4; ++b)
        framed[at + b] = static_cast<uint8_t>(bytes >> (8 * b));
    return framed;
}

TEST(FecFrame, RecoverMatchesReference)
{
    // Reused scratch, the butterfly decoder and corrected bits counted
    // along the survivor path: the stream and every statistic must
    // equal the old recover() at every rate, depth and kind of damage.
    const auto stream =
        core::ExperimentRunner::encodeUntraced(resyncWorkload(3));
    uint64_t seed = 1;
    for (Decision d : {Decision::Hard, Decision::Soft}) {
        for (Rate r : {Rate::R1_2, Rate::R2_3, Rate::R3_4}) {
            for (int depth : {1, 16, 128}) {
                FecConfig cfg;
                cfg.decision = d;
                cfg.rate = r;
                cfg.interleaveDepth = depth;
                const auto framed = protect(stream, cfg);
                const size_t nBlocks =
                    reference::parseLayout(framed).blocks.size();
                ASSERT_GT(nBlocks, 3u);

                std::vector<std::vector<uint8_t>> inputs;
                // A channel the code corrects, and one beyond it.
                for (bool harsh : {false, true}) {
                    ChannelSpec ch;
                    ch.faults.seed = seed++;
                    if (d == Decision::Soft) {
                        ch.esN0Db = harsh ? 0.5 : 4.0;
                    } else {
                        ch.faults.ber = harsh ? 0.03 : 2e-3;
                        ch.faults.bursts = 1;
                    }
                    inputs.push_back(transmit(framed, ch, &cfg));
                }
                const std::vector<uint8_t> noisy = inputs[0];
                // Cut inside the last block, and with blocks gone.
                inputs.emplace_back(noisy.begin(), noisy.end() - 37);
                inputs.emplace_back(noisy.begin(),
                                    noisy.begin() + noisy.size() * 2 / 3);
                // A block size that misaligns every block after it,
                // and one whose wire is cut off past the erasure pad.
                inputs.push_back(withPayloadSize(noisy, 1, 50));
                inputs.push_back(
                    withPayloadSize(noisy, nBlocks - 1, 100000));

                for (size_t in = 0; in < inputs.size(); ++in) {
                    expectSameRecovery(
                        recover(inputs[in]), reference::recover(inputs[in]),
                        std::string(decisionName(d)) + " " + rateName(r) +
                            " depth " + std::to_string(depth) +
                            " input " + std::to_string(in));
                }
            }
        }
    }
}

TEST(FecFrame, ProtectMatchesReference)
{
    // One encoder into a reused buffer and one walk writing the frame:
    // every byte must equal the old protect()'s, for every wire form,
    // rate, depth and code, and for streams too short to hold a block
    // or holding a cut-off one.
    const auto stream =
        core::ExperimentRunner::encodeUntraced(resyncWorkload(3));
    std::vector<std::vector<uint8_t>> streams = {stream, {}};
    const size_t firstVop = codec::protectableHeaderBytes(stream);
    ASSERT_LT(firstVop + 9, stream.size());
    for (size_t n = 1; n <= 9; ++n) {
        streams.push_back(randomBytes(n, 300 + n));
        streams.emplace_back(stream.begin() + firstVop,
                             stream.begin() + firstVop + n);
    }
    for (const ConvCode &code :
         {ConvCode(), ConvCode(5, 023, 035), ConvCode(3, 07, 05)}) {
        for (Decision d : {Decision::Hard, Decision::Soft}) {
            for (Rate r : {Rate::R1_2, Rate::R2_3, Rate::R3_4}) {
                for (int depth : {0, 1, 2, 7, 16, 128, 5000}) {
                    FecConfig cfg;
                    cfg.decision = d;
                    cfg.rate = r;
                    cfg.interleaveDepth = depth;
                    cfg.code = code;
                    const std::string what =
                        "k=" + std::to_string(code.k) + " " +
                        decisionName(d) + " " + rateName(r) + " depth " +
                        std::to_string(depth);
                    for (size_t i = 0; i < streams.size(); ++i) {
                        EXPECT_TRUE(protect(streams[i], cfg) ==
                                    reference::protect(streams[i], cfg))
                            << what << " stream " << i;
                    }
                    EXPECT_TRUE(recover(protect(stream, cfg)).stream ==
                                stream)
                        << what;
                }
            }
        }
    }
}

TEST(FecFrame, DepthBeyondTheHeaderFieldRoundTrips)
{
    // The header records the interleave depth in 16 bits, so a larger
    // depth must interleave exactly as the largest recordable one:
    // recover() walks at the recorded depth.  The stream's I-frame
    // block is longer than 65535 wire symbols, so a depth past that
    // would permute it differently.
    core::Workload w = core::paperWorkload(352, 288, 1, 1);
    w.frames = 2;
    w.targetBps = 2e6;
    const auto stream = core::ExperimentRunner::encodeUntraced(w);
    FecConfig widest;
    widest.interleaveDepth = 0xffff;
    const auto framedAtWidest = protect(stream, widest);
    for (int depth : {70000, 100000}) {
        FecConfig cfg;
        cfg.interleaveDepth = depth;
        const auto framed = protect(stream, cfg);
        const RecoverResult rec = recover(framed);
        EXPECT_GT(rec.stats.blocks, 0u) << depth;
        EXPECT_EQ(rec.stats.blocksUncorrectable, 0u) << depth;
        EXPECT_TRUE(rec.stream == stream) << depth;
        EXPECT_TRUE(framed == framedAtWidest) << depth;
    }
}

TEST(FecFrame, HardBerMatchesAwgnTheory)
{
    // The AWGN channel's hard-quantized flip rate must track the
    // closed-form Q(sqrt(2 Es/N0)) within sampling slack - this ties
    // the SNR axis of the bench sweep to the BER axis of PR 2.
    EXPECT_NEAR(hardBerAtEsN0Db(0.0), 0.0786, 0.002);
    EXPECT_NEAR(hardBerAtEsN0Db(6.8), 1e-3, 4e-4);
    EXPECT_LT(hardBerAtEsN0Db(9.0), hardBerAtEsN0Db(6.8));

    const auto stream =
        core::ExperimentRunner::encodeUntraced(resyncWorkload());
    FecConfig cfg;
    cfg.decision = Decision::Soft;
    const auto framed = protect(stream, cfg);
    const double esN0Db = 4.0;
    const auto noisy = channelSoft(framed, esN0Db, 17);

    // Count hard-decision flips over the wire symbols: on the clean
    // frame they are saturated 0/255, so a crossing of 128 after the
    // channel is a flip.  (Framing metadata bytes that happen to be
    // 0x00/0xff ride along untouched; they are a rounding error next
    // to the 16-symbols-per-payload-byte wire regions.)
    size_t flips = 0, syms = 0;
    for (size_t i = kHeaderSize; i < framed.size(); ++i) {
        if (framed[i] != kSymZero && framed[i] != kSymOne)
            continue;
        ++syms;
        const int sent = framed[i] == kSymOne ? 1 : 0;
        const int got = noisy[i] > kSymErased ? 1 : 0;
        if (sent != got)
            ++flips;
    }
    ASSERT_GT(syms, 10000u);
    const double want = hardBerAtEsN0Db(esN0Db);
    const double got = static_cast<double>(flips) /
                       static_cast<double>(syms);
    EXPECT_GT(got, want * 0.7);
    EXPECT_LT(got, want * 1.3);
}

} // namespace
} // namespace m4ps::fec
