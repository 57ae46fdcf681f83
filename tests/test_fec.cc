/**
 * @file
 * Forward-error-correction subsystem: the convolutional encoder
 * variants must agree with each other and with the published K=7
 * {171, 133} code, the Viterbi decoder must be exact on a clean
 * channel and actually correct errors on a dirty one, puncturing and
 * interleaving must be lossless permutations of what they promise,
 * and the framing layer must round-trip an elementary stream
 * byte-identically - then degrade into the concealment path, never an
 * exception, when the channel wins.
 */

#include <gtest/gtest.h>

#include "codec/decoder.hh"
#include "codec/faultinject.hh"
#include "core/runner.hh"
#include "core/workload.hh"
#include "fec/conv.hh"
#include "fec/frame.hh"
#include "fec/interleave.hh"
#include "fec/puncture.hh"
#include "fec/viterbi.hh"
#include "support/obs/obs.hh"
#include "support/random.hh"

namespace m4ps::fec
{
namespace
{

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

TEST(Conv, LookupEncoderMatchesShiftRegister)
{
    const ConvCode code;
    const auto payload = randomBytes(257, 11);

    // Bit-serial reference, MSB-first bytes.
    ShiftRegisterEncoder ref(code);
    std::vector<uint8_t> want;
    for (uint8_t byte : payload) {
        for (int bit = 7; bit >= 0; --bit)
            ref.encodeBit((byte >> bit) & 1, want);
    }
    ref.flush(want);
    EXPECT_EQ(ref.state(), 0);

    LookupEncoder enc(code);
    std::vector<uint8_t> got;
    enc.encodeBytes(payload.data(), payload.size(), got);
    enc.flush(got);
    EXPECT_EQ(enc.state(), 0);
    EXPECT_EQ(got, want);
    EXPECT_EQ(got, convEncodeBytes(code, payload.data(),
                                   payload.size()));
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
    const auto coded =
        convEncodeBytes(code, payload.data(), payload.size());
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
    const auto coded =
        convEncodeBytes(code, payload.data(), payload.size());
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
    const auto coded =
        convEncodeBytes(code, payload.data(), payload.size());

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
    const auto coded =
        convEncodeBytes(code, payload.data(), payload.size());

    for (Rate r : {Rate::R1_2, Rate::R2_3, Rate::R3_4}) {
        const auto kept = puncture(coded, r);
        const auto full = depuncture(kept.data(), kept.size(),
                                     coded.size(), r, kSymErased);
        for (Decision d : {Decision::Hard, Decision::Soft}) {
            std::vector<uint8_t> syms(full.size());
            for (size_t i = 0; i < full.size(); ++i) {
                syms[i] = full[i] == kSymErased
                              ? kSymErased
                              : (full[i] ? kSymOne : kSymZero);
            }
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
        const auto kept = puncture(coded, r);
        EXPECT_EQ(kept.size(), puncturedSize(coded.size(), r));
        const auto back = depuncture(kept.data(), kept.size(),
                                     coded.size(), r, kSymErased);
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
        const auto cut = depuncture(kept.data(), kept.size() / 2,
                                    coded.size(), r, kSymErased);
        EXPECT_EQ(cut.back(), kSymErased);
    }
}

TEST(Interleave, RoundTripsAtAnyDepthAndLength)
{
    for (size_t n : {0u, 1u, 2u, 7u, 64u, 1000u, 1023u}) {
        const auto data = randomBytes(n, 100 + n);
        for (int depth : {0, 1, 2, 3, 16, 100, 2000}) {
            const auto inter = interleave(data, depth);
            ASSERT_EQ(inter.size(), data.size())
                << "n=" << n << " depth=" << depth;
            EXPECT_EQ(deinterleave(inter, depth), data)
                << "n=" << n << " depth=" << depth;
        }
    }
}

TEST(Interleave, DisprersesWireBurstsIntoIsolatedErrors)
{
    // A wire burst of D consecutive symbols lands one row each after
    // depth-D deinterleaving: no two damaged positions adjacent.
    const int depth = 32;
    std::vector<uint8_t> data(4096, 0);
    auto wire = interleave(data, depth);
    for (size_t i = 600; i < 600 + depth; ++i)
        wire[i] = 1;
    const auto back = deinterleave(wire, depth);
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
    // No VOPs -> everything is cleartext; empty stream -> header only.
    const std::vector<uint8_t> empty;
    EXPECT_EQ(recover(protect(empty, FecConfig{})).stream, empty);

    const std::vector<uint8_t> noVops(100, 0x42);
    const RecoverResult rec = recover(protect(noVops, FecConfig{}));
    EXPECT_EQ(rec.stream, noVops);
    EXPECT_EQ(rec.stats.blocks, 0u);
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
#if M4PS_OBS
    EXPECT_EQ(obs::counter("fec.blocks_uncorrectable").value(),
              rec.stats.blocksUncorrectable);
    EXPECT_EQ(obs::counter("fec.blocks").value(), rec.stats.blocks);
#else
    // Compiled out, the registry keeps nothing: every counter reads 0.
    EXPECT_EQ(obs::counter("fec.blocks_uncorrectable").value(), 0u);
    EXPECT_EQ(obs::counter("fec.blocks").value(), 0u);
#endif
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
