/**
 * @file
 * Kernel-dispatch layer: feature detection and selection fallbacks,
 * and - the heart of the backend contract - exhaustive bit-identity
 * of every SIMD kernel against the scalar reference over randomized
 * and adversarial inputs (saturation extremes, negative levels, every
 * half-pel phase, every quantizer step and rounding parity).  The
 * memsim access-stream invariant is pinned by encoding the same
 * workload under scalar and SIMD backends and requiring the exact
 * same CounterSet.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <stdexcept>
#include <vector>

#include "codec/kernels/kernels.hh"
#include "codec/quant.hh"
#include "core/machine.hh"
#include "core/runner.hh"
#include "core/workload.hh"
#include "memsim/counters.hh"

namespace m4ps
{
namespace
{

namespace kn = codec::kernels;

/** Restores the previously active backend when a test returns. */
class ScopedKernels
{
  public:
    explicit ScopedKernels(kn::Isa isa) : prev_(kn::activeIsa())
    {
        kn::select(kn::isaName(isa));
    }
    ~ScopedKernels() { kn::select(kn::isaName(prev_)); }

  private:
    kn::Isa prev_;
};

/** Backends other than scalar this host can actually run. */
std::vector<kn::Isa>
simdBackends()
{
    std::vector<kn::Isa> out;
    for (kn::Isa isa : kn::compiledIsas()) {
        if (isa != kn::Isa::Scalar && kn::hostSupports(isa))
            out.push_back(isa);
    }
    return out;
}

TEST(KernelDispatch, ScalarIsAlwaysCompiledAndSupported)
{
    const std::vector<kn::Isa> isas = kn::compiledIsas();
    ASSERT_FALSE(isas.empty());
    EXPECT_EQ(isas.front(), kn::Isa::Scalar);
    EXPECT_TRUE(kn::hostSupports(kn::Isa::Scalar));
    EXPECT_NE(kn::opsFor(kn::Isa::Scalar), nullptr);
}

TEST(KernelDispatch, SelectByNameInstallsTheBackend)
{
    const kn::Isa prev = kn::activeIsa();
    for (kn::Isa isa : kn::compiledIsas()) {
        if (!kn::hostSupports(isa))
            continue;
        EXPECT_EQ(kn::select(kn::isaName(isa)), isa);
        EXPECT_EQ(kn::activeIsa(), isa);
        EXPECT_STREQ(kn::active().name, kn::isaName(isa));
    }
    kn::select(kn::isaName(prev));
}

TEST(KernelDispatch, AutoPicksTheWidestSupportedBackend)
{
    const kn::Isa prev = kn::activeIsa();
    EXPECT_EQ(kn::select("auto"), kn::bestSupported());
    kn::select(kn::isaName(prev));
}

TEST(KernelDispatch, UnsupportedBackendDegradesToScalar)
{
    const kn::Isa prev = kn::activeIsa();
    // At most one of NEON / SSE4.1 can be supported on a given host;
    // the other must fall back to scalar rather than crash or die.
#if defined(__aarch64__)
    const char *foreign = "sse41";
#else
    const char *foreign = "neon";
#endif
    EXPECT_EQ(kn::select(foreign), kn::Isa::Scalar);
    EXPECT_EQ(kn::activeIsa(), kn::Isa::Scalar);
    kn::select(kn::isaName(prev));
}

TEST(KernelDispatch, UnknownBackendNameThrows)
{
    EXPECT_THROW(kn::select("mmx"), std::invalid_argument);
    EXPECT_THROW(kn::select(""), std::invalid_argument);
    // A failed select must not have disturbed the active table.
    EXPECT_NE(kn::active().name, nullptr);
}

/** 64-pel buffer with a 16-pel guard so width-16 loads stay legal. */
struct PelBuf
{
    uint8_t data[96];
};

class KernelEquivalence : public ::testing::TestWithParam<kn::Isa>
{
  protected:
    const kn::KernelOps &simd() { return *kn::opsFor(GetParam()); }
    const kn::KernelOps &ref()
    {
        return *kn::opsFor(kn::Isa::Scalar);
    }
};

TEST_P(KernelEquivalence, SadRows)
{
    const kn::KernelOps &s = simd();
    const kn::KernelOps &r = ref();
    std::mt19937 rng(0xad5);
    for (int trial = 0; trial < 2000; ++trial) {
        PelBuf a, b;
        for (int i = 0; i < 96; ++i) {
            // Mix uniform noise with saturation plateaus.
            const int mode = trial % 4;
            a.data[i] = mode == 1 ? 255
                        : mode == 2 ? 0
                                    : static_cast<uint8_t>(rng());
            b.data[i] = mode == 2 ? 255
                        : mode == 3 ? 0
                                    : static_cast<uint8_t>(rng());
        }
        EXPECT_EQ(r.sadRow16(a.data, b.data),
                  s.sadRow16(a.data, b.data));
        EXPECT_EQ(r.sadRow8(a.data, b.data),
                  s.sadRow8(a.data, b.data));
        EXPECT_EQ(r.sumRow16(a.data), s.sumRow16(a.data));
        const uint8_t mean = static_cast<uint8_t>(rng());
        EXPECT_EQ(r.absDevRow16(a.data, mean),
                  s.absDevRow16(a.data, mean));
        for (int hy = 0; hy <= 1; ++hy) {
            for (int hx = 0; hx <= 1; ++hx) {
                EXPECT_EQ(
                    r.sadRowHpel16(a.data, b.data, b.data + 24, hx, hy),
                    s.sadRowHpel16(a.data, b.data, b.data + 24, hx,
                                   hy));
                EXPECT_EQ(
                    r.sadRowHpel8(a.data, b.data, b.data + 24, hx, hy),
                    s.sadRowHpel8(a.data, b.data, b.data + 24, hx,
                                  hy));
            }
        }
    }
}

TEST_P(KernelEquivalence, PredictInterpAverageRows)
{
    const kn::KernelOps &s = simd();
    const kn::KernelOps &r = ref();
    std::mt19937 rng(0x9e1);
    for (int trial = 0; trial < 1000; ++trial) {
        PelBuf r0, r1;
        for (int i = 0; i < 96; ++i) {
            r0.data[i] = static_cast<uint8_t>(rng());
            r1.data[i] = static_cast<uint8_t>(rng());
        }
        for (int hy = 0; hy <= 1; ++hy) {
            for (int hx = 0; hx <= 1; ++hx) {
                for (int n : {8, 16}) {
                    uint8_t want[16], got[16];
                    r.predictRow(r0.data, r1.data, hx, hy, n, want);
                    s.predictRow(r0.data, r1.data, hx, hy, n, got);
                    EXPECT_EQ(0, std::memcmp(want, got,
                                             static_cast<size_t>(n)))
                        << "predictRow n=" << n << " hx=" << hx
                        << " hy=" << hy;
                }
            }
        }
        // interpRow over every span length a frame row might leave.
        const int n = 1 + static_cast<int>(rng() % 70);
        std::vector<uint8_t> wh(n), wv(n), whv(n);
        std::vector<uint8_t> gh(n), gv(n), ghv(n);
        std::vector<uint8_t> e0(n + 17), e1(n + 17);
        for (int i = 0; i < n + 17; ++i) {
            e0[static_cast<size_t>(i)] = static_cast<uint8_t>(rng());
            e1[static_cast<size_t>(i)] = static_cast<uint8_t>(rng());
        }
        r.interpRow(e0.data(), e1.data(), n, wh.data(), wv.data(),
                    whv.data());
        s.interpRow(e0.data(), e1.data(), n, gh.data(), gv.data(),
                    ghv.data());
        EXPECT_EQ(wh, gh) << "interpRow h, n=" << n;
        EXPECT_EQ(wv, gv) << "interpRow v, n=" << n;
        EXPECT_EQ(whv, ghv) << "interpRow hv, n=" << n;

        std::vector<uint8_t> wa(n), ga(n);
        r.avgRow(e0.data(), e1.data(), n, wa.data());
        s.avgRow(e0.data(), e1.data(), n, ga.data());
        EXPECT_EQ(wa, ga) << "avgRow n=" << n;
    }
}

TEST_P(KernelEquivalence, DctAndIdct)
{
    const kn::KernelOps &s = simd();
    const kn::KernelOps &r = ref();
    std::mt19937 rng(0xdc7);
    for (int trial = 0; trial < 3000; ++trial) {
        int16_t in[64], want[64], got[64];
        for (int i = 0; i < 64; ++i) {
            switch (trial % 5) {
            case 0: // pel-difference range
                in[i] = static_cast<int16_t>(
                    static_cast<int>(rng() % 511) - 255);
                break;
            case 1: // dequantized-coefficient range
                in[i] = static_cast<int16_t>(
                    static_cast<int>(rng() % 4096) - 2048);
                break;
            case 2: // full int16, exercises the clamps
                in[i] = static_cast<int16_t>(rng());
                break;
            case 3: // constant blocks (DC-only energy)
                in[i] = static_cast<int16_t>(
                    static_cast<int>(rng() % 2) ? 255 : -255);
                break;
            default: // sparse: a lone large coefficient
                in[i] = 0;
                break;
            }
        }
        if (trial % 5 == 4)
            in[rng() % 64] = static_cast<int16_t>(rng());
        r.fdct(in, want);
        s.fdct(in, got);
        for (int i = 0; i < 64; ++i)
            ASSERT_EQ(want[i], got[i])
                << "fdct coefficient " << i << " trial " << trial;
        r.idct(in, want);
        s.idct(in, got);
        for (int i = 0; i < 64; ++i)
            ASSERT_EQ(want[i], got[i])
                << "idct pel " << i << " trial " << trial;
    }
}

TEST_P(KernelEquivalence, QuantAndDequantSweep)
{
    const kn::KernelOps &s = simd();
    const kn::KernelOps &r = ref();
    std::mt19937 rng(0x4a7);
    for (int q = 1; q <= 31; ++q) {
        for (const bool intra : {false, true}) {
            for (const bool mpeg : {false, true}) {
                kn::QuantArgs qa;
                qa.q = q;
                qa.intra = intra;
                qa.mpeg = mpeg;
                qa.matrix =
                    intra ? codec::kIntraMatrix : codec::kInterMatrix;
                for (int trial = 0; trial < 24; ++trial) {
                    int16_t coefs[64];
                    for (int i = 0; i < 64; ++i) {
                        switch (trial % 4) {
                        case 0: // DCT output range
                            coefs[i] = static_cast<int16_t>(
                                static_cast<int>(rng() % 4097) -
                                2048);
                            break;
                        case 1: // full int16, clamp stress
                            coefs[i] = static_cast<int16_t>(rng());
                            break;
                        case 2: // dead-zone neighborhood
                            coefs[i] = static_cast<int16_t>(
                                static_cast<int>(rng() % (4 * q)) -
                                2 * q);
                            break;
                        default: // extremes and zeros
                            coefs[i] = static_cast<int16_t>(
                                (i % 3 == 0)   ? 0
                                : (i % 3 == 1) ? 32767
                                               : -32768);
                            break;
                        }
                    }
                    // Both start positions the codec uses: 1 after an
                    // intra DC, 0 for inter blocks.
                    for (const int start : {0, 1}) {
                        int16_t want[64], got[64];
                        std::memset(want, 0, sizeof(want));
                        std::memset(got, 0, sizeof(got));
                        r.quant(coefs, want, start, qa);
                        s.quant(coefs, got, start, qa);
                        for (int i = start; i < 64; ++i)
                            ASSERT_EQ(want[i], got[i])
                                << "quant i=" << i << " q=" << q
                                << " intra=" << intra
                                << " mpeg=" << mpeg
                                << " start=" << start;
                        // Feed the (clamped, sign-carrying) levels
                        // back through dequant.
                        int16_t dwant[64], dgot[64];
                        std::memset(dwant, 0, sizeof(dwant));
                        std::memset(dgot, 0, sizeof(dgot));
                        r.dequant(want, dwant, start, qa);
                        s.dequant(want, dgot, start, qa);
                        for (int i = start; i < 64; ++i)
                            ASSERT_EQ(dwant[i], dgot[i])
                                << "dequant i=" << i << " q=" << q
                                << " intra=" << intra
                                << " mpeg=" << mpeg
                                << " start=" << start;
                    }
                }
                // Directed dequant extremes: +-2047 saturating levels
                // and alternating signs around zero.
                int16_t lv[64];
                for (int i = 0; i < 64; ++i) {
                    lv[i] = static_cast<int16_t>(
                        (i % 4 == 0)   ? 2047
                        : (i % 4 == 1) ? -2047
                        : (i % 4 == 2) ? 0
                                       : (i % 8 < 4 ? 1 : -1));
                }
                int16_t dwant[64], dgot[64];
                r.dequant(lv, dwant, 0, qa);
                s.dequant(lv, dgot, 0, qa);
                for (int i = 0; i < 64; ++i)
                    ASSERT_EQ(dwant[i], dgot[i])
                        << "dequant extreme i=" << i << " q=" << q
                        << " intra=" << intra << " mpeg=" << mpeg;
            }
        }
    }
}

TEST_P(KernelEquivalence, ViterbiAcs)
{
    // Decision words and the final metric of state 0, for every
    // constraint length (SIMD backends hand k < 7 to scalar), both
    // cost modes, pseudo-random butterfly tables and symbol streams
    // from uniform noise to all-tie erasures and maximum spread, and
    // lengths on both sides of the 32-step renormalization.
    const kn::KernelOps &s = simd();
    const kn::KernelOps &r = ref();
    std::mt19937 rng(0x7173);
    for (int trial = 0; trial < 600; ++trial) {
        const int k = 3 + trial % 5;
        uint8_t butterfly[32];
        for (int j = 0; j < (1 << (k - 2)); ++j)
            butterfly[j] = static_cast<uint8_t>(rng() & 3);
        const size_t steps =
            trial % 60 == 0 ? 6000 : 1 + static_cast<size_t>(rng() % 300);
        std::vector<uint8_t> syms(2 * steps);
        for (size_t i = 0; i < syms.size(); ++i) {
            switch (trial % 4) {
            case 0: // uniform offset-LLR noise
                syms[i] = static_cast<uint8_t>(rng());
                break;
            case 1: // confident, disagreeing symbol pairs
                syms[i] = i % 2 ? 255 : 0;
                break;
            case 2: // hard values and erasures
                syms[i] = static_cast<uint8_t>(
                    (rng() % 3) * 127 + (rng() % 3 == 2 ? 1 : 0));
                break;
            default: // all erased: every comparison ties
                syms[i] = 128;
            }
        }
        for (bool soft : {false, true}) {
            std::vector<uint64_t> want(steps), got(steps);
            kn::AcsArgs a;
            a.k = k;
            a.butterfly = butterfly;
            a.symbols = syms.data();
            a.steps = steps;
            a.soft = soft;
            a.decisions = want.data();
            const uint64_t wantMetric = r.viterbiAcs(a);
            a.decisions = got.data();
            const uint64_t gotMetric = s.viterbiAcs(a);
            ASSERT_EQ(wantMetric, gotMetric)
                << "k=" << k << " steps=" << steps << " soft=" << soft
                << " trial " << trial;
            ASSERT_EQ(want, got)
                << "k=" << k << " steps=" << steps << " soft=" << soft
                << " trial " << trial;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, KernelEquivalence, ::testing::ValuesIn(simdBackends()),
    [](const ::testing::TestParamInfo<kn::Isa> &info) {
        return kn::isaName(info.param);
    });

// GoogleTest warns (and some configs fail) when a parameterized suite
// gets an empty value list; on a scalar-only host there is nothing to
// compare, which is expected, not a bug.
GTEST_ALLOW_UNINSTANTIATED_PARAMETERIZED_TEST(KernelEquivalence);

/**
 * Contract 2 of kernels.hh: the simulated memory-access stream may
 * not depend on the backend.  Encode + decode the same workload under
 * scalar and the widest SIMD backend and require the *exact* same
 * counter set - one extra or missing traced row fails this.
 */
TEST(KernelTrace, SimulatedAccessStreamIsBackendInvariant)
{
    if (kn::bestSupported() == kn::Isa::Scalar)
        GTEST_SKIP() << "no SIMD backend on this host";
    core::Workload wl;
    wl.width = 176;
    wl.height = 144;
    wl.frames = 5;
    wl.numVos = 1;
    wl.layers = 1;
    wl.targetBps = 200000.0;
    wl.searchRange = 4;
    wl.gop = {6, 2};
    wl.name = "kernel-trace";
    wl.validate();
    const core::MachineConfig machine = core::machineByName("o2");

    std::vector<uint8_t> scalarStream, simdStream;
    memsim::CounterSet scalarEnc, simdEnc, scalarDec, simdDec;
    {
        ScopedKernels pin(kn::Isa::Scalar);
        const core::RunResult enc = core::ExperimentRunner::runEncode(
            wl, machine, &scalarStream);
        scalarEnc = enc.whole.ctrs;
        const core::RunResult dec = core::ExperimentRunner::runDecode(
            wl, machine, scalarStream);
        scalarDec = dec.whole.ctrs;
    }
    {
        ScopedKernels pin(kn::bestSupported());
        const core::RunResult enc = core::ExperimentRunner::runEncode(
            wl, machine, &simdStream);
        simdEnc = enc.whole.ctrs;
        const core::RunResult dec = core::ExperimentRunner::runDecode(
            wl, machine, simdStream);
        simdDec = dec.whole.ctrs;
    }
    EXPECT_EQ(scalarStream, simdStream)
        << "bitstreams diverged between scalar and "
        << kn::isaName(kn::bestSupported());
    EXPECT_TRUE(scalarEnc == simdEnc)
        << "encode-side memsim counters depend on the kernel backend";
    EXPECT_TRUE(scalarDec == simdDec)
        << "decode-side memsim counters depend on the kernel backend";
}

} // namespace
} // namespace m4ps
