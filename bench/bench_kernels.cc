/**
 * @file
 * Per-kernel, per-backend micro-benchmark for the dispatch layer
 * (docs/KERNELS.md): times every KernelOps entry under every backend
 * this host can run and emits BENCH_kernels.json in the
 * m4ps-bench-v1 schema.
 *
 * Metric naming follows the bench_compare contract:
 *  - `wall_ns_per_pel` (`wall_ns_per_bit` for the Viterbi ACS rows,
 *    per decoded bit) and `speedup_vs_scalar_wall` are host timings
 *    (warn-only in bench_compare);
 *  - `checksum` and `pels` (`bits`) are deterministic: the checksum
 *    folds every kernel output over a fixed pseudo-random input set -
 *    for the ACS, every decision word and the final path metric - so
 *    a backend that silently diverges from scalar hard-fails the
 *    baseline diff - the same bit-identity contract the conformance
 *    suite enforces, here without a codec in the loop.
 *
 * Self-check (exit 1 on violation): every backend's checksum must
 * equal the scalar backend's for every kernel.
 *
 * The committed baseline (bench/baselines/BENCH_kernels.json) holds
 * only the scalar entries (generate with `--scalar-only`): SIMD
 * availability depends on the runner, and extra benches are
 * informational in bench_compare.  Use `--fast` for a quick pass
 * (fewer timing reps; checksums are rep-independent).
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_json.hh"
#include "codec/kernels/kernels.hh"
#include "codec/quant.hh"
#include "support/random.hh"

namespace
{

using namespace m4ps;
namespace kn = codec::kernels;

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t
fnv(uint64_t h, const void *data, size_t n)
{
    const auto *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** Viterbi ACS blocks in the working set, and steps per block. */
constexpr size_t kAcsBlocks = 4;
constexpr size_t kAcsSteps = 4096;

/** Fixed pseudo-random working set every backend reads. */
struct Inputs
{
    std::vector<uint8_t> pels;    //!< Byte rows (SAD/interp/avg).
    std::vector<int16_t> blocks;  //!< 8x8 coefficient blocks.
    /** K=7 butterfly table: the ACS costs the same for any code. */
    uint8_t butterfly[32];
    std::vector<uint8_t> symbols; //!< Offset-LLR symbols, 2 per step.

    Inputs()
    {
        Rng rng(0x6b65726eull);
        pels.resize(1 << 16);
        for (auto &p : pels)
            p = static_cast<uint8_t>(rng.next());
        blocks.resize(256 * 64);
        for (size_t i = 0; i < blocks.size(); ++i) {
            // Mix pel-difference, coefficient, and clamp-stress
            // amplitudes so every rounding path runs.
            const int amp = (i / 64) % 3 == 0   ? 255
                            : (i / 64) % 3 == 1 ? 2047
                                                : 16384;
            blocks[i] = static_cast<int16_t>(
                rng.uniformInt(-amp, amp));
        }
        for (auto &b : butterfly)
            b = static_cast<uint8_t>(rng.next() & 3);
        symbols.resize(2 * kAcsBlocks * kAcsSteps);
        for (auto &sym : symbols)
            sym = static_cast<uint8_t>(rng.next());
    }
};

/** One kernel timed under one backend. */
struct OpResult
{
    std::string op;
    double nsPerUnit = 0; //!< Per pel, or per bit (OpSpec::unit).
    double units = 0;
    uint64_t checksum = 0;
};

using OpFn = uint64_t (*)(const kn::KernelOps &, const Inputs &,
                          uint64_t *pels, bool hash);

double
now_ns()
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

// Each runner does one deterministic pass over the working set,
// returning a checksum and the pel count it processed.  The timing
// loop repeats the pass; the checksum is taken from a single pass so
// it does not depend on the rep count.

uint64_t
runSad16(const kn::KernelOps &k, const Inputs &in, uint64_t *pels,
       bool hash)
{
    uint64_t h = kFnvOffset;
    uint64_t n = 0;
    for (size_t off = 0; off + 64 <= in.pels.size(); off += 64) {
        const int sad =
            k.sadRow16(&in.pels[off], &in.pels[off + 32]);
        if (hash)
            h = fnv(h, &sad, sizeof(sad));
        n += 16;
    }
    *pels = n;
    return h;
}

uint64_t
runSadHpel16(const kn::KernelOps &k, const Inputs &in, uint64_t *pels,
       bool hash)
{
    uint64_t h = kFnvOffset;
    uint64_t n = 0;
    for (size_t off = 0; off + 80 <= in.pels.size(); off += 64) {
        const int phase = static_cast<int>((off >> 6) & 3);
        const int sad = k.sadRowHpel16(&in.pels[off],
                                       &in.pels[off + 32],
                                       &in.pels[off + 48],
                                       phase & 1, phase >> 1);
        if (hash)
            h = fnv(h, &sad, sizeof(sad));
        n += 16;
    }
    *pels = n;
    return h;
}

uint64_t
runFdct(const kn::KernelOps &k, const Inputs &in, uint64_t *pels,
       bool hash)
{
    uint64_t h = kFnvOffset;
    int16_t out[64];
    for (size_t b = 0; b + 64 <= in.blocks.size(); b += 64) {
        k.fdct(&in.blocks[b], out);
        if (hash)
            h = fnv(h, out, sizeof(out));
    }
    *pels = in.blocks.size();
    return h;
}

uint64_t
runIdct(const kn::KernelOps &k, const Inputs &in, uint64_t *pels,
       bool hash)
{
    uint64_t h = kFnvOffset;
    int16_t out[64];
    for (size_t b = 0; b + 64 <= in.blocks.size(); b += 64) {
        k.idct(&in.blocks[b], out);
        if (hash)
            h = fnv(h, out, sizeof(out));
    }
    *pels = in.blocks.size();
    return h;
}

uint64_t
runQuant(const kn::KernelOps &k, const Inputs &in, uint64_t *pels,
       bool hash)
{
    uint64_t h = kFnvOffset;
    int16_t out[64];
    for (size_t b = 0; b + 64 <= in.blocks.size(); b += 64) {
        kn::QuantArgs qa;
        qa.q = 1 + static_cast<int>((b / 64) % 31);
        qa.intra = (b / 64) % 2 == 0;
        qa.mpeg = false;
        qa.matrix =
            qa.intra ? codec::kIntraMatrix : codec::kInterMatrix;
        std::memset(out, 0, sizeof(out));
        k.quant(&in.blocks[b], out, qa.intra ? 1 : 0, qa);
        if (hash)
            h = fnv(h, out, sizeof(out));
    }
    *pels = in.blocks.size();
    return h;
}

uint64_t
runDequant(const kn::KernelOps &k, const Inputs &in, uint64_t *pels,
       bool hash)
{
    uint64_t h = kFnvOffset;
    int16_t lv[64], out[64];
    for (size_t b = 0; b + 64 <= in.blocks.size(); b += 64) {
        for (int i = 0; i < 64; ++i) {
            lv[i] = static_cast<int16_t>(
                std::clamp<int>(in.blocks[b + i], -2047, 2047));
        }
        kn::QuantArgs qa;
        qa.q = 1 + static_cast<int>((b / 64) % 31);
        qa.intra = (b / 64) % 2 == 0;
        qa.mpeg = false;
        qa.matrix =
            qa.intra ? codec::kIntraMatrix : codec::kInterMatrix;
        std::memset(out, 0, sizeof(out));
        k.dequant(lv, out, qa.intra ? 1 : 0, qa);
        if (hash)
            h = fnv(h, out, sizeof(out));
    }
    *pels = in.blocks.size();
    return h;
}

uint64_t
runPredict(const kn::KernelOps &k, const Inputs &in, uint64_t *pels,
       bool hash)
{
    uint64_t h = kFnvOffset;
    uint64_t n = 0;
    uint8_t out[16];
    for (size_t off = 0; off + 80 <= in.pels.size(); off += 64) {
        const int phase = static_cast<int>((off >> 6) & 3);
        k.predictRow(&in.pels[off], &in.pels[off + 32], phase & 1,
                     phase >> 1, 16, out);
        if (hash)
            h = fnv(h, out, sizeof(out));
        n += 16;
    }
    *pels = n;
    return h;
}

uint64_t
runInterp(const kn::KernelOps &k, const Inputs &in, uint64_t *pels,
       bool hash)
{
    uint64_t h = kFnvOffset;
    uint64_t n = 0;
    uint8_t ph[704], pv[704], phv[704];
    for (size_t off = 0; off + 1440 <= in.pels.size(); off += 1440) {
        k.interpRow(&in.pels[off], &in.pels[off + 720], 704, ph, pv,
                    phv);
        if (hash) {
            h = fnv(h, ph, sizeof(ph));
            h = fnv(h, pv, sizeof(pv));
            h = fnv(h, phv, sizeof(phv));
        }
        n += 704;
    }
    *pels = n;
    return h;
}

uint64_t
runAvg(const kn::KernelOps &k, const Inputs &in, uint64_t *pels,
       bool hash)
{
    uint64_t h = kFnvOffset;
    uint64_t n = 0;
    uint8_t out[704];
    for (size_t off = 0; off + 1440 <= in.pels.size(); off += 1440) {
        k.avgRow(&in.pels[off], &in.pels[off + 720], 704, out);
        if (hash)
            h = fnv(h, out, sizeof(out));
        n += 704;
    }
    *pels = n;
    return h;
}

/** K=7 ACS over every symbol block; one decoded bit per step. */
uint64_t
runViterbi(const kn::KernelOps &k, const Inputs &in, bool soft,
           uint64_t *bits, bool hash)
{
    uint64_t h = kFnvOffset;
    std::vector<uint64_t> decisions(kAcsSteps);
    for (size_t b = 0; b < kAcsBlocks; ++b) {
        kn::AcsArgs a;
        a.k = 7;
        a.butterfly = in.butterfly;
        a.symbols = &in.symbols[2 * kAcsSteps * b];
        a.steps = kAcsSteps;
        a.soft = soft;
        a.decisions = decisions.data();
        const uint64_t metric = k.viterbiAcs(a);
        if (hash) {
            h = fnv(h, decisions.data(),
                    decisions.size() * sizeof(uint64_t));
            h = fnv(h, &metric, sizeof(metric));
        }
    }
    *bits = kAcsBlocks * kAcsSteps;
    return h;
}

uint64_t
runViterbiSoft(const kn::KernelOps &k, const Inputs &in, uint64_t *bits,
               bool hash)
{
    return runViterbi(k, in, true, bits, hash);
}

uint64_t
runViterbiHard(const kn::KernelOps &k, const Inputs &in, uint64_t *bits,
               bool hash)
{
    return runViterbi(k, in, false, bits, hash);
}

struct OpSpec
{
    const char *name;
    OpFn fn;
    const char *unit = "pel"; //!< What the work count counts.
};

const OpSpec kOps[] = {
    {"sad16", runSad16},       {"sad_hpel16", runSadHpel16},
    {"fdct", runFdct},         {"idct", runIdct},
    {"quant_h263", runQuant},  {"dequant_h263", runDequant},
    {"predict_row", runPredict}, {"interp_row", runInterp},
    {"avg_row", runAvg},
    {"viterbi_soft", runViterbiSoft, "bit"},
    {"viterbi_hard", runViterbiHard, "bit"},
};

OpResult
timeOp(const OpSpec &spec, const kn::KernelOps &k, const Inputs &in,
       int reps)
{
    OpResult r;
    r.op = spec.name;
    uint64_t pels = 0;
    r.checksum = spec.fn(k, in, &pels, true); // warm-up + checksum
    r.units = static_cast<double>(pels);
    // Timed passes skip the checksum fold (a serial byte chain that
    // would otherwise dilute the kernel's share of the loop); the
    // indirect call through KernelOps keeps the work from being
    // optimised away.  Best-of-5: the minimum is the least-perturbed
    // observation on a shared host, where a single pass can be
    // inflated several-fold by scheduler noise.
    double best = 0;
    for (int pass = 0; pass < 5; ++pass) {
        const double t0 = now_ns();
        for (int i = 0; i < reps; ++i) {
            uint64_t dummy = 0;
            spec.fn(k, in, &dummy, false);
        }
        const double t1 = now_ns();
        if (pass == 0 || t1 - t0 < best)
            best = t1 - t0;
    }
    r.nsPerUnit = best / (static_cast<double>(reps) * r.units);
    uint64_t dummy = 0;
    if (spec.fn(k, in, &dummy, true) != r.checksum)
        r.checksum = ~uint64_t{0}; // nondeterminism marker
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bool fast = false;
    bool scalarOnly = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--fast") == 0)
            fast = true;
        if (std::strcmp(argv[i], "--scalar-only") == 0)
            scalarOnly = true;
    }
    const int reps = fast ? 3 : 40;

    const Inputs inputs;
    std::vector<bench::BenchEntry> entries;

    // Scalar first: it is the reference the speedups and the
    // cross-backend checksum self-check compare against.
    // --scalar-only emits just the portable entries - that is what
    // the committed baseline holds, so the diff works on any host.
    std::vector<kn::Isa> isas;
    for (kn::Isa isa : kn::compiledIsas()) {
        if (scalarOnly && isa != kn::Isa::Scalar)
            continue;
        if (kn::hostSupports(isa))
            isas.push_back(isa);
    }

    std::vector<OpResult> scalarResults;
    bool identical = true;

    for (kn::Isa isa : isas) {
        const kn::KernelOps &k = *kn::opsFor(isa);
        std::printf("\n%s backend:\n", k.name);
        std::printf("  %-12s %12s %14s %10s\n", "kernel", "ns/unit",
                    "checksum", "speedup");
        for (size_t op = 0; op < std::size(kOps); ++op) {
            const OpResult r = timeOp(kOps[op], k, inputs, reps);
            double speedup = 1.0;
            if (isa == kn::Isa::Scalar) {
                scalarResults.push_back(r);
            } else {
                const OpResult &s = scalarResults[op];
                speedup = s.nsPerUnit / r.nsPerUnit;
                if (r.checksum != s.checksum) {
                    identical = false;
                    std::printf("  %-12s CHECKSUM MISMATCH vs "
                                "scalar!\n",
                                r.op.c_str());
                }
            }
            std::printf("  %-12s %12.3f %14" PRIx64 " %9.2fx  (ns/%s)\n",
                        r.op.c_str(), r.nsPerUnit, r.checksum, speedup,
                        kOps[op].unit);

            bench::BenchEntry e;
            e.bench = "kernels/" + r.op + "@" + k.name;
            e.backend = "host";
            e.config.add("kernel", support::JsonValue::of(r.op));
            e.config.add("isa", support::JsonValue::of(k.name));
            e.config.add("reps", support::JsonValue::of(
                                     static_cast<int64_t>(reps)));
            const std::string unit = kOps[op].unit;
            e.metrics.add("wall_ns_per_" + unit,
                          support::JsonValue::of(r.nsPerUnit));
            e.metrics.add(unit + "s", support::JsonValue::of(r.units));
            e.metrics.add(
                "checksum",
                support::JsonValue::of(static_cast<double>(
                    r.checksum >> 11))); // double-exact 53 bits
            if (isa != kn::Isa::Scalar) {
                e.metrics.add("speedup_vs_scalar_wall",
                              support::JsonValue::of(speedup));
            }
            entries.push_back(std::move(e));
        }
    }

    const std::string path =
        bench::benchJsonPath(argc, argv, "BENCH_kernels.json");
    bench::writeBenchEntries(path, entries);
    std::printf("\nbench json: %s (%zu entries)\n", path.c_str(),
                entries.size());

    if (!identical) {
        std::fprintf(stderr,
                     "FATAL: kernel self-check failed - a SIMD "
                     "backend diverged from scalar\n");
        return 1;
    }
    std::printf("self-check: all backends bit-identical to scalar\n");
    return 0;
}
