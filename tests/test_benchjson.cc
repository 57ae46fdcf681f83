/**
 * @file
 * The unified bench JSON pipeline: path resolution and read-modify-
 * write merging in bench/bench_json.hh, and the regression diff in
 * core/benchdiff.hh that tools/bench_compare gates CI on.
 *
 * The key CI property under test: an injected drift in a hard
 * (counter/ratio/verdict) metric makes hardRegression() true - the
 * exit-1 path of bench_compare - while timing drift only warns and
 * *extra* benches/metrics never fail the comparison.
 *
 * Also the memoized experiment grid behind bench_paper
 * (bench/bench_util.hh): a cell runs once, it is found by the whole
 * workload and the whole machine, and its counters are those of a
 * direct traced run of the same workload on the same machine.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_json.hh"
#include "bench/bench_util.hh"
#include "core/benchdiff.hh"
#include "core/fallacies.hh"
#include "core/machine.hh"
#include "core/runner.hh"
#include "support/json.hh"

namespace m4ps
{
namespace
{

using support::JsonValue;

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

bench::BenchEntry
entry(const std::string &name, double l1MissRate, double seconds)
{
    bench::BenchEntry e;
    e.bench = name;
    e.config.add("frames", JsonValue::of(int64_t{2}));
    e.metrics.add("l1_miss_rate", JsonValue::of(l1MissRate));
    e.metrics.add("modelled_seconds", JsonValue::of(seconds));
    return e;
}

/** m4ps-bench-v1 document from entries, via the writer itself. */
JsonValue
docOf(const std::string &file,
      const std::vector<bench::BenchEntry> &entries)
{
    const std::string path = tempPath(file);
    std::remove(path.c_str());
    bench::writeBenchEntries(path, entries);
    JsonValue doc = support::parseJsonFile(path);
    std::remove(path.c_str());
    return doc;
}

TEST(BenchJson, WriteCreatesSchemaAndMergesByBenchName)
{
    const std::string path = tempPath("bench_merge.json");
    std::remove(path.c_str());

    bench::writeBenchEntries(
        path, {entry("table2/a", 0.005, 1.0),
               entry("table2/b", 0.006, 2.0)});
    JsonValue doc = support::parseJsonFile(path);
    EXPECT_EQ(doc.stringOr("schema", ""), "m4ps-bench-v1");
    ASSERT_TRUE(doc.at("benches").isArray());
    ASSERT_EQ(doc.at("benches").array.size(), 2u);

    // Re-running one bench replaces its row in place and appends the
    // new one; the untouched row survives.
    bench::writeBenchEntries(
        path, {entry("table2/b", 0.042, 9.0),
               entry("table3/c", 0.007, 3.0)});
    doc = support::parseJsonFile(path);
    const auto &benches = doc.at("benches").array;
    ASSERT_EQ(benches.size(), 3u);
    EXPECT_EQ(benches[0].stringOr("bench", ""), "table2/a");
    EXPECT_EQ(benches[1].stringOr("bench", ""), "table2/b");
    EXPECT_DOUBLE_EQ(
        benches[1].find("metrics")->numberOr("l1_miss_rate", 0),
        0.042);
    EXPECT_EQ(benches[2].stringOr("bench", ""), "table3/c");
    EXPECT_EQ(benches[2].stringOr("backend", ""), "memsim");
    std::remove(path.c_str());
}

TEST(BenchJson, PathResolutionHonoursFlagThenEnv)
{
    const char *saved = std::getenv("M4PS_BENCH_JSON_DIR");
    ::unsetenv("M4PS_BENCH_JSON_DIR");

    // Explicit --json-out wins in both spellings.
    {
        const char *argv[] = {"bench", "--json-out", "/x/out.json"};
        EXPECT_EQ(bench::benchJsonPath(3,
                                       const_cast<char **>(argv),
                                       "BENCH_d.json"),
                  "/x/out.json");
    }
    {
        const char *argv[] = {"bench", "--json-out=/y/out.json"};
        EXPECT_EQ(bench::benchJsonPath(2,
                                       const_cast<char **>(argv),
                                       "BENCH_d.json"),
                  "/y/out.json");
    }

    // Next the environment directory...
    ::setenv("M4PS_BENCH_JSON_DIR", "/env/dir", 1);
    {
        const char *argv[] = {"bench"};
        EXPECT_EQ(bench::benchJsonPath(1,
                                       const_cast<char **>(argv),
                                       "BENCH_d.json"),
                  "/env/dir/BENCH_d.json");
    }

    // ...and without it, somewhere fixed that ends in the default
    // name (the configured repository root).
    ::unsetenv("M4PS_BENCH_JSON_DIR");
    {
        const char *argv[] = {"bench"};
        const std::string p = bench::benchJsonPath(
            1, const_cast<char **>(argv), "BENCH_d.json");
        ASSERT_GE(p.size(), std::string("BENCH_d.json").size());
        EXPECT_EQ(p.substr(p.size() - 12), "BENCH_d.json");
    }

    if (saved)
        ::setenv("M4PS_BENCH_JSON_DIR", saved, 1);
}

TEST(BenchDiff, TimingMetricClassification)
{
    EXPECT_TRUE(core::isTimingMetric("span_site_ns"));
    EXPECT_TRUE(core::isTimingMetric("encode_us"));
    EXPECT_TRUE(core::isTimingMetric("frame_ms"));
    EXPECT_TRUE(core::isTimingMetric("modelled_seconds"));
    EXPECT_TRUE(core::isTimingMetric("wall_on"));
    EXPECT_TRUE(core::isTimingMetric("est_overhead_pct"));
    EXPECT_TRUE(core::isTimingMetric("cycles_per_pel"));
    // Load-dependent serve metrics are host-variable, warn-only.
    EXPECT_TRUE(core::isTimingMetric("sessions_per_sec"));
    EXPECT_TRUE(core::isTimingMetric("shed_frac"));
    EXPECT_TRUE(core::isTimingMetric("queue_peak_occupancy"));
    EXPECT_FALSE(core::isTimingMetric("l1_miss_rate"));
    EXPECT_FALSE(core::isTimingMetric("stream_bytes"));
    EXPECT_FALSE(core::isTimingMetric("accounted_frac"));
    EXPECT_FALSE(core::isTimingMetric("grad_loads"));
    EXPECT_FALSE(core::isTimingMetric("verdict_cache_friendly"));
}

TEST(BenchDiff, IdenticalDocumentsProduceNoFindings)
{
    const JsonValue doc = docOf("bench_id.json",
                                {entry("t/a", 0.005, 1.0),
                                 entry("t/b", 0.006, 2.0)});
    const core::BenchDiffResult res = core::diffBenchDocs(doc, doc);
    EXPECT_TRUE(res.findings.empty());
    EXPECT_FALSE(res.hardRegression());
    EXPECT_EQ(res.benchesCompared, 2);
    EXPECT_EQ(res.metricsCompared, 4);
}

TEST(BenchDiff, CounterDriftIsAHardRegression)
{
    const JsonValue base =
        docOf("bench_base.json", {entry("t/a", 0.005, 1.0)});
    // l1_miss_rate drifts 20%: far past the 1e-9 default.
    const JsonValue cur =
        docOf("bench_cur.json", {entry("t/a", 0.006, 1.0)});
    const core::BenchDiffResult res = core::diffBenchDocs(base, cur);
    ASSERT_EQ(res.findings.size(), 1u);
    const core::BenchFinding &f = res.findings[0];
    EXPECT_EQ(f.kind, core::BenchFinding::Kind::HardDrift);
    EXPECT_EQ(f.bench, "t/a");
    EXPECT_EQ(f.metric, "l1_miss_rate");
    EXPECT_TRUE(f.hard());
    EXPECT_TRUE(res.hardRegression());
    EXPECT_NEAR(f.relDiff, 0.2, 1e-6);
    EXPECT_FALSE(f.str().empty());
}

TEST(BenchDiff, TimingDriftOnlyWarns)
{
    const JsonValue base =
        docOf("bench_tb.json", {entry("t/a", 0.005, 1.0)});
    // modelled_seconds quadruples: way past timingTolerance 0.5,
    // but timings never fail the comparison.
    const JsonValue cur =
        docOf("bench_tc.json", {entry("t/a", 0.005, 4.0)});
    const core::BenchDiffResult res = core::diffBenchDocs(base, cur);
    ASSERT_EQ(res.findings.size(), 1u);
    EXPECT_EQ(res.findings[0].kind,
              core::BenchFinding::Kind::SoftDrift);
    EXPECT_FALSE(res.findings[0].hard());
    EXPECT_FALSE(res.hardRegression());

    // Within the generous timing tolerance: silence.
    const JsonValue close =
        docOf("bench_td.json", {entry("t/a", 0.005, 1.2)});
    EXPECT_TRUE(core::diffBenchDocs(base, close).findings.empty());
}

TEST(BenchDiff, MissingBenchAndHardMetricFail)
{
    const JsonValue base = docOf("bench_mb.json",
                                 {entry("t/a", 0.005, 1.0),
                                  entry("t/b", 0.006, 2.0)});
    // Current lost bench t/b entirely.
    const JsonValue cur =
        docOf("bench_mc.json", {entry("t/a", 0.005, 1.0)});
    core::BenchDiffResult res = core::diffBenchDocs(base, cur);
    ASSERT_EQ(res.findings.size(), 1u);
    EXPECT_EQ(res.findings[0].kind,
              core::BenchFinding::Kind::MissingBench);
    EXPECT_TRUE(res.hardRegression());

    // Current lost a hard metric from a present bench.
    bench::BenchEntry noCounter;
    noCounter.bench = "t/a";
    noCounter.metrics.add("modelled_seconds", JsonValue::of(1.0));
    const JsonValue cur2 = docOf(
        "bench_md.json", {noCounter, entry("t/b", 0.006, 2.0)});
    res = core::diffBenchDocs(base, cur2);
    ASSERT_EQ(res.findings.size(), 1u);
    EXPECT_EQ(res.findings[0].kind,
              core::BenchFinding::Kind::MissingMetric);
    EXPECT_EQ(res.findings[0].metric, "l1_miss_rate");
    EXPECT_TRUE(res.hardRegression());
}

TEST(BenchDiff, ExtrasAndMissingTimingsAreNotRegressions)
{
    const JsonValue base =
        docOf("bench_xb.json", {entry("t/a", 0.005, 1.0)});

    // Current gained a bench and a metric, and dropped a timing.
    bench::BenchEntry a;
    a.bench = "t/a";
    a.metrics.add("l1_miss_rate", JsonValue::of(0.005));
    a.metrics.add("new_counter", JsonValue::of(int64_t{7}));
    const JsonValue cur = docOf("bench_xc.json",
                                {a, entry("t/new", 0.001, 0.5)});
    const core::BenchDiffResult res = core::diffBenchDocs(base, cur);
    EXPECT_TRUE(res.findings.empty())
        << "extra benches/metrics and dropped timings must not fail";
    EXPECT_FALSE(res.hardRegression());
}

TEST(BenchDiff, RejectsDocumentsWithoutBenchesArray)
{
    const JsonValue bad = support::parseJson("{\"schema\":\"x\"}");
    const JsonValue good =
        docOf("bench_rj.json", {entry("t/a", 0.005, 1.0)});
    EXPECT_THROW(core::diffBenchDocs(bad, good),
                 support::JsonError);
    EXPECT_THROW(core::diffBenchDocs(good, bad),
                 support::JsonError);
}

// --- the memoized paper grid ------------------------------------------

/** Tiny paper workload: the grid's logic, not the codec, is on test. */
constexpr int kTinyFrames = 2;

core::Workload
tinyWorkload()
{
    core::Workload wl = core::paperWorkload(64, 64, 1, 1);
    wl.frames = kTinyFrames;
    return wl;
}

size_t
runLines(const std::string &out)
{
    size_t n = 0;
    for (size_t at = out.find("info: running "); at != std::string::npos;
         at = out.find("info: running ", at + 1))
        ++n;
    return n;
}

TEST(PaperGrid, RepeatRequestReturnsTheStoredCellWithoutRerunning)
{
    bench::PaperGrid grid;
    const core::Workload kTiny = tinyWorkload();
    const core::MachineConfig m = core::o2R12k1MB();

    ::testing::internal::CaptureStdout();
    const bench::GridCell &first =
        grid.cell(kTiny, m, bench::Direction::Decode);
    const std::string firstOut =
        ::testing::internal::GetCapturedStdout();
    ::testing::internal::CaptureStdout();
    const bench::GridCell &again =
        grid.cell(kTiny, m, bench::Direction::Decode);
    const std::string againOut =
        ::testing::internal::GetCapturedStdout();

    EXPECT_EQ(&first, &again);
    EXPECT_EQ(runLines(firstOut), 1u) << firstOut;
    EXPECT_NE(firstOut.find("info: running 1VO-1VOL-64x64 on R12K/1MB "
                            "(decode, 2 frames)"),
              std::string::npos)
        << firstOut;
    EXPECT_EQ(againOut, "");

    // The other direction and another machine are cells of their own.
    ::testing::internal::CaptureStdout();
    const bench::GridCell &enc =
        grid.cell(kTiny, m, bench::Direction::Encode);
    const bench::GridCell &other =
        grid.cell(kTiny, core::onyxR10k2MB(), bench::Direction::Decode);
    EXPECT_EQ(runLines(::testing::internal::GetCapturedStdout()), 2u);
    EXPECT_NE(&enc, &first);
    EXPECT_NE(&other, &first);
}

TEST(PaperGrid, CellsEqualDirectRunsOnTheirOwnMachine)
{
    bench::PaperGrid grid;
    const core::Workload kTiny = tinyWorkload();
    for (const core::MachineConfig &m : core::paperMachines()) {
        ::testing::internal::CaptureStdout();
        const bench::GridCell &enc =
            grid.cell(kTiny, m, bench::Direction::Encode);
        const bench::GridCell &dec =
            grid.cell(kTiny, m, bench::Direction::Decode);
        ::testing::internal::GetCapturedStdout();

        EXPECT_EQ(enc.workload.frames, kTinyFrames);
        EXPECT_EQ(enc.workload.sizeLabel(), "64x64");
        EXPECT_EQ(enc.machine.label(), m.label());
        EXPECT_EQ(dec.machine.label(), m.label());
        EXPECT_EQ(enc.label(), "64x64 " + m.label());

        // The grid decodes an untraced encode; the direct decode
        // reads the traced encode's stream.  Both must agree.
        std::vector<uint8_t> stream;
        const core::RunResult directEnc =
            core::ExperimentRunner::runEncode(enc.workload, m, &stream);
        const core::RunResult directDec =
            core::ExperimentRunner::runDecode(enc.workload, m, stream);
        EXPECT_TRUE(enc.run.whole.ctrs == directEnc.whole.ctrs)
            << m.label();
        EXPECT_TRUE(dec.run.whole.ctrs == directDec.whole.ctrs)
            << m.label();
        EXPECT_TRUE(enc.run.regions.at("VopEncode").ctrs ==
                    directEnc.regions.at("VopEncode").ctrs);
        EXPECT_TRUE(dec.run.regions.at("VopDecode").ctrs ==
                    directDec.regions.at("VopDecode").ctrs);
        EXPECT_EQ(enc.run.streamBytes, directEnc.streamBytes);
        EXPECT_EQ(dec.run.streamBytes, directDec.streamBytes);

        // Entries judge each cell on its own machine, whatever its
        // position in the list.
        const std::vector<bench::BenchEntry> entries =
            bench::gridBenchEntries("t", {&dec});
        ASSERT_EQ(entries.size(), 1u);
        EXPECT_EQ(entries[0].bench, "t/64x64 " + m.label());
        const core::FallacyVerdicts v =
            core::judge(directDec.whole, m);
        const JsonValue &metrics = entries[0].metrics;
        EXPECT_EQ(metrics.numberOr("verdict_cache_friendly", -1),
                  v.cacheFriendly);
        EXPECT_EQ(metrics.numberOr("verdict_not_latency_bound", -1),
                  v.notLatencyBound);
        EXPECT_EQ(metrics.numberOr("verdict_not_bandwidth_bound", -1),
                  v.notBandwidthBound);
        EXPECT_EQ(metrics.numberOr("l2_misses", -1),
                  double(directDec.whole.ctrs.l2Misses));
    }
}

TEST(PaperGrid, CellsAreKeyedByTheWholeWorkloadAndMachine)
{
    // Sweep points share a workload name or a machine label with the
    // paper's cells; each must still be a cell of its own.
    bench::PaperGrid grid;
    const core::Workload tiny = tinyWorkload();
    const core::MachineConfig o2 = core::o2R12k1MB();
    const core::MachineConfig custom = core::customL2Machine(1 << 20);
    core::MachineConfig smallL1 = o2;
    smallL1.l1.sizeBytes = 1024;
    ASSERT_EQ(o2.label(), custom.label());
    ASSERT_EQ(o2.label(), smallL1.label());

    ::testing::internal::CaptureStdout();
    const bench::GridCell &onO2 =
        grid.cell(tiny, o2, bench::Direction::Decode);
    const bench::GridCell &onCustom =
        grid.cell(tiny, custom, bench::Direction::Decode);
    const bench::GridCell &onSmallL1 =
        grid.cell(tiny, smallL1, bench::Direction::Decode);
    EXPECT_EQ(runLines(::testing::internal::GetCapturedStdout()), 3u);
    EXPECT_NE(&onCustom, &onO2);
    EXPECT_NE(onCustom.run.whole.ctrs.stallDramCycles,
              onO2.run.whole.ctrs.stallDramCycles);
    EXPECT_NE(&onSmallL1, &onO2);
    EXPECT_GT(onSmallL1.run.whole.ctrs.l1Misses,
              onO2.run.whole.ctrs.l1Misses);

    // Same name, different rate: each decode reads its own stream.
    core::Workload fast = tiny;
    fast.targetBps = 1e6;
    ASSERT_EQ(fast.name, tiny.name);
    ::testing::internal::CaptureStdout();
    const bench::GridCell &slowDec =
        grid.cell(tiny, o2, bench::Direction::Decode);
    const bench::GridCell &fastDec =
        grid.cell(fast, o2, bench::Direction::Decode);
    EXPECT_EQ(runLines(::testing::internal::GetCapturedStdout()), 1u)
        << "the repeated request must not run again";
    EXPECT_EQ(&slowDec, &onO2);
    const uint64_t slowBytes =
        core::ExperimentRunner::encodeUntraced(tiny).size();
    const uint64_t fastBytes =
        core::ExperimentRunner::encodeUntraced(fast).size();
    EXPECT_NE(slowBytes, fastBytes);
    EXPECT_EQ(slowDec.run.streamBytes, slowBytes);
    EXPECT_EQ(fastDec.run.streamBytes, fastBytes);
}

} // namespace
} // namespace m4ps
