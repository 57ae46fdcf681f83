/**
 * @file
 * bench_obs_overhead: the observability layer's cost contract.
 *
 * docs/OBSERVABILITY.md promises that disabled instrumentation is
 * near-free (< 2% of encode wall time).  This harness checks that
 * claim two ways:
 *
 *  1. Micro: the per-site disabled cost of each primitive (Span
 *     construct+destruct, Counter::add, StageScope) measured over
 *     millions of iterations - each should be a relaxed atomic load
 *     and a predicted branch, i.e. ~1ns.
 *  2. Macro: per-site cost x the number of sites an instrumented
 *     encode actually executes (counted via the metrics themselves),
 *     as a fraction of the same encode's wall time.  Exits 1 when the
 *     estimate breaches the 2% budget, so CI can gate on it.
 *
 * The enabled-mode cost (tracing + metrics recording) is reported
 * informationally; it has no budget - you only pay it when you asked
 * for a trace.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_json.hh"
#include "core/runner.hh"
#include "core/workload.hh"
#include "support/obs/obs.hh"

namespace
{

using namespace m4ps;

double
nowSec()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

core::Workload
benchWorkload()
{
    core::Workload w = core::paperWorkload(128, 128, 1, 1);
    w.frames = core::benchFrames(8);
    w.gop = {6, 2};
    w.targetBps = 1e6;
    w.name = "obs-overhead";
    return w;
}

/** Median encode wall seconds over @p reps runs. */
double
encodeWallSec(const core::Workload &w, int reps)
{
    std::vector<double> times;
    times.reserve(reps);
    for (int i = 0; i < reps; ++i) {
        const double t0 = nowSec();
        const std::vector<uint8_t> stream =
            core::ExperimentRunner::encodeUntraced(w);
        times.push_back(nowSec() - t0);
        if (stream.empty())
            std::abort();
    }
    std::sort(times.begin(), times.end());
    return times[times.size() / 2];
}

/** ns per iteration of @p body over @p iters runs. */
template <typename F>
double
perSiteNs(int iters, F &&body)
{
    const double t0 = nowSec();
    for (int i = 0; i < iters; ++i)
        body(i);
    return (nowSec() - t0) * 1e9 / iters;
}

} // namespace

namespace
{

/** All timings are host-dependent: soft metrics only (bench_json.hh
 *  naming convention), so the committed baseline never hard-fails on
 *  a slow runner. */
void
emitJson(int argc, char **argv, double span_ns, double counter_ns,
         double stage_ns, double sites, double wall_off_sec,
         double wall_on_sec, double est_pct)
{
    using support::JsonValue;
    bench::BenchEntry e;
    e.bench = "obs_overhead";
    e.backend = "host";
    e.metrics.add("span_site_ns", JsonValue::of(span_ns));
    e.metrics.add("counter_site_ns", JsonValue::of(counter_ns));
    e.metrics.add("stage_site_ns", JsonValue::of(stage_ns));
    e.metrics.add("sites_overhead_count", JsonValue::of(sites));
    e.metrics.add("wall_off_seconds", JsonValue::of(wall_off_sec));
    e.metrics.add("wall_on_seconds", JsonValue::of(wall_on_sec));
    e.metrics.add("est_overhead_pct", JsonValue::of(est_pct));
    const std::string path =
        bench::benchJsonPath(argc, argv, "BENCH_obs.json");
    bench::writeBenchEntries(path, {e});
    std::printf("wrote %s\n", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    obs::setTracing(false);
    obs::setMetrics(false);

    // --- Micro: per-site disabled cost -----------------------------
    constexpr int kIters = 5'000'000;
    static obs::Counter &c = obs::counter("bench.disabled");
    obs::StageTimes st;

    const double spanNs = perSiteNs(kIters, [](int) {
        obs::Span s("bench", "bench.site");
    });
    const double counterNs = perSiteNs(kIters, [](int) { c.add(); });
    const double stageNs = perSiteNs(kIters, [&](int) {
        obs::StageScope scope(st, obs::Stage::Motion);
    });
    const double worstNs =
        std::max({spanNs, counterNs, stageNs});

    std::printf("disabled per-site cost:\n");
    std::printf("  span      %6.2f ns\n", spanNs);
    std::printf("  counter   %6.2f ns\n", counterNs);
    std::printf("  stage     %6.2f ns\n", stageNs);

    // --- Macro: sites per encode (counted by the layer itself) -----
    const core::Workload w = benchWorkload();
    obs::resetMetrics();
    obs::setMetrics(true);
    core::ExperimentRunner::encodeUntraced(w);
    obs::setMetrics(false);
    const obs::MetricsSnapshot snap = obs::snapshotMetrics();
    const uint64_t mbs = snap.counters.at("enc.mbs");
    const uint64_t rows = snap.counters.at("enc.rows");
    const uint64_t vops = snap.counters.at("enc.vops");
    obs::resetMetrics();

    // Site census per unit of work (src/codec/vop.cc):
    //  - per MB: four StageScope enters (motion, dct, rlc, recon);
    //  - per row: one Span, one beginStages, one emitStageSpans (four
    //    histogram observes), two counters, one histogram - call it 8;
    //  - per VOP: one Span plus a handful of counters - call it 8.
    const double sites = 4.0 * static_cast<double>(mbs) +
                         8.0 * static_cast<double>(rows) +
                         8.0 * static_cast<double>(vops);

    const double wallOff = encodeWallSec(w, 5);
    const double estOverheadSec = sites * worstNs * 1e-9;
    const double estPct = 100.0 * estOverheadSec / wallOff;

    std::printf("\nencode %s: %d frames, %llu MBs, %llu rows, "
                "%llu VOPs\n",
                w.sizeLabel().c_str(), w.frames,
                static_cast<unsigned long long>(mbs),
                static_cast<unsigned long long>(rows),
                static_cast<unsigned long long>(vops));
    std::printf("median encode wall (obs disabled): %.3f s\n", wallOff);
    std::printf("estimated disabled overhead: %.0f sites x %.2f ns = "
                "%.3f ms (%.3f%% of wall)\n",
                sites, worstNs, estOverheadSec * 1e3, estPct);

    // --- Informational: fully enabled ------------------------------
    obs::setTracing(true);
    obs::setMetrics(true);
    const double wallOn = encodeWallSec(w, 5);
    obs::setTracing(false);
    obs::setMetrics(false);
    obs::clearTrace();
    obs::resetMetrics();
    std::printf("median encode wall (tracing+metrics on): %.3f s "
                "(%+.1f%% vs disabled, informational)\n",
                wallOn, 100.0 * (wallOn - wallOff) / wallOff);

    emitJson(argc, argv, spanNs, counterNs, stageNs, sites, wallOff,
             wallOn, estPct);

    constexpr double kBudgetPct = 2.0;
    if (estPct >= kBudgetPct) {
        std::printf("FAIL: disabled overhead %.3f%% >= %.1f%% budget\n",
                    estPct, kBudgetPct);
        return 1;
    }
    std::printf("PASS: disabled overhead %.3f%% < %.1f%% budget\n",
                estPct, kBudgetPct);
    return 0;
}
