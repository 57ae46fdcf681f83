/**
 * @file
 * Observability-layer correctness: span nesting, metrics/trace
 * consistency, determinism of the non-timing metrics, exporter
 * well-formedness, and concurrency stress.
 *
 * The determinism contract under test is the one documented in
 * docs/OBSERVABILITY.md: names ending "_us"/"_ns" and everything
 * under "pool." are wall-clock or scheduling artifacts and may vary
 * run to run; every other metric must be bit-identical for a fixed
 * workload and seed, no matter how many worker threads executed it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/machine.hh"
#include "core/runner.hh"
#include "core/workload.hh"
#include "service/events.hh"
#include "support/json.hh"
#include "support/obs/obs.hh"
#include "support/obs/tracemerge.hh"
#include "support/random.hh"
#include "support/threadpool.hh"

namespace m4ps
{
namespace
{

core::Workload
tinyWorkload()
{
    core::Workload w = core::paperWorkload(64, 64, 1, 1);
    w.frames = 6;
    w.gop = {6, 2};
    w.searchRange = 4;
    w.searchRangeB = 2;
    w.targetBps = 5e5;
    w.name = "obs-test";
    return w;
}

/** Encode + decode the tiny workload once (worker threads optional). */
[[maybe_unused]] void
runWorkload(int threads)
{
    support::ThreadPool::setGlobalThreads(threads);
    const core::Workload w = tinyWorkload();
    const std::vector<uint8_t> stream =
        core::ExperimentRunner::encodeUntraced(w);
    ASSERT_FALSE(stream.empty());
    const core::MachineConfig machine = core::o2R12k1MB();
    core::ExperimentRunner::runDecode(w, machine, stream);
    support::ThreadPool::setGlobalThreads(1);
}

/** RAII: clean obs state on entry and exit. */
class ObsSandbox
{
  public:
    ObsSandbox()
    {
        obs::setTracing(false);
        obs::setMetrics(false);
        obs::clearTrace();
        obs::resetMetrics();
    }
    ~ObsSandbox()
    {
        obs::setTracing(false);
        obs::setMetrics(false);
        obs::clearTrace();
        obs::resetMetrics();
    }
};

/**
 * Assert strict nesting of complete events per thread: sorted by
 * start (ties broken longest-first), every event must either start
 * after the enclosing one ends or end within it.  Partial overlap is
 * the failure mode this catches - it would mean a span survived its
 * parent, which the LIFO destruction order is supposed to forbid.
 */
[[maybe_unused]] void
expectStrictNesting(const std::vector<obs::TraceEvent> &events)
{
    std::map<int, std::vector<const obs::TraceEvent *>> byTid;
    for (const obs::TraceEvent &e : events) {
        if (e.phase == 'X')
            byTid[e.tid].push_back(&e);
    }
    ASSERT_FALSE(byTid.empty());
    for (auto &[tid, evs] : byTid) {
        std::sort(evs.begin(), evs.end(),
                  [](const obs::TraceEvent *a, const obs::TraceEvent *b) {
                      if (a->tsNs != b->tsNs)
                          return a->tsNs < b->tsNs;
                      return a->durNs > b->durNs;
                  });
        std::vector<uint64_t> stack; // enclosing end timestamps
        for (const obs::TraceEvent *e : evs) {
            while (!stack.empty() && stack.back() <= e->tsNs)
                stack.pop_back();
            const uint64_t end = e->tsNs + e->durNs;
            if (!stack.empty()) {
                ASSERT_LE(end, stack.back())
                    << "span '" << e->name << "' on tid " << tid
                    << " [" << e->tsNs << ", " << end
                    << ") partially overlaps its enclosing span "
                       "(ends at "
                    << stack.back() << ")";
            }
            stack.push_back(end);
        }
    }
}

TEST(Obs, SpansNestStrictlyPerThreadAcrossFourThreadRun)
{
    ObsSandbox sandbox;
    obs::setTracing(true);
    runWorkload(4);
    obs::setTracing(false);

    const std::vector<obs::TraceEvent> events = obs::snapshotTrace();
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(obs::droppedEvents(), 0u);
    expectStrictNesting(events);

    // The codec hot path must actually be covered: per-VOP spans,
    // per-row spans, and synthesized stage children on both sides.
    std::map<std::string, int> names;
    for (const obs::TraceEvent &e : events)
        ++names[e.name];
    for (const char *must :
         {"enc.vop", "enc.row", "enc.stage.motion", "enc.stage.rlc",
          "dec.vop", "dec.row", "dec.stage.recon", "pool.task",
          "memsim.merge"}) {
        EXPECT_GT(names[must], 0) << "no '" << must << "' span";
    }
}

TEST(Obs, HistogramTotalsMatchCounterSums)
{
    ObsSandbox sandbox;
    obs::setMetrics(true);
    runWorkload(1);
    obs::setMetrics(false);

    const obs::MetricsSnapshot snap = obs::snapshotMetrics();
    const auto hist = snap.histograms.find("enc.row_mb_count");
    ASSERT_NE(hist, snap.histograms.end());

    // Each row observes its macroblock count once: the histogram's
    // sample count is the row count, its value sum the MB count.
    EXPECT_EQ(hist->second.count, snap.counters.at("enc.rows"));
    EXPECT_EQ(static_cast<uint64_t>(hist->second.sum),
              snap.counters.at("enc.mbs"));

    // Bucket counts partition the samples.
    uint64_t bucketTotal = 0;
    for (const uint64_t b : hist->second.buckets)
        bucketTotal += b;
    EXPECT_EQ(bucketTotal, hist->second.count);

    EXPECT_GT(snap.counters.at("enc.vops"), 0u);
    EXPECT_GT(snap.counters.at("dec.mbs"), 0u);
    EXPECT_EQ(snap.counters.at("enc.mbs"), snap.counters.at("dec.mbs"))
        << "decoder must walk exactly the macroblocks the encoder "
           "coded";
}

/** Deterministic slice of a snapshot (docs/OBSERVABILITY.md split). */
std::map<std::string, uint64_t>
deterministicCounters(const obs::MetricsSnapshot &snap)
{
    std::map<std::string, uint64_t> out;
    for (const auto &[name, v] : snap.counters) {
        if (name.rfind("pool.", 0) == 0)
            continue;
        if (name.size() > 3 && (name.compare(name.size() - 3, 3, "_us") == 0 ||
                                name.compare(name.size() - 3, 3, "_ns") == 0))
            continue;
        out[name] = v;
    }
    return out;
}

TEST(Obs, NonTimingMetricsAreDeterministicAcrossThreadedRuns)
{
    ObsSandbox sandbox;

    obs::setMetrics(true);
    runWorkload(4);
    const auto first = deterministicCounters(obs::snapshotMetrics());
    obs::resetMetrics();
    runWorkload(4);
    const auto second = deterministicCounters(obs::snapshotMetrics());
    obs::setMetrics(false);

    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second)
        << "a non-pool, non-timing metric varied between identical "
           "seeded runs; either fix the nondeterminism or rename the "
           "metric with a _us/_ns suffix (docs/OBSERVABILITY.md)";
}

TEST(Obs, ExportersProduceWellFormedDocuments)
{
    ObsSandbox sandbox;
    obs::setTracing(true);
    obs::setMetrics(true);
    runWorkload(2);
    obs::setTracing(false);
    obs::setMetrics(false);

    std::ostringstream trace;
    obs::writeChromeTrace(trace);
    const std::string tj = trace.str();
    EXPECT_EQ(tj.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(tj.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
    EXPECT_NE(tj.find("\"enc.row\""), std::string::npos);
    EXPECT_NE(tj.find("\"ph\":\"X\""), std::string::npos);
    // Every event row carries pid/tid, and the document closes.
    EXPECT_NE(tj.find("\"pid\":1"), std::string::npos);
    EXPECT_EQ(tj.back(), '\n');

    // Timestamps are fixed-point microseconds with exactly three
    // decimals (full ns precision).  Default ostream formatting would
    // quantize a long trace to whole microseconds and make sibling
    // stage spans appear to overlap in the exported document even
    // though the recorded ns nest perfectly.
    for (size_t pos = tj.find("\"ts\":"); pos != std::string::npos;
         pos = tj.find("\"ts\":", pos + 1)) {
        size_t p = pos + 5;
        while (p < tj.size() && std::isdigit(tj[p]))
            ++p;
        ASSERT_LT(p + 3, tj.size());
        ASSERT_EQ(tj[p], '.') << "ts not fixed-point at offset " << pos;
        EXPECT_TRUE(std::isdigit(tj[p + 1]) && std::isdigit(tj[p + 2]) &&
                    std::isdigit(tj[p + 3]) && !std::isdigit(tj[p + 4]))
            << "ts lacks exactly 3 decimals at offset " << pos;
    }

    std::ostringstream metrics;
    obs::writeMetricsText(metrics);
    const std::string mt = metrics.str();
    EXPECT_NE(mt.find("counter enc.mbs "), std::string::npos);
    EXPECT_NE(mt.find("histogram enc.row_mb_count "), std::string::npos);
    EXPECT_NE(mt.find("counter pool.tasks "), std::string::npos);
}

TEST(Obs, DisabledRuntimeRecordsNothing)
{
    ObsSandbox sandbox;
    runWorkload(2); // both switches off
    EXPECT_TRUE(obs::snapshotTrace().empty());
    const obs::MetricsSnapshot snap = obs::snapshotMetrics();
    for (const auto &[name, v] : snap.counters)
        EXPECT_EQ(v, 0u) << "counter " << name << " moved while off";
    for (const auto &[name, h] : snap.histograms)
        EXPECT_EQ(h.count, 0u) << "histogram " << name;
}

TEST(Obs, PerThreadBufferCapDropsInsteadOfGrowing)
{
    ObsSandbox sandbox;
    obs::setTracing(true);
    const size_t cap = 1u << 18;
    const size_t mine =
        cap + 1000 > obs::snapshotTrace().size()
            ? cap + 1000 - obs::snapshotTrace().size()
            : 1000;
    for (size_t i = 0; i < mine; ++i)
        obs::instant("test", "flood");
    obs::setTracing(false);
    EXPECT_GT(obs::droppedEvents(), 0u);
    EXPECT_LE(obs::snapshotTrace().size(), cap);
    obs::clearTrace();
    EXPECT_EQ(obs::droppedEvents(), 0u);
    EXPECT_TRUE(obs::snapshotTrace().empty());
}

TEST(Obs, ConcurrentSpansAndCountersStress)
{
    ObsSandbox sandbox;
    obs::setTracing(true);
    obs::setMetrics(true);

    constexpr int kThreads = 8;
    constexpr int kIters = 500;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([] {
            obs::Counter &c = obs::counter("test.stress");
            obs::Histogram &h =
                obs::histogram("test.stress_hist", {1.0, 10.0});
            for (int i = 0; i < kIters; ++i) {
                obs::Span outer("test", "stress.outer");
                c.add();
                h.observe(static_cast<double>(i % 20));
                {
                    obs::Span inner("test", "stress.inner");
                    obs::gauge("test.stress_gauge").set(i);
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    obs::setTracing(false);
    obs::setMetrics(false);

    const obs::MetricsSnapshot snap = obs::snapshotMetrics();
    EXPECT_EQ(snap.counters.at("test.stress"),
              static_cast<uint64_t>(kThreads) * kIters);
    EXPECT_EQ(snap.histograms.at("test.stress_hist").count,
              static_cast<uint64_t>(kThreads) * kIters);

    const std::vector<obs::TraceEvent> events = obs::snapshotTrace();
    size_t outer = 0, inner = 0;
    for (const obs::TraceEvent &e : events) {
        outer += e.name == "stress.outer";
        inner += e.name == "stress.inner";
    }
    EXPECT_EQ(outer, static_cast<size_t>(kThreads) * kIters);
    EXPECT_EQ(inner, outer);
    expectStrictNesting(events);
}

// --- histogram quantiles ----------------------------------------------

TEST(ObsQuantile, EmptyHistogramYieldsZero)
{
    const std::vector<double> bounds = {1.0, 10.0, 100.0};
    const std::vector<uint64_t> empty(bounds.size() + 1, 0);
    EXPECT_DOUBLE_EQ(obs::quantileFromBuckets(bounds, empty, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(obs::quantileFromBuckets(bounds, empty, 0.99),
                     0.0);
}

TEST(ObsQuantile, AllMassInOneBucketStaysInsideIt)
{
    const std::vector<double> bounds = {1.0, 10.0, 100.0};
    std::vector<uint64_t> buckets(bounds.size() + 1, 0);
    buckets[1] = 1000; // everything in [1, 10)
    for (const double q : {0.01, 0.5, 0.99}) {
        const double v = obs::quantileFromBuckets(bounds, buckets, q);
        EXPECT_GE(v, 1.0) << "q=" << q;
        EXPECT_LE(v, 10.0) << "q=" << q;
    }
    // And the interpolation is monotone in q.
    EXPECT_LT(obs::quantileFromBuckets(bounds, buckets, 0.1),
              obs::quantileFromBuckets(bounds, buckets, 0.9));
}

TEST(ObsQuantile, OverflowMassClampsToTheLastBound)
{
    const std::vector<double> bounds = {1.0, 10.0, 100.0};
    std::vector<uint64_t> buckets(bounds.size() + 1, 0);
    buckets.back() = 7; // beyond the largest bound
    // The overflow bucket has no upper edge; the honest answer is
    // the last finite bound, not an invented extrapolation.
    EXPECT_DOUBLE_EQ(obs::quantileFromBuckets(bounds, buckets, 0.5),
                     100.0);
    EXPECT_DOUBLE_EQ(obs::quantileFromBuckets(bounds, buckets, 0.99),
                     100.0);
}

TEST(ObsQuantile, AgreesWithExactQuantilesWithinOneBucketWidth)
{
    const std::vector<double> bounds = {5, 10, 20, 50, 100, 200, 500};
    std::vector<uint64_t> buckets(bounds.size() + 1, 0);

    // Seeded sample with mass across several buckets.
    Rng rng(42);
    std::vector<double> sample;
    for (int i = 0; i < 2000; ++i) {
        const double v = rng.uniformReal() * 300.0;
        sample.push_back(v);
        size_t b = 0;
        while (b < bounds.size() && v >= bounds[b])
            ++b;
        ++buckets[b];
    }
    std::sort(sample.begin(), sample.end());

    for (const double q : {0.25, 0.5, 0.9, 0.99}) {
        const double exact =
            sample[static_cast<size_t>(q * (sample.size() - 1))];
        const double approx =
            obs::quantileFromBuckets(bounds, buckets, q);
        // The estimate can never leave the bucket holding the exact
        // quantile: error is bounded by that bucket's width.
        double lo = 0.0, hi = bounds.back();
        for (const double b : bounds) {
            if (exact < b) {
                hi = b;
                break;
            }
            lo = b;
        }
        EXPECT_GE(approx, lo) << "q=" << q << " exact=" << exact;
        EXPECT_LE(approx, hi) << "q=" << q << " exact=" << exact;
    }
}

// --- cross-process identity and the trace exporter ---------------------

TEST(ObsTrace, ExportCarriesProcessMetadataAndTraceId)
{
    ObsSandbox sandbox;
    obs::setTraceId("trace-test-1");
    obs::setProcessName("unit-test");
    obs::setTracing(true);
    {
        obs::Span s("test", "identity.span");
    }
    obs::setTracing(false);

    std::ostringstream os;
    obs::writeChromeTrace(os);
    const std::string tj = os.str();

    // Named track metadata for Perfetto, and the correlation id on
    // both the document and every event's args.
    EXPECT_NE(tj.find("\"name\":\"process_name\""), std::string::npos);
    EXPECT_NE(tj.find("\"name\":\"thread_name\""), std::string::npos);
    EXPECT_NE(tj.find("{\"name\":\"unit-test\"}"), std::string::npos);
    EXPECT_NE(tj.find("\"trace_id\":\"trace-test-1\""),
              std::string::npos);
    EXPECT_NE(tj.find("\"traceId\":\"trace-test-1\""),
              std::string::npos);
    EXPECT_NE(tj.find("\"traceEpochRealtimeUs\":"), std::string::npos);

    obs::setTraceId("");
    obs::setProcessName("");
}

TEST(ObsTrace, TraceIdIsEscapedInEveryEvent)
{
    // The id may come from the environment (M4PS_TRACE_ID), so it can
    // hold anything a JSON string has to escape.
    const std::string id = "q\"x\\y\nz";
    ObsSandbox sandbox;
    obs::setTraceId(id);
    obs::setTracing(true);
    {
        obs::Span bare("test", "bare.span");
        obs::Span withArgs("test", "args.span");
        withArgs.setArgs("{\"k\":1}");
    }
    obs::setTracing(false);
    std::ostringstream os;
    obs::writeChromeTrace(os);
    obs::setTraceId("");

    const support::JsonValue doc = support::parseJson(os.str());
    EXPECT_EQ(doc.find("otherData")->stringOr("traceId", ""), id);
    int spans = 0;
    for (const support::JsonValue &e : doc.find("traceEvents")->array) {
        if (e.stringOr("ph", "") == "M")
            continue; // track metadata carries no id
        ++spans;
        ASSERT_NE(e.find("args"), nullptr) << e.stringOr("name", "");
        EXPECT_EQ(e.find("args")->stringOr("trace_id", ""), id)
            << e.stringOr("name", "");
    }
    EXPECT_EQ(spans, 2);
}

TEST(ObsTrace, ShardsMergeOntoOneClockWithNamedTracks)
{
    // Three synthetic shards: two anchored 1 s apart sharing a trace
    // id, one legacy shard with neither anchor nor id.
    const char *shardA =
        "{\"traceEvents\":[{\"name\":\"a\",\"cat\":\"t\",\"ph\":\"X\","
        "\"ts\":100.0,\"dur\":5.0,\"pid\":1,\"tid\":0,"
        "\"args\":{\"trace_id\":\"batch-7\"}}],"
        "\"otherData\":{\"traceEpochRealtimeUs\":1000000,"
        "\"traceId\":\"batch-7\"}}";
    const char *shardB =
        "{\"traceEvents\":[{\"name\":\"b\",\"cat\":\"t\",\"ph\":\"X\","
        "\"ts\":200.0,\"dur\":5.0,\"pid\":1,\"tid\":0,"
        "\"args\":{\"trace_id\":\"batch-7\"}},"
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
        "\"args\":{\"name\":\"worker:enc0\"}}],"
        "\"otherData\":{\"traceEpochRealtimeUs\":2000000,"
        "\"traceId\":\"batch-7\"}}";
    const char *shardC =
        "{\"traceEvents\":[{\"name\":\"c\",\"cat\":\"t\",\"ph\":\"X\","
        "\"ts\":300.0,\"dur\":5.0,\"pid\":1,\"tid\":0}]}";

    std::vector<obs::TraceShard> shards(3);
    shards[0].label = "supervisor";
    shards[0].doc = support::parseJson(shardA);
    shards[1].label = "worker";
    shards[1].doc = support::parseJson(shardB);
    shards[2].label = "legacy";
    shards[2].doc = support::parseJson(shardC);

    obs::MergeInfo info;
    const support::JsonValue merged =
        obs::mergeTraceShards(shards, &info);
    EXPECT_EQ(info.shards, 3);
    EXPECT_EQ(info.events, 3);
    EXPECT_EQ(info.anchoredShards, 2);
    EXPECT_EQ(info.traceId, "batch-7");
    EXPECT_FALSE(info.traceIdMismatch);

    const support::JsonValue *evs = merged.find("traceEvents");
    ASSERT_NE(evs, nullptr);
    double tsA = -1, tsB = -1, tsC = -1;
    std::map<int, std::string> names;
    for (const support::JsonValue &e : evs->array) {
        const std::string name = e.stringOr("name", "");
        if (name == "a")
            tsA = e.numberOr("ts", -1);
        if (name == "b")
            tsB = e.numberOr("ts", -1);
        if (name == "c")
            tsC = e.numberOr("ts", -1);
        if (name == "process_name") {
            const support::JsonValue *a = e.find("args");
            ASSERT_NE(a, nullptr);
            names[static_cast<int>(e.numberOr("pid", 0))] =
                a->stringOr("name", "");
        }
    }
    // Shard B started 1 s after shard A: its events shift right by
    // exactly the anchor difference; the unanchored shard stays put.
    EXPECT_DOUBLE_EQ(tsA, 100.0);
    EXPECT_DOUBLE_EQ(tsB, 200.0 + 1e6);
    EXPECT_DOUBLE_EQ(tsC, 300.0);
    // Every shard owns a named track: existing metadata is re-pidded,
    // missing metadata is synthesized from the label.
    EXPECT_EQ(names[1], "supervisor");
    EXPECT_EQ(names[2], "worker:enc0");
    EXPECT_EQ(names[3], "legacy");
}

TEST(ObsTrace, EventLogLinesCarryTheTraceId)
{
    obs::setTraceId("evt-trace-9");
    service::EventLog log;
    log.emit(service::JsonEvent("unit_event").num("k", 1));
    obs::setTraceId("");

    ASSERT_EQ(log.lines().size(), 1u);
    const std::string &line = log.lines()[0];
    EXPECT_NE(line.find("\"trace_id\":\"evt-trace-9\""),
              std::string::npos)
        << line;
    // Appended at the closing brace: prefix-based count() still sees
    // the event type first.
    EXPECT_EQ(log.count("unit_event"), 1);

    // And without an id set, lines are unchanged.
    service::EventLog bare;
    bare.emit(service::JsonEvent("unit_event"));
    EXPECT_EQ(bare.lines()[0].find("trace_id"), std::string::npos);
}

} // namespace
} // namespace m4ps
