/**
 * @file
 * Live-service STATS facility: the M4SS wire frame, the windowed
 * snapshot math (rates from ring deltas, not lifetime averages), and
 * full-daemon integration where the served m4ps-stats-v1 document is
 * cross-checked against the event log - the one source of truth both
 * planes are supposed to agree on (docs/OBSERVABILITY.md).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/runner.hh"
#include "fec/frame.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/stats.hh"
#include "service/pipeline.hh"
#include "support/fileio.hh"
#include "support/json.hh"
#include "support/obs/obs.hh"

namespace m4ps::serve
{
namespace
{

// --- wire frame --------------------------------------------------------

TEST(StatsProtocol, StatsRequestRoundTripsAndConsumesExactly)
{
    const std::vector<uint8_t> wire = encodeStatsRequest();
    ASSERT_EQ(wire.size(), 12u);
    EXPECT_EQ(std::memcmp(wire.data(), kStatsMagic, 4), 0);

    size_t consumed = 0;
    EXPECT_EQ(parseStatsRequest(wire.data(), wire.size(), &consumed),
              ParseResult::Ok);
    EXPECT_EQ(consumed, wire.size());

    // Trailing session bytes after the frame stay untouched.
    std::vector<uint8_t> padded = wire;
    padded.push_back(0xAB);
    consumed = 0;
    EXPECT_EQ(parseStatsRequest(padded.data(), padded.size(),
                                &consumed),
              ParseResult::Ok);
    EXPECT_EQ(consumed, 12u);
}

TEST(StatsProtocol, ShortOrForeignPrefixesClassifyTotally)
{
    const std::vector<uint8_t> wire = encodeStatsRequest();
    size_t consumed = 0;
    // Every strict prefix is NeedMore, never Bad: the reader must be
    // able to accumulate a slow client's frame byte by byte.
    for (size_t n = 0; n < wire.size(); ++n)
        EXPECT_EQ(parseStatsRequest(wire.data(), n, &consumed),
                  ParseResult::NeedMore)
            << "prefix length " << n;

    // A session request is not a STATS frame (and vice versa).
    const uint8_t other[4] = {'M', '4', 'S', 'Q'};
    EXPECT_EQ(parseStatsRequest(other, sizeof(other), &consumed),
              ParseResult::Bad);

    // Wrong version or a nonzero spec length is Bad, not NeedMore.
    std::vector<uint8_t> bad = wire;
    bad[4] = 0xFF;
    EXPECT_EQ(parseStatsRequest(bad.data(), bad.size(), &consumed),
              ParseResult::Bad);
    bad = wire;
    bad[8] = 1;
    EXPECT_EQ(parseStatsRequest(bad.data(), bad.size(), &consumed),
              ParseResult::Bad);
}

// --- windowed snapshot math --------------------------------------------

StatsSample
sampleAt(int64_t monoMs)
{
    StatsSample s;
    s.monoMs = monoMs;
    s.latencyBuckets.assign(sessionLatencyBoundsMs().size() + 1, 0);
    return s;
}

TEST(StatsWindow, RatesComeFromRingDeltasNotLifetimeAverages)
{
    // Lifetime averages and windowed rates diverge on purpose here:
    // lifetime has 28 verdicts over 3000 ms (9.3/s), but the last
    // 2000 ms saw 22 of them (11/s).  The snapshot must report the
    // windowed figure.  sessions_per_sec counts terminal verdicts
    // (work finished); admitted is reported separately.
    StatsSample base = sampleAt(1000);
    base.admitted = 6;
    base.shed = 1;
    base.verdicts = 6;
    base.payloadBytes = 500;

    StatsSample now = sampleAt(3000);
    now.admitted = 30;
    now.shed = 5;
    now.verdicts = 28;
    now.payloadBytes = 4500;

    ServiceSnapshot snap;
    fillSnapshotWindow(&snap, base, now, sessionLatencyBoundsMs());
    EXPECT_EQ(snap.windowSpanMs, 2000);
    EXPECT_EQ(snap.windowAdmitted, 24u);
    EXPECT_EQ(snap.windowVerdicts, 22u);
    EXPECT_EQ(snap.windowShed, 4u);
    EXPECT_DOUBLE_EQ(snap.sessionsPerSec, 11.0);
    EXPECT_DOUBLE_EQ(snap.shedsPerSec, 2.0);
    EXPECT_DOUBLE_EQ(snap.bytesPerSec, 2000.0);
}

TEST(StatsWindow, WindowQuantilesUseBucketDeltas)
{
    const std::vector<double> bounds = sessionLatencyBoundsMs();
    StatsSample base = sampleAt(0);
    StatsSample now = sampleAt(1000);
    now.latencyBuckets = base.latencyBuckets;
    // All window mass in the [10, 20) ms bucket: both quantiles must
    // land inside it even if lifetime history (the base) was slower.
    base.latencyBuckets[5] = 100; // historic [100, 200) mass...
    now.latencyBuckets[5] = 100;  // ...cancels in the delta
    const size_t b10 =
        std::lower_bound(bounds.begin(), bounds.end(), 10.0) -
        bounds.begin();
    now.latencyBuckets[b10 + 1] = 50;
    now.latencyCount = 50;
    base.latencyCount = 0;

    ServiceSnapshot snap;
    fillSnapshotWindow(&snap, base, now, bounds);
    EXPECT_GE(snap.windowP50Ms, 10.0);
    EXPECT_LE(snap.windowP50Ms, 20.0);
    EXPECT_GE(snap.windowP99Ms, 10.0);
    EXPECT_LE(snap.windowP99Ms, 20.0);
}

TEST(StatsWindow, SnapshotRingEvictsOldestAtCapacity)
{
    SnapshotRing ring(3);
    for (int i = 1; i <= 5; ++i)
        ring.push(sampleAt(i * 1000));
    EXPECT_EQ(ring.size(), 3u);
    // Oldest retained sample bounds the window span: 5 pushes into a
    // ring of 3 keeps t=3000 as the left edge.
    EXPECT_EQ(ring.oldest().monoMs, 3000);
}

// --- daemon integration ------------------------------------------------

const char *kSpec = "type=encode width=64 height=64 frames=4 "
                    "checkpoint=0";

ServerConfig
statsServerConfig()
{
    ServerConfig cfg;
    cfg.listen = "tcp:0";
    cfg.checkpointDir = "/tmp";
    cfg.tickMs = 10;
    cfg.statsIntervalMs = 50;
    return cfg;
}

/** duration_ms values of every session_done line, ascending. */
std::vector<double>
eventLogDurations(const Server &server)
{
    std::vector<double> out;
    for (const std::string &l : server.eventLines()) {
        if (l.rfind("{\"event\":\"session_done\"", 0) != 0)
            continue;
        const size_t k = l.find("\"duration_ms\":");
        if (k == std::string::npos)
            continue;
        out.push_back(std::stod(l.substr(k + 14)));
    }
    std::sort(out.begin(), out.end());
    return out;
}

/**
 * Histogram bucket (lo, hi] containing @p v - upper-inclusive, the
 * same edge rule the daemon's latency histogram applies.
 */
void
bucketBoundsOf(double v, double *lo, double *hi)
{
    const std::vector<double> &bounds = sessionLatencyBoundsMs();
    *lo = 0.0;
    *hi = bounds.back();
    for (const double b : bounds) {
        if (v <= b) {
            *hi = b;
            return;
        }
        *lo = b;
    }
}

/**
 * The client returns on its terminal STATUS, a beat before the
 * session worker books the verdict; wait for the event log to show
 * all @p n session_done lines before comparing planes.
 */
void
awaitSessionsDone(Server &server, int n)
{
    for (int i = 0; i < 200; ++i) {
        if (server.eventCount("session_done") >= n)
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

TEST(StatsIntegration, SnapshotMatchesEventLogGroundTruth)
{
    ServerConfig cfg = statsServerConfig();
    Server server(cfg);
    server.start();

    constexpr int kSessions = 3;
    for (int i = 0; i < kSessions; ++i) {
        const ClientResult r = runClientSession(server.endpoint(),
                                                kSpec);
        ASSERT_TRUE(r.gotFinal) << r.error;
        ASSERT_EQ(r.finalStatus, Status::Ok) << r.statusJson;
    }
    awaitSessionsDone(server, kSessions);

    std::string err;
    const std::string payload =
        queryServerStats(server.endpoint(), &err);
    ASSERT_FALSE(payload.empty()) << err;
    const support::JsonValue snap = support::parseJson(payload);

    // The counters the daemon serves and the events it logged are
    // two views of the same sessions; they must agree exactly.
    EXPECT_EQ(snap.stringOr("schema", ""), "m4ps-stats-v1");
    EXPECT_EQ(server.eventCount("session_done"), kSessions);
    const support::JsonValue *sessions = snap.find("sessions");
    ASSERT_NE(sessions, nullptr);
    EXPECT_EQ(sessions->numberOr("admitted", -1), kSessions);
    EXPECT_EQ(sessions->numberOr("completed", -1), kSessions);
    EXPECT_EQ(sessions->numberOr("shed_total", -1), 0);

    // Window covers the whole run here (the ring is far from
    // wrapping), so windowed counts match lifetime.
    const support::JsonValue *window = snap.find("window");
    ASSERT_NE(window, nullptr);
    EXPECT_EQ(window->numberOr("sessions", -1), kSessions);
    EXPECT_EQ(window->numberOr("shed", -1), 0);
    EXPECT_EQ(window->numberOr("shed_rate", -1), 0);

    // Quantiles are histogram-derived: they cannot beat one bucket
    // width, but they must land in the same bucket as the exact
    // quantile computed from the event-log durations.
    const std::vector<double> durations =
        eventLogDurations(server);
    ASSERT_EQ(durations.size(), static_cast<size_t>(kSessions));
    double lo = 0, hi = 0;
    bucketBoundsOf(durations[durations.size() / 2], &lo, &hi);
    EXPECT_GE(window->numberOr("p50_ms", -1), lo);
    EXPECT_LE(window->numberOr("p50_ms", -1), hi);
    bucketBoundsOf(durations.back(), &lo, &hi);
    EXPECT_GE(window->numberOr("p99_ms", -1), lo);
    EXPECT_LE(window->numberOr("p99_ms", -1), hi);

    server.stop();
}

TEST(StatsIntegration, WindowReflectsNewSessionsImmediately)
{
    ServerConfig cfg = statsServerConfig();
    // Long interval: the ring holds only the start() baseline, so a
    // correct implementation must sample at query time rather than
    // serving the last tick's snapshot.
    cfg.statsIntervalMs = 60000;
    Server server(cfg);
    server.start();

    const ClientResult r = runClientSession(server.endpoint(), kSpec);
    ASSERT_EQ(r.finalStatus, Status::Ok) << r.statusJson;
    awaitSessionsDone(server, 1);

    std::string err;
    const std::string payload =
        queryServerStats(server.endpoint(), &err);
    ASSERT_FALSE(payload.empty()) << err;
    const support::JsonValue snap = support::parseJson(payload);
    const support::JsonValue *window = snap.find("window");
    ASSERT_NE(window, nullptr);
    EXPECT_EQ(window->numberOr("sessions", -1), 1);
    server.stop();
}

TEST(StatsIntegration, SloViolationsAreCountedPerWindow)
{
    ServerConfig cfg = statsServerConfig();
    cfg.sloP99Ms = 1; // any real encode blows a 1 ms p99 objective
    Server server(cfg);
    server.start();

    const ClientResult r = runClientSession(server.endpoint(), kSpec);
    ASSERT_EQ(r.finalStatus, Status::Ok) << r.statusJson;

    // Let at least one stats interval elapse so the tick thread
    // evaluates the window that saw the session.
    for (int i = 0; i < 100; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        if (server.eventCount("slo_violation") > 0)
            break;
    }
    const std::string payload = server.statsJson();
    const support::JsonValue snap = support::parseJson(payload);
    const support::JsonValue *slo = snap.find("slo");
    ASSERT_NE(slo, nullptr);
    EXPECT_EQ(slo->numberOr("p99_target_ms", -1), 1);
    EXPECT_GE(slo->numberOr("windows", 0), 1);
    EXPECT_GE(slo->numberOr("violations", 0), 1);
    EXPECT_GE(server.eventCount("slo_violation"), 1);
    server.stop();
}

TEST(StatsIntegration, FecCountsAreThisDaemonsDecodeSessions)
{
    // With metrics off the obs registry counts nothing, so the STATS
    // numbers must come from the daemon's own sessions.
    obs::setMetrics(false);
    const std::string keys = " width=64 height=64 frames=4 "
                             "resync-interval=1 checkpoint=0 "
                             "fec=soft fec-rate=1/2";
    const std::string in = testing::TempDir() + "m4ps_stats_fec_" +
                           std::to_string(::getpid()) + ".m4v";
    const service::JobSpec spec =
        service::parseSpecLine("dec", "type=decode input=" + in + keys);
    const fec::FecConfig fcfg = spec.fecConfig();
    fec::ChannelSpec channel;
    channel.faults.ber = 2e-3;
    channel.faults.seed = 11;
    const std::vector<uint8_t> noisy = fec::transmit(
        fec::protect(
            core::ExperimentRunner::encodeUntraced(spec.workload),
            fcfg),
        channel, &fcfg);
    support::writeFileAtomic(in, noisy.data(), noisy.size());
    const service::DecodeOutcome direct =
        service::decodeStream(spec, noisy);
    ASSERT_TRUE(direct.fec.has_value());

    Server server(statsServerConfig());
    server.start();
    const ClientResult r = runClientSession(
        server.endpoint(), "type=decode input=" + in + keys);
    ASSERT_TRUE(r.gotFinal) << r.error;
    ASSERT_EQ(r.finalStatus, Status::Ok) << r.statusJson;
    awaitSessionsDone(server, 1);
    std::string err;
    const std::string payload =
        queryServerStats(server.endpoint(), &err);
    server.stop();
    std::remove(in.c_str());
    ASSERT_FALSE(payload.empty()) << err;

    const std::string report(r.stream.begin(), r.stream.end());
    const std::string key = "fec_blocks_corrected ";
    const size_t at = report.find(key);
    ASSERT_NE(at, std::string::npos) << report;
    const double reported = std::stod(report.substr(at + key.size()));
    const support::JsonValue snap = support::parseJson(payload);
    const support::JsonValue *fecStats = snap.find("fec");
    ASSERT_NE(fecStats, nullptr);
    EXPECT_GT(reported, 0);
    EXPECT_EQ(fecStats->numberOr("blocks_corrected", -1), reported);
    EXPECT_EQ(fecStats->numberOr("blocks_uncorrectable", -1),
              static_cast<double>(direct.fec->blocksUncorrectable));
}

} // namespace
} // namespace m4ps::serve
