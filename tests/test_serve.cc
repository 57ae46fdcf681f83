/**
 * @file
 * Streaming-daemon tests: wire protocol totality, the bounded-queue /
 * global-budget envelope, admission control and the degradation
 * ladder (fake clocks - no sleeps), and full-server integration
 * drills over real sockets: byte-identity of the streamed bitstream,
 * the 4x overload drill, graceful drain with checkpoint sidecars,
 * and every scripted client misbehavior the daemon must survive.
 *
 * Integration workloads are tiny (64x64, a few frames) so each drill
 * runs in well under a second; the point is the control plane, not
 * the codec.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/runner.hh"
#include "serve/admission.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/queue.hh"
#include "serve/server.hh"
#include "service/checkpoint.hh"
#include "service/jobspec.hh"

namespace m4ps::serve
{
namespace
{

// --- protocol ----------------------------------------------------------

TEST(ServeProtocol, RequestRoundTripsAndConsumesExactly)
{
    Request req;
    req.spec = "type=encode width=64 height=64 frames=4";
    const std::vector<uint8_t> wire = encodeRequest(req);
    ASSERT_EQ(wire.size(), kRequestHeaderSize + req.spec.size());

    Request out;
    size_t consumed = 0;
    EXPECT_EQ(parseRequest(wire.data(), wire.size(), &out, &consumed),
              ParseResult::Ok);
    EXPECT_EQ(consumed, wire.size());
    EXPECT_EQ(out.spec, req.spec);
    EXPECT_EQ(out.version, kProtocolVersion);
}

TEST(ServeProtocol, ShortPrefixesAreNeedMoreNeverBad)
{
    Request req;
    req.spec = "type=decode input=x.m4v";
    const std::vector<uint8_t> wire = encodeRequest(req);
    Request out;
    size_t consumed = 0;
    // Every proper prefix must classify as NeedMore: a socket reader
    // accumulates bytes and retries, it never kills a slow client
    // that is making progress.
    for (size_t n = 0; n < wire.size(); ++n)
        EXPECT_EQ(parseRequest(wire.data(), n, &out, &consumed),
                  ParseResult::NeedMore)
            << "at prefix length " << n;
}

TEST(ServeProtocol, MalformedRequestsAreBad)
{
    Request out;
    size_t consumed = 0;

    std::vector<uint8_t> bad(kRequestHeaderSize, 0);
    bad[0] = 'H'; // "HTTP..." and friends: wrong magic
    EXPECT_EQ(parseRequest(bad.data(), bad.size(), &out, &consumed),
              ParseResult::Bad);

    // A promised spec longer than the admission cap is Bad right at
    // the header: a slow-loris cannot promise a gigabyte and dribble.
    Request req;
    req.spec = "x";
    std::vector<uint8_t> wire = encodeRequest(req);
    const uint32_t huge = kMaxSpecBytes + 1;
    wire[8] = static_cast<uint8_t>(huge & 0xff);
    wire[9] = static_cast<uint8_t>((huge >> 8) & 0xff);
    wire[10] = static_cast<uint8_t>((huge >> 16) & 0xff);
    wire[11] = static_cast<uint8_t>((huge >> 24) & 0xff);
    EXPECT_EQ(parseRequest(wire.data(), wire.size(), &out, &consumed),
              ParseResult::Bad);
}

TEST(ServeProtocol, MessageHeaderRoundTrips)
{
    MessageHeader h;
    h.type = MsgType::Data;
    h.status = Status::Ok;
    h.flags = kFlagFecFramed;
    h.seq = 41;
    h.mediaTsMs = 1234;
    h.payloadLen = 999;

    uint8_t wire[kMessageHeaderSize];
    encodeMessageHeader(h, wire);
    MessageHeader out;
    ASSERT_EQ(parseMessageHeader(wire, sizeof(wire), &out),
              ParseResult::Ok);
    EXPECT_EQ(out.type, h.type);
    EXPECT_EQ(out.status, h.status);
    EXPECT_EQ(out.flags, h.flags);
    EXPECT_EQ(out.seq, h.seq);
    EXPECT_EQ(out.mediaTsMs, h.mediaTsMs);
    EXPECT_EQ(out.payloadLen, h.payloadLen);

    // Absurd payload promises are a protocol violation, not a malloc.
    h.payloadLen = kMaxPayloadBytes + 1;
    encodeMessageHeader(h, wire);
    EXPECT_EQ(parseMessageHeader(wire, sizeof(wire), &out),
              ParseResult::Bad);
}

TEST(ServeProtocol, StatusNamesAndShedClassification)
{
    EXPECT_STREQ(statusName(Status::Ok), "ok");
    EXPECT_TRUE(statusIsShed(Status::Overloaded));
    EXPECT_TRUE(statusIsShed(Status::Draining));
    EXPECT_TRUE(statusIsShed(Status::BreakerOpen));
    EXPECT_FALSE(statusIsShed(Status::Ok));
    EXPECT_FALSE(statusIsShed(Status::Checkpointed));
    EXPECT_FALSE(statusIsShed(Status::SlowReader));
}

// --- ByteBudget --------------------------------------------------------

TEST(ServeQueue, ByteBudgetIsAStrictWatermark)
{
    ByteBudget b(100);
    EXPECT_TRUE(b.tryReserve(60));
    EXPECT_TRUE(b.tryReserve(40));
    EXPECT_FALSE(b.tryReserve(1)); // full to the byte
    EXPECT_EQ(b.used(), 100u);
    b.release(50);
    EXPECT_TRUE(b.tryReserve(50));
    EXPECT_FALSE(b.tryReserve(1));
    EXPECT_EQ(b.highWatermarkSeen(), 100u);
    b.release(100);
    EXPECT_EQ(b.used(), 0u);
    EXPECT_EQ(b.highWatermarkSeen(), 100u); // peak is sticky
}

TEST(ServeQueue, ByteBudgetReserveForWakesOnRelease)
{
    ByteBudget b(64);
    ASSERT_TRUE(b.tryReserve(64));
    EXPECT_FALSE(b.reserveFor(32, 30)); // nobody releases: times out

    std::thread t([&b] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        b.release(64);
    });
    EXPECT_TRUE(b.reserveFor(32, 5000));
    t.join();
    EXPECT_EQ(b.used(), 32u);
}

// --- SessionQueue ------------------------------------------------------

std::vector<uint8_t>
blob(size_t n, uint8_t fill)
{
    return std::vector<uint8_t>(n, fill);
}

TEST(ServeQueue, SessionQueueIsFifoAndCountsBytes)
{
    ByteBudget g(1 << 20);
    SessionQueue q(1024, 256, g);
    ASSERT_TRUE(q.push(blob(10, 1), 100));
    ASSERT_TRUE(q.push(blob(20, 2), 100));
    EXPECT_EQ(q.bytes(), 30u);
    EXPECT_EQ(g.used(), 30u);

    std::vector<uint8_t> out;
    ASSERT_TRUE(q.pop(&out, 100));
    EXPECT_EQ(out.size(), 10u);
    EXPECT_EQ(out[0], 1);
    ASSERT_TRUE(q.pop(&out, 100));
    EXPECT_EQ(out.size(), 20u);
    EXPECT_EQ(out[0], 2);
    EXPECT_EQ(g.used(), 0u); // popped bytes return to the budget
}

TEST(ServeQueue, ProducerGatesAtHighAndResumesBelowLow)
{
    ByteBudget g(1 << 20);
    SessionQueue q(100, 20, g);
    ASSERT_TRUE(q.push(blob(60, 0), 100));
    ASSERT_TRUE(q.push(blob(30, 0), 100)); // 90: still within high

    // 90 + 20 would cross the high watermark: the gate closes and
    // the push blocks.  Hysteresis then holds it closed until
    // occupancy falls below the LOW watermark, not merely below high.
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        EXPECT_TRUE(q.push(blob(20, 0), 10000));
        pushed = true;
    });
    // Let the producer observe the full queue and close its gate
    // before the consumer starts draining.
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    ASSERT_FALSE(pushed.load());

    std::vector<uint8_t> out;
    ASSERT_TRUE(q.pop(&out, 1000)); // 30 left: above low, still gated
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    EXPECT_FALSE(pushed.load());

    ASSERT_TRUE(q.pop(&out, 1000)); // 0 left: below low, gate opens
    producer.join();
    EXPECT_TRUE(pushed.load());
    EXPECT_EQ(q.bytes(), 20u);
}

TEST(ServeQueue, EmptyQueueAdmitsOneOversizedMessage)
{
    // A message larger than the high watermark must still pass when
    // the queue is empty, or a big keyframe could wedge forever.
    ByteBudget g(1 << 20);
    SessionQueue q(100, 40, g);
    EXPECT_TRUE(q.push(blob(500, 0), 100));
    std::vector<uint8_t> out;
    EXPECT_TRUE(q.pop(&out, 100));
    EXPECT_EQ(out.size(), 500u);
}

TEST(ServeQueue, StalledConsumerTimesThePushOut)
{
    ByteBudget g(1 << 20);
    SessionQueue q(100, 40, g);
    ASSERT_TRUE(q.push(blob(120, 0), 100)); // gate closed, no consumer
    EXPECT_FALSE(q.push(blob(10, 0), 80));  // slow-reader budget fires
    EXPECT_EQ(q.bytes(), 120u); // the failed push staged nothing
}

TEST(ServeQueue, CloseAllDiscardsAndReleasesTheGlobalBudget)
{
    ByteBudget g(1 << 20);
    auto q = std::make_unique<SessionQueue>(1024, 256, g);
    ASSERT_TRUE(q->push(blob(300, 0), 100));
    ASSERT_TRUE(q->push(blob(300, 0), 100));
    EXPECT_EQ(g.used(), 600u);
    q->closeAll();
    EXPECT_TRUE(q->closed());
    std::vector<uint8_t> out;
    EXPECT_FALSE(q->pop(&out, 10));
    EXPECT_FALSE(q->push(blob(1, 0), 10));
    EXPECT_EQ(g.used(), 0u); // nothing may leak from the budget
}

TEST(ServeQueue, CloseProducerDrainsThenFinishes)
{
    ByteBudget g(1 << 20);
    SessionQueue q(1024, 256, g);
    ASSERT_TRUE(q.push(blob(10, 7), 100));
    q.closeProducer();
    EXPECT_FALSE(q.push(blob(1, 0), 10));
    EXPECT_FALSE(q.finished()); // one message still staged
    std::vector<uint8_t> out;
    ASSERT_TRUE(q.pop(&out, 100));
    EXPECT_EQ(out[0], 7);
    EXPECT_TRUE(q.finished());
    EXPECT_FALSE(q.pop(&out, 10)); // immediate, not a timeout wait
}

TEST(ServeQueue, SenderJitterTracksTransitVariance)
{
    // Constant transit: jitter stays at zero.
    SenderState steady;
    for (int i = 0; i < 20; ++i)
        steady.onSend(100, 1000 + i * 40, i * 40);
    EXPECT_DOUBLE_EQ(steady.jitterMs, 0.0);
    EXPECT_EQ(steady.packets, 20u);
    EXPECT_EQ(steady.bytes, 2000u);

    // Alternating transit: the RFC 3550 EWMA converges toward the
    // interarrival delta, never diverges.
    SenderState jittery;
    for (int i = 0; i < 64; ++i) {
        const int64_t wobble = (i % 2) ? 12 : 0;
        jittery.onSend(100, 1000 + i * 40 + wobble, i * 40);
    }
    EXPECT_GT(jittery.jitterMs, 4.0);
    EXPECT_LT(jittery.jitterMs, 12.0);
}

// --- AdmissionController ----------------------------------------------

TEST(ServeAdmission, WatermarkShedsOverloadedAndReleaseFreesSlot)
{
    AdmissionConfig cfg;
    cfg.maxSessions = 2;
    AdmissionController ac(cfg);

    EXPECT_TRUE(ac.tryAdmit(0).admitted);
    EXPECT_TRUE(ac.tryAdmit(0).admitted);
    const AdmitDecision shed = ac.tryAdmit(0);
    EXPECT_FALSE(shed.admitted);
    EXPECT_EQ(shed.shedStatus, Status::Overloaded);
    EXPECT_EQ(ac.active(), 2);
    EXPECT_DOUBLE_EQ(ac.sessionLoad(), 1.0);

    ac.reportOutcome("encode", false, SessionEnd::Success, 0);
    ac.release();
    EXPECT_TRUE(ac.tryAdmit(0).admitted);
    EXPECT_EQ(ac.admitted(), 3u);
    EXPECT_EQ(ac.shed(), 1u);
}

TEST(ServeAdmission, DrainShedsEverythingWithDraining)
{
    AdmissionConfig cfg;
    cfg.maxSessions = 8;
    AdmissionController ac(cfg);
    ac.beginDrain();
    EXPECT_TRUE(ac.draining());
    const AdmitDecision d = ac.tryAdmit(0);
    EXPECT_FALSE(d.admitted);
    EXPECT_EQ(d.shedStatus, Status::Draining);
}

TEST(ServeAdmission, ClassBreakerOpensProbesAndCloses)
{
    AdmissionConfig cfg;
    cfg.maxSessions = 8;
    cfg.breakerThreshold = 2;
    cfg.breakerCooldownMs = 1000;
    AdmissionController ac(cfg);
    int64_t now = 0;

    // Two permanent failures trip the "encode" class.
    for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(ac.tryAdmit(now).admitted);
        ASSERT_TRUE(ac.checkClass("encode", now).admitted);
        ac.reportOutcome("encode", false, SessionEnd::PermanentFailure,
                         now);
        ac.release();
    }
    ASSERT_TRUE(ac.tryAdmit(now).admitted);
    AdmitDecision d = ac.checkClass("encode", now);
    EXPECT_FALSE(d.admitted);
    EXPECT_EQ(d.shedStatus, Status::BreakerOpen);
    ac.release();

    // Other classes are unaffected: breakers are per-class.
    ASSERT_TRUE(ac.tryAdmit(now).admitted);
    EXPECT_TRUE(ac.checkClass("decode", now).admitted);
    ac.reportOutcome("decode", false, SessionEnd::Success, now);
    ac.release();

    // After the cooldown, exactly one probe; its success closes.
    now += 1001;
    ASSERT_TRUE(ac.tryAdmit(now).admitted);
    d = ac.checkClass("encode", now);
    EXPECT_TRUE(d.admitted);
    EXPECT_TRUE(d.isProbe);
    ASSERT_TRUE(ac.tryAdmit(now).admitted);
    EXPECT_FALSE(ac.checkClass("encode", now).admitted);
    ac.release();
    ac.reportOutcome("encode", true, SessionEnd::Success, now);
    ac.release();

    ASSERT_TRUE(ac.tryAdmit(now).admitted);
    d = ac.checkClass("encode", now);
    EXPECT_TRUE(d.admitted);
    EXPECT_FALSE(d.isProbe); // closed: normal admission again
    ac.reportOutcome("encode", false, SessionEnd::Success, now);
    ac.release();
}

TEST(ServeAdmission, AbortedProbeReleasesTheSlotForTheNextProbe)
{
    AdmissionConfig cfg;
    cfg.breakerThreshold = 1;
    cfg.breakerCooldownMs = 100;
    AdmissionController ac(cfg);
    int64_t now = 0;

    ASSERT_TRUE(ac.tryAdmit(now).admitted);
    ASSERT_TRUE(ac.checkClass("encode", now).admitted);
    ac.reportOutcome("encode", false, SessionEnd::PermanentFailure,
                     now);
    ac.release();

    now += 101;
    ASSERT_TRUE(ac.tryAdmit(now).admitted);
    AdmitDecision d = ac.checkClass("encode", now);
    ASSERT_TRUE(d.admitted && d.isProbe);
    // The probing client vanishes mid-flight: no verdict either way.
    ac.reportOutcome("encode", true, SessionEnd::NoVerdict, now);
    ac.release();

    // The half-open slot must be free again for the next candidate.
    ASSERT_TRUE(ac.tryAdmit(now).admitted);
    d = ac.checkClass("encode", now);
    EXPECT_TRUE(d.admitted);
    EXPECT_TRUE(d.isProbe);
    ac.reportOutcome("encode", true, SessionEnd::Success, now);
    ac.release();
}

TEST(ServeAdmission, OutcomeReachesTheBreakerBeforeTheSlotFrees)
{
    AdmissionConfig cfg;
    cfg.maxSessions = 2;
    cfg.breakerThreshold = 1;
    cfg.breakerCooldownMs = 1000;
    AdmissionController ac(cfg);

    ASSERT_TRUE(ac.tryAdmit(0).admitted);
    ASSERT_TRUE(ac.checkClass("decode", 0).admitted);
    ac.reportOutcome("decode", false, SessionEnd::PermanentFailure, 0);
    // The failed session still holds its slot, yet the next session
    // of its class already meets the open breaker.
    EXPECT_EQ(ac.active(), 1);
    ASSERT_TRUE(ac.tryAdmit(0).admitted);
    const AdmitDecision d = ac.checkClass("decode", 0);
    EXPECT_FALSE(d.admitted);
    EXPECT_EQ(d.shedStatus, Status::BreakerOpen);
    ac.release();
    ac.release();
    EXPECT_EQ(ac.active(), 0);
}

// --- DegradationLadder -------------------------------------------------

TEST(ServeLadder, StepsUpWithDwellHysteresis)
{
    LadderConfig cfg;
    cfg.stepUpLoad = 0.85;
    cfg.stepDownLoad = 0.50;
    cfg.dwellMs = 100;
    cfg.maxLevel = 3;
    DegradationLadder ladder(cfg);

    EXPECT_EQ(ladder.observe(0.95, 0), 0);   // anchors the dwell clock
    EXPECT_EQ(ladder.observe(0.95, 50), 0);  // dwell not served
    EXPECT_EQ(ladder.observe(0.95, 100), 1); // one step per dwell
    EXPECT_EQ(ladder.observe(0.95, 150), 1);
    EXPECT_EQ(ladder.observe(0.95, 200), 2);
    EXPECT_EQ(ladder.observe(0.95, 300), 3);
    EXPECT_EQ(ladder.observe(0.95, 1000), 3); // clamped at maxLevel
}

TEST(ServeLadder, MidBandHoldsAndLowLoadStepsDown)
{
    LadderConfig cfg;
    cfg.dwellMs = 100;
    DegradationLadder ladder(cfg);
    ladder.observe(0.95, 0);
    ladder.observe(0.95, 100);
    ladder.observe(0.95, 200);
    ASSERT_EQ(ladder.level(), 2);

    // Load in (stepDown, stepUp): hold forever - no flapping.
    EXPECT_EQ(ladder.observe(0.70, 300), 2);
    EXPECT_EQ(ladder.observe(0.70, 1000), 2);

    EXPECT_EQ(ladder.observe(0.30, 1100), 1);
    EXPECT_EQ(ladder.observe(0.30, 1150), 1); // dwell applies down too
    EXPECT_EQ(ladder.observe(0.30, 1200), 0);
    EXPECT_EQ(ladder.observe(0.30, 2000), 0);
}

TEST(ServeLadder, OccupancyAccountsTimePerLevel)
{
    LadderConfig cfg;
    cfg.dwellMs = 100;
    DegradationLadder ladder(cfg);
    ladder.observe(0.95, 0);
    ladder.observe(0.95, 100); // level 1 at t=100
    ladder.observe(0.30, 200); // level 0 at t=200
    ladder.finish(250);
    EXPECT_EQ(ladder.occupancyMs(0), 150); // [0,100) + [200,250)
    EXPECT_EQ(ladder.occupancyMs(1), 100); // [100,200)
}

TEST(ServeLadder, AppliesTheDocumentedTiers)
{
    service::JobSpec spec = service::parseSpecLine(
        "x", "type=encode width=64 height=64 frames=8 frame-rate=30 "
             "out=x.m4v");

    service::JobSpec l1 = spec;
    DegradationLadder::applyToSpec(l1, 1);
    EXPECT_EQ(l1.workload.frames, 4);
    EXPECT_DOUBLE_EQ(l1.workload.frameRate, 15.0);
    EXPECT_EQ(l1.workload.width, 64); // resolution untouched at L1

    service::JobSpec l2 = spec;
    DegradationLadder::applyToSpec(l2, 2);
    EXPECT_EQ(l2.workload.width, 32);
    EXPECT_EQ(l2.workload.height, 32);
    EXPECT_NO_THROW(l2.validate()); // MB-aligned by construction

    // L3 on a FEC session steps the punctured-rate ladder down.
    service::JobSpec fecSpec = service::parseSpecLine(
        "y", "type=encode width=64 height=64 frames=8 fec=hard "
             "fec-rate=1/2 out=y.m4v");
    DegradationLadder::applyToSpec(fecSpec, 3);
    EXPECT_EQ(fecSpec.fecRate, "2/3");

    // L3 without FEC pins the coarsest quantizer instead.
    service::JobSpec l3 = spec;
    DegradationLadder::applyToSpec(l3, 3);
    EXPECT_EQ(l3.workload.initialQp, 31);
}

// --- server integration ------------------------------------------------

/** Tiny encode spec body shared by the integration drills. */
const char *kTinySpec =
    "type=encode width=64 height=64 frames=4 checkpoint=0";

/** The same bitstream a direct (unserved) encode of the spec yields. */
std::vector<uint8_t>
directEncode(const std::string &specBody)
{
    service::JobSpec spec = service::parseSpecLine("direct", specBody);
    return core::ExperimentRunner::encodeUntraced(spec.workload);
}

ServerConfig
tinyServerConfig()
{
    ServerConfig cfg;
    cfg.listen = "tcp:0"; // ephemeral: parallel ctest runs never clash
    cfg.checkpointDir = "/tmp";
    cfg.tickMs = 10;
    return cfg;
}

TEST(Serve, StreamedBitstreamIsByteIdenticalToDirectEncode)
{
    ServerConfig cfg = tinyServerConfig();
    Server server(cfg);
    server.start();

    const ClientResult r =
        runClientSession(server.endpoint(), kTinySpec);
    ASSERT_TRUE(r.connected) << r.error;
    ASSERT_TRUE(r.gotFinal) << r.error;
    EXPECT_EQ(r.finalStatus, Status::Ok) << r.statusJson;
    EXPECT_EQ(r.seqGaps, 0u);
    EXPECT_GT(r.packets, 0u);

    // The concatenated DATA payloads ARE the elementary stream: a
    // fast reader (no retargeting) must receive it byte for byte.
    EXPECT_EQ(r.stream, directEncode(kTinySpec));
    EXPECT_NE(r.statusJson.find("\"retarget_steps\":0"),
              std::string::npos)
        << r.statusJson;

    server.stop();
    const ServerStats st = server.stats();
    EXPECT_EQ(st.admitted, 1u);
    EXPECT_EQ(st.completed, 1u);
}

TEST(Serve, FecFramedSessionRecoversByteIdentically)
{
    ServerConfig cfg = tinyServerConfig();
    Server server(cfg);
    server.start();

    const std::string spec = std::string(kTinySpec) +
                             " fec=hard fec-rate=1/2 interleave-depth=4";
    const ClientResult r = runClientSession(server.endpoint(), spec);
    ASSERT_TRUE(r.gotFinal) << r.error;
    EXPECT_EQ(r.finalStatus, Status::Ok) << r.statusJson;
    // The client ran fec::recover() per packet; the recovered stream
    // must still be the exact elementary stream of the same spec.
    EXPECT_EQ(r.stream, directEncode(spec));
    server.stop();
}

TEST(Serve, OverloadDrillShedsStructuredAndBoundsTheQueue)
{
    ServerConfig cfg = tinyServerConfig();
    cfg.admission.maxSessions = 2;
    cfg.degrade = false; // fidelity must stay comparable below
    Server server(cfg);
    server.start();

    // 4x admission capacity, all at once.
    const int kClients = 8;
    std::vector<ClientResult> results(kClients);
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int i = 0; i < kClients; ++i)
        threads.emplace_back([&, i] {
            results[static_cast<size_t>(i)] =
                runClientSession(server.endpoint(), kTinySpec);
        });
    for (auto &t : threads)
        t.join();
    server.stop();

    const std::vector<uint8_t> expect = directEncode(kTinySpec);
    int ok = 0, shed = 0;
    for (const ClientResult &r : results) {
        ASSERT_TRUE(r.gotFinal) << r.error;
        if (r.finalStatus == Status::Ok) {
            ++ok;
            // Admission pressure must never corrupt admitted work.
            EXPECT_EQ(r.stream, expect);
        } else {
            // Sheds are structured verdicts, not dropped connections.
            EXPECT_TRUE(statusIsShed(r.finalStatus))
                << statusName(r.finalStatus);
            EXPECT_EQ(r.payloadBytes, 0u);
            ++shed;
        }
    }
    EXPECT_GT(ok, 0);
    EXPECT_GT(shed, 0);
    EXPECT_EQ(ok + shed, kClients);

    const ServerStats st = server.stats();
    EXPECT_EQ(st.admitted + st.shedTotal(),
              static_cast<uint64_t>(kClients));
    // The global queue bound is strict: the peak may touch the
    // watermark but never exceed it.
    EXPECT_LE(st.globalQueuePeak, st.globalQueueWatermark);
}

TEST(Serve, DrainCheckpointsInFlightSessionsResumably)
{
    ServerConfig cfg = tinyServerConfig();
    cfg.drainTimeoutMs = 0; // checkpoint at the first drain tick
    Server server(cfg);
    server.start();

    // Big enough that drain lands mid-encode deterministically.
    const std::string spec =
        "type=encode width=352 height=288 frames=200 checkpoint=0";
    ClientResult r;
    std::thread client([&] {
        r = runClientSession(server.endpoint(), spec);
    });
    // Let the session start encoding, then pull the plug.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    server.requestDrain();

    // New arrivals during drain shed with Draining, fast.
    const ClientResult lateR =
        runClientSession(server.endpoint(), kTinySpec);
    ASSERT_TRUE(lateR.gotFinal) << lateR.error;
    EXPECT_EQ(lateR.finalStatus, Status::Draining);

    client.join();
    server.stop();

    ASSERT_TRUE(r.gotFinal) << r.error;
    ASSERT_EQ(r.finalStatus, Status::Checkpointed) << r.statusJson;

    // The sidecar must exist and load against the session's config
    // hash: the checkpointed work is genuinely resumable.
    const size_t at = r.statusJson.find("\"checkpoint\":\"");
    ASSERT_NE(at, std::string::npos) << r.statusJson;
    const size_t start = at + 14;
    const size_t end = r.statusJson.find('"', start);
    const std::string path = r.statusJson.substr(start, end - start);

    // configHash covers only bitstream-shaping fields, so a fresh
    // parse of the same body hashes identically to the daemon's.
    service::JobSpec parsed = service::parseSpecLine("d", spec);
    service::Checkpoint c;
    EXPECT_TRUE(
        service::loadCheckpoint(path, parsed.configHash(), &c));
    EXPECT_GT(c.nextFrame, 0);
    EXPECT_LT(c.nextFrame, 200);
    std::remove(path.c_str());

    const ServerStats st = server.stats();
    EXPECT_EQ(st.checkpointed, 1u);
}

TEST(Serve, MalformedAndAbsentRequestsGetStructuredVerdicts)
{
    ServerConfig cfg = tinyServerConfig();
    cfg.idleTimeoutMs = 200;
    Server server(cfg);
    server.start();

    ClientBehavior garbage;
    garbage.malformedRequest = true;
    const ClientResult g =
        runClientSession(server.endpoint(), kTinySpec, garbage);
    ASSERT_TRUE(g.gotFinal) << g.error;
    EXPECT_EQ(g.finalStatus, Status::BadRequest);

    ClientBehavior silent;
    silent.omitRequest = true;
    const ClientResult s =
        runClientSession(server.endpoint(), kTinySpec, silent);
    ASSERT_TRUE(s.gotFinal) << s.error;
    EXPECT_EQ(s.finalStatus, Status::IdleTimeout);

    // An unparseable spec (bad key) is BadRequest, not a 500.
    const ClientResult b = runClientSession(
        server.endpoint(), "type=encode warble=yes");
    ASSERT_TRUE(b.gotFinal) << b.error;
    EXPECT_EQ(b.finalStatus, Status::BadRequest);

    server.stop();
    EXPECT_EQ(server.stats().badRequests, 2u);
    EXPECT_EQ(server.stats().idleTimeouts, 1u);
}

/** Poll until the daemon has no active session (cap @p capMs). */
int64_t
waitForIdle(Server &server, int64_t capMs)
{
    const auto t0 = std::chrono::steady_clock::now();
    for (;;) {
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
        if (server.activeSessions() == 0 || elapsed >= capMs)
            return elapsed;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
}

/**
 * An encode big enough (by stream bytes) that a misbehaving reader
 * cannot hide in kernel socket buffers: the session MUST hit the
 * bounded-queue/backpressure machinery before it completes.
 */
const char *kBulkySpec = "type=encode width=352 height=288 frames=120 "
                         "bitrate=4000000 checkpoint=0";

TEST(Serve, MidStreamDisconnectIsCanceledNotFatal)
{
    ServerConfig cfg = tinyServerConfig();
    cfg.pushTimeoutMs = 500;
    Server server(cfg);
    server.start();

    // Vanish one packet into a long encode: the session is still
    // running server-side when the socket dies.
    ClientBehavior vanish;
    vanish.disconnectAfterPackets = 1;
    const ClientResult r =
        runClientSession(server.endpoint(), kBulkySpec, vanish);
    EXPECT_TRUE(r.connected);
    EXPECT_FALSE(r.gotFinal);

    // The orphaned session must be torn down promptly, not ride out
    // the full encode against a dead socket.
    const int64_t reclaimMs = waitForIdle(server, 20000);
    EXPECT_LT(reclaimMs, 20000);

    // And the daemon keeps serving: the next honest client is whole.
    const ClientResult next =
        runClientSession(server.endpoint(), kTinySpec);
    ASSERT_TRUE(next.gotFinal)
        << next.error << " packets=" << next.packets
        << " bytes=" << next.payloadBytes
        << " latency=" << next.latencyMs;
    EXPECT_EQ(next.finalStatus, Status::Ok);

    server.stop();
    EXPECT_GE(server.stats().canceled, 1u);
    EXPECT_EQ(server.stats().completed, 1u);
}

TEST(Serve, StalledReaderIsShedWithinThePushBudget)
{
    ServerConfig cfg = tinyServerConfig();
    cfg.pushTimeoutMs = 200;
    cfg.sessionQueueHighBytes = 32 * 1024; // gate quickly
    cfg.sessionQueueLowBytes = 8 * 1024;
    cfg.sockSndbufBytes = 16 * 1024; // no hiding in kernel buffers
    cfg.maxRetargetSteps = 0; // isolate the stall path from retarget
    Server server(cfg);
    server.start();

    // The client takes one packet and then stops reading for far
    // longer than the push budget.  With both socket buffers pinned
    // small, the ~800 KB stream cannot fit in kernel buffers plus
    // the 32 KB session queue, so the writer wedges and the budget
    // must shed the session server-side while the client is asleep.
    ClientBehavior stall;
    stall.stallAfterPackets = 1;
    stall.stallMs = 2500;
    stall.rcvbufBytes = 16 * 1024;
    stall.overallTimeoutMs = 30000;
    ClientResult r;
    std::thread client([&] {
        r = runClientSession(server.endpoint(), kBulkySpec, stall);
    });

    // Wait until the session is actually admitted, then the daemon
    // must shed it long before the client's stall ends.
    while (server.stats().admitted == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const int64_t shedMs = waitForIdle(server, 15000);
    EXPECT_LT(shedMs, 15000);
    const ServerStats mid = server.stats();
    // SlowReader when the producer's push budget fires first,
    // Canceled when the writer's stall budget closes the queue
    // first - either way the stall was bounded, nothing wedged.
    EXPECT_GE(mid.slowReaders + mid.canceled, 1u)
        << "shedMs=" << shedMs << " completed=" << mid.completed
        << " canceled=" << mid.canceled
        << " slow=" << mid.slowReaders
        << " deadline=" << mid.deadlineExceeded
        << " admitted=" << mid.admitted
        << " packets=" << mid.packets
        << " bytes=" << mid.payloadBytes;

    client.join(); // returns once the scripted stall ends
    server.stop();
}

TEST(Serve, DecodeSessionStreamsAReport)
{
    // Encode directly to a file, then ask the daemon to decode it.
    const std::string in = "/tmp/serve_decode_in.m4v";
    const std::vector<uint8_t> stream = directEncode(kTinySpec);
    std::FILE *f = std::fopen(in.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(stream.data(), 1, stream.size(), f),
              stream.size());
    std::fclose(f);

    ServerConfig cfg = tinyServerConfig();
    Server server(cfg);
    server.start();
    const ClientResult r = runClientSession(
        server.endpoint(),
        "type=decode input=" + in + " width=64 height=64 frames=4");
    server.stop();
    std::remove(in.c_str());

    ASSERT_TRUE(r.gotFinal) << r.error;
    EXPECT_EQ(r.finalStatus, Status::Ok) << r.statusJson;
    const std::string report(r.stream.begin(), r.stream.end());
    EXPECT_NE(report.find("vops 4"), std::string::npos) << report;
    EXPECT_NE(report.find("corrupted_vops 0"), std::string::npos)
        << report;
}

TEST(Serve, MissingDecodeInputFailsInternalAndFeedsTheBreaker)
{
    ServerConfig cfg = tinyServerConfig();
    cfg.admission.breakerThreshold = 2;
    cfg.admission.breakerCooldownMs = 60000; // stays open for the test
    Server server(cfg);
    server.start();

    const std::string spec =
        "type=decode input=/tmp/serve_no_such_file.m4v";
    for (int i = 0; i < 2; ++i) {
        const ClientResult r =
            runClientSession(server.endpoint(), spec);
        ASSERT_TRUE(r.gotFinal) << r.error;
        EXPECT_EQ(r.finalStatus, Status::InternalError);
    }
    // The decode class is now tripped: shed before any work runs.
    const ClientResult r = runClientSession(server.endpoint(), spec);
    ASSERT_TRUE(r.gotFinal) << r.error;
    EXPECT_EQ(r.finalStatus, Status::BreakerOpen);

    // Encode sessions are a different class and keep flowing.
    const ClientResult enc =
        runClientSession(server.endpoint(), kTinySpec);
    ASSERT_TRUE(enc.gotFinal) << enc.error;
    EXPECT_EQ(enc.finalStatus, Status::Ok);

    server.stop();
    EXPECT_EQ(server.stats().failed, 2u);
    EXPECT_EQ(server.stats().shedBreaker, 1u);
}

} // namespace
} // namespace m4ps::serve
