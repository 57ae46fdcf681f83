/**
 * @file
 * Unit tests for the supervision building blocks: manifest parsing,
 * backoff pacing, the circuit breaker, and the event log.  The
 * backoff and breaker tests drive time with a fake clock - plain
 * int64 milliseconds passed explicitly - so they are exact and never
 * sleep.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "service/backoff.hh"
#include "service/events.hh"
#include "service/jobspec.hh"
#include "service/supervisor.hh"

namespace m4ps::service
{
namespace
{

// --- manifest / jobspec ------------------------------------------------

TEST(Manifest, ParsesDefaultsAndJobs)
{
    const auto jobs = parseManifest(
        "# a comment\n"
        "default width=64 height=64 frames=4 deadline-ms=500\n"
        "\n"
        "job a type=encode out=a.m4v retries=1\n"
        "job b type=decode input=a.m4v frames=9 # trailing comment\n");
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].id, "a");
    EXPECT_EQ(jobs[0].type, JobType::Encode);
    EXPECT_EQ(jobs[0].workload.width, 64);
    EXPECT_EQ(jobs[0].workload.frames, 4);
    EXPECT_EQ(jobs[0].deadlineMs, 500);
    EXPECT_EQ(jobs[0].retries, 1);
    EXPECT_EQ(jobs[1].type, JobType::Decode);
    EXPECT_EQ(jobs[1].workload.frames, 9);  // job overrides default
    EXPECT_EQ(jobs[1].retries, -1);         // not set: supervisor default
}

TEST(Manifest, ErrorsCarryLineNumbers)
{
    try {
        parseManifest("default width=64\njob a type=warble\n");
        FAIL() << "expected ManifestError";
    } catch (const ManifestError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
            << e.what();
    }
}

TEST(Manifest, RejectsUnknownKeyDuplicateIdAndGarbage)
{
    EXPECT_THROW(parseManifest("job a type=encode warble=3 out=x\n"),
                 ManifestError);
    EXPECT_THROW(
        parseManifest("default width=64 height=64\n"
                      "job a type=encode out=x.m4v\n"
                      "job a type=encode out=y.m4v\n"),
        ManifestError);
    EXPECT_THROW(parseManifest("job a width=sixteen\n"), ManifestError);
    EXPECT_THROW(parseManifest("banana a=b\n"), ManifestError);
    EXPECT_THROW(parseManifest("# nothing but comments\n"),
                 ManifestError);
}

TEST(Manifest, ValidateCatchesUnrunnableSpecs)
{
    // Not multiple of 16.
    EXPECT_THROW(parseManifest("job a type=encode width=100 "
                               "height=64 out=x\n"),
                 ManifestError);
    // Decode without input.
    EXPECT_THROW(parseManifest("job a type=decode\n"), ManifestError);
    // Encode without output.
    EXPECT_THROW(parseManifest("job a type=encode\n"), ManifestError);
    // Transcode writes a stream too: out= is just as mandatory.
    EXPECT_THROW(parseManifest("job a type=transcode\n"), ManifestError);
    // Data partitioning without resync packets.
    EXPECT_THROW(parseManifest("job a type=encode out=x "
                               "data-partition=1\n"),
                 ManifestError);
}

TEST(JobSpec, SpecLineRoundTrips)
{
    JobSpec spec;
    spec.id = "j1";
    spec.type = JobType::Transcode;
    spec.workload.width = 128;
    spec.workload.height = 96;
    spec.workload.frames = 5;
    spec.workload.resyncInterval = 2;
    spec.workload.dataPartitioning = true;
    spec.workload.halfPel = false;
    spec.workload.searchRangeB = 3;
    spec.workload.frameRate = 25.0;
    spec.output = "j1.m4v";
    spec.deadlineMs = 750;
    spec.retries = 2;
    spec.jobClass = "gold";
    spec.crashAtVop = 3;
    spec.workload.seed = static_cast<uint64_t>(int64_t{-2}); // seed=-2

    const JobSpec back = parseSpecLine("j1", spec.toSpecLine());
    EXPECT_EQ(back.toSpecLine(), spec.toSpecLine());
    EXPECT_EQ(back.workload.seed, spec.workload.seed);
    EXPECT_EQ(back.type, JobType::Transcode);
    EXPECT_EQ(back.workload.dataPartitioning, true);
    EXPECT_EQ(back.deadlineMs, 750);
    EXPECT_EQ(back.jobClass, "gold");
    EXPECT_EQ(back.crashAtVop, 3);
    EXPECT_EQ(back.workload.searchRangeB, 3);
    EXPECT_EQ(back.workload.frameRate, 25.0);
    EXPECT_EQ(back.configHash(), spec.configHash());
}

TEST(JobSpec, DegradedSpecSurvivesTheSpecLine)
{
    // Degradation level 1 halves searchRangeB; the spec line shipped
    // to an exec'd worker must carry that (and keep the config-hash
    // domains of supervisor and worker in agreement).
    JobSpec spec;
    spec.id = "d";
    spec.output = "d.m4v";
    spec.workload.searchRange = 8;
    spec.workload.searchRangeB = 4;
    Supervisor::applyDegradation(spec, 1);

    const JobSpec back = parseSpecLine("d", spec.toSpecLine());
    EXPECT_EQ(back.workload.searchRange, 4);
    EXPECT_EQ(back.workload.searchRangeB, 2);
    EXPECT_EQ(back.configHash(), spec.configHash());
}

TEST(JobSpec, FecKeysRoundTripAndShapeTheConfigHash)
{
    JobSpec spec;
    spec.id = "f";
    spec.output = "f.m4v";
    const uint64_t plain = spec.configHash();

    spec.fecMode = "soft";
    spec.fecRate = "3/4";
    spec.interleaveDepth = 32;
    // FEC reshapes the output bytes, so a checkpoint written without
    // it must read as stale once it is switched on (and vice versa).
    EXPECT_NE(spec.configHash(), plain);

    const JobSpec back = parseSpecLine("f", spec.toSpecLine());
    EXPECT_EQ(back.fecMode, "soft");
    EXPECT_EQ(back.fecRate, "3/4");
    EXPECT_EQ(back.interleaveDepth, 32);
    EXPECT_EQ(back.configHash(), spec.configHash());
    EXPECT_TRUE(back.fecEnabled());

    // Disabled FEC stays out of the canonical line entirely, so old
    // spec lines and new ones hash identically.
    JobSpec off;
    off.id = "f";
    off.output = "f.m4v";
    EXPECT_EQ(off.toSpecLine().find("fec"), std::string::npos);
    EXPECT_EQ(off.configHash(), plain);
}

TEST(JobSpec, FecKeysAreValidated)
{
    EXPECT_THROW(parseSpecLine("b", "out=x fec=maybe"),
                 ManifestError);
    EXPECT_THROW(parseSpecLine("b", "out=x fec-rate=5/6"),
                 ManifestError);
    JobSpec spec = parseSpecLine("b", "out=x fec=hard");
    spec.interleaveDepth = -1;
    EXPECT_THROW(spec.validate(), ManifestError);
    spec.interleaveDepth = 70000;
    EXPECT_THROW(spec.validate(), ManifestError);
    spec.interleaveDepth = 16;
    EXPECT_NO_THROW(spec.validate());
}

TEST(JobSpec, RateAndSearchRangesAreValidated)
{
    // The codec's configuration asserts abort the process on each of
    // these, so validate() must reject them first.
    for (const char *bad : {"frame-rate=0", "frame-rate=nan",
                            "search-range=-1", "search-range-b=-1"}) {
        const JobSpec spec =
            parseSpecLine("v", std::string("out=x ") + bad);
        EXPECT_THROW(spec.validate(), ManifestError) << bad;
    }
    EXPECT_NO_THROW(parseSpecLine("v", "out=x frame-rate=25 "
                                       "search-range=0 search-range-b=0")
                        .validate());
}

TEST(JobSpec, OutOfRangeIntegersAreRejected)
{
    // 4294967328 is 2^32 + 32: cast from long it would run as width 32.
    EXPECT_THROW(parseSpecLine("w", "out=x width=4294967328"),
                 ManifestError);
    EXPECT_THROW(parseSpecLine("w", "out=x seed=-2147483649"),
                 ManifestError);
    EXPECT_EQ(parseSpecLine("w", "out=x width=2147483647").workload.width,
              INT_MAX);
}

TEST(JobSpec, EffectiveClassDefaultsToTypeName)
{
    JobSpec spec;
    spec.type = JobType::Decode;
    EXPECT_EQ(spec.effectiveClass(), "decode");
    spec.jobClass = "bulk";
    EXPECT_EQ(spec.effectiveClass(), "bulk");
}

// --- backoff ----------------------------------------------------------

TEST(Backoff, DelaysStayInBoundsAndGrow)
{
    Backoff b(100, 5000, 42);
    int64_t prev = 0;
    int64_t maxSeen = 0;
    for (int i = 0; i < 50; ++i) {
        const int64_t d = b.nextDelayMs();
        // Decorrelated jitter invariant: base <= d <= min(cap, 3*prev).
        EXPECT_GE(d, 100);
        EXPECT_LE(d, 5000);
        if (prev > 0) {
            EXPECT_LE(d, std::max<int64_t>(100, 3 * prev));
        }
        prev = d;
        maxSeen = std::max(maxSeen, d);
    }
    // With 50 draws the schedule must have escaped the base band.
    EXPECT_GT(maxSeen, 300);
}

TEST(Backoff, SeededSchedulesAreReproducible)
{
    Backoff a(50, 2000, 7), b(50, 2000, 7), c(50, 2000, 8);
    bool anyDiffer = false;
    for (int i = 0; i < 20; ++i) {
        const int64_t da = a.nextDelayMs();
        EXPECT_EQ(da, b.nextDelayMs());
        if (da != c.nextDelayMs())
            anyDiffer = true;
    }
    EXPECT_TRUE(anyDiffer) << "different seeds, identical schedule";
}

TEST(Backoff, ResetRestartsFromBase)
{
    Backoff b(100, 10000, 3);
    for (int i = 0; i < 10; ++i)
        b.nextDelayMs();
    b.reset();
    EXPECT_LE(b.nextDelayMs(), 100); // uniform(base, base) == base
}

// --- circuit breaker --------------------------------------------------

TEST(CircuitBreaker, OpensAtThresholdAndRejects)
{
    CircuitBreaker cb(3, 1000);
    int64_t now = 0;
    EXPECT_TRUE(cb.allow(now));
    cb.recordPermanentFailure(now);
    cb.recordPermanentFailure(now);
    EXPECT_EQ(cb.state(now), CircuitBreaker::State::Closed);
    EXPECT_TRUE(cb.allow(now));
    cb.recordPermanentFailure(now); // third strike
    EXPECT_EQ(cb.state(now), CircuitBreaker::State::Open);
    EXPECT_FALSE(cb.allow(now));
    EXPECT_FALSE(cb.allow(now + 999));
}

TEST(CircuitBreaker, HalfOpenAdmitsExactlyOneProbe)
{
    CircuitBreaker cb(1, 1000);
    cb.recordPermanentFailure(0);
    EXPECT_EQ(cb.state(500), CircuitBreaker::State::Open);
    EXPECT_EQ(cb.state(1000), CircuitBreaker::State::HalfOpen);
    EXPECT_TRUE(cb.allow(1000));   // the probe
    EXPECT_FALSE(cb.allow(1001));  // everyone else still waits
    cb.recordSuccess();
    EXPECT_EQ(cb.state(1002), CircuitBreaker::State::Closed);
    EXPECT_TRUE(cb.allow(1002));
}

TEST(CircuitBreaker, FailedProbeReopensWithFreshCooldown)
{
    CircuitBreaker cb(1, 1000);
    cb.recordPermanentFailure(0);
    ASSERT_TRUE(cb.allow(1000));
    cb.recordPermanentFailure(1500); // probe failed
    EXPECT_EQ(cb.state(1600), CircuitBreaker::State::Open);
    EXPECT_FALSE(cb.allow(2400));   // cooldown restarted at 1500
    EXPECT_EQ(cb.state(2500), CircuitBreaker::State::HalfOpen);
    EXPECT_TRUE(cb.allow(2500));
}

TEST(CircuitBreaker, AbortedProbeReleasesTheHalfOpenSlot)
{
    CircuitBreaker cb(1, 1000);
    cb.recordPermanentFailure(0);
    ASSERT_TRUE(cb.allow(1000));  // the probe
    EXPECT_FALSE(cb.allow(1001)); // slot taken
    cb.probeAborted();            // probe died with no verdict
    EXPECT_EQ(cb.state(1002), CircuitBreaker::State::HalfOpen);
    EXPECT_TRUE(cb.allow(1002));  // next request may probe
    EXPECT_EQ(cb.failures(), 1);  // an abort is not a verdict
}

TEST(CircuitBreaker, SuccessClearsFailureCount)
{
    CircuitBreaker cb(2, 100);
    cb.recordPermanentFailure(0);
    cb.recordSuccess();
    cb.recordPermanentFailure(0);
    // Never two consecutive failures: still closed.
    EXPECT_EQ(cb.state(0), CircuitBreaker::State::Closed);
}

// --- events -----------------------------------------------------------

TEST(Events, EmitsWellFormedJsonLines)
{
    EventLog log;
    log.emit(JsonEvent("attempt_exit")
                 .str("job", "enc \"1\"\n")
                 .num("exit_code", -3)
                 .real("ratio", 0.5)
                 .boolean("ok", false));
    ASSERT_EQ(log.lines().size(), 1u);
    EXPECT_EQ(log.lines()[0],
              "{\"event\":\"attempt_exit\","
              "\"job\":\"enc \\\"1\\\"\\n\","
              "\"exit_code\":-3,\"ratio\":0.5,\"ok\":false}");
}

TEST(Events, CountsByType)
{
    EventLog log;
    log.emit(JsonEvent("a").num("x", 1));
    log.emit(JsonEvent("b"));
    log.emit(JsonEvent("a"));
    EXPECT_EQ(log.count("a"), 2);
    EXPECT_EQ(log.count("b"), 1);
    EXPECT_EQ(log.count("c"), 0);
}

TEST(Events, RetainsARecentWindowWithExactCounts)
{
    // A daemon logs for its whole life: only the most recent lines
    // stay in memory, while each type's count covers every event.
    EventLog log;
    const size_t total = EventLog::kRetainedLines + 100;
    for (size_t i = 0; i < total; ++i) {
        log.emit(JsonEvent(i % 2 == 0 ? "even" : "odd")
                     .num("i", static_cast<int64_t>(i)));
    }
    ASSERT_EQ(log.lines().size(), EventLog::kRetainedLines);
    EXPECT_EQ(log.lines().front(), "{\"event\":\"even\",\"i\":100}");
    EXPECT_EQ(log.lines().back(),
              "{\"event\":\"odd\",\"i\":" + std::to_string(total - 1) +
                  "}");
    EXPECT_EQ(log.count("even"), static_cast<int>((total + 1) / 2));
    EXPECT_EQ(log.count("odd"), static_cast<int>(total / 2));
    EXPECT_EQ(log.count("none"), 0);
}

TEST(Events, StreamsToAttachedSink)
{
    std::ostringstream os;
    EventLog log;
    log.attach(&os);
    log.emit(JsonEvent("tick").num("n", 1));
    log.emit(JsonEvent("tock").num("n", 2));
    EXPECT_EQ(os.str(), "{\"event\":\"tick\",\"n\":1}\n"
                        "{\"event\":\"tock\",\"n\":2}\n");
}

// --- rotating event log ------------------------------------------------

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
}

int
lineCount(const std::string &text)
{
    return static_cast<int>(
        std::count(text.begin(), text.end(), '\n'));
}

void
scrubRotations(const std::string &base, int upTo)
{
    std::remove(base.c_str());
    for (int i = 1; i <= upTo; ++i)
        std::remove((base + "." + std::to_string(i)).c_str());
}

TEST(Events, RotationIsLineAlignedAtTheBoundary)
{
    const std::string base = "/tmp/m4ps_rotate_boundary.jsonl";
    scrubRotations(base, 8);

    // 10-byte lines ("posn 0007\n") against a 35-byte cap: exactly
    // three lines fit; the fourth must land whole in a fresh file -
    // rotation happens BEFORE a line that would cross the cap, so no
    // line is ever split across generations.
    RotatingLogSink sink(base, 35, 4);
    for (int i = 0; i < 7; ++i) {
        char line[16];
        std::snprintf(line, sizeof(line), "posn %04d", i);
        sink.write(line);
    }
    sink.sync();

    EXPECT_EQ(sink.rotations(), 2);
    const std::string live = slurp(base);
    const std::string gen1 = slurp(base + ".1");
    const std::string gen2 = slurp(base + ".2");
    EXPECT_EQ(lineCount(gen2), 3); // oldest three
    EXPECT_EQ(lineCount(gen1), 3);
    EXPECT_EQ(lineCount(live), 1);
    // Every generation holds only whole lines and the concatenation
    // in age order is the complete record - nothing lost or torn.
    EXPECT_EQ(gen2 + gen1 + live,
              "posn 0000\nposn 0001\nposn 0002\nposn 0003\n"
              "posn 0004\nposn 0005\nposn 0006\n");
    scrubRotations(base, 8);
}

TEST(Events, RotationDropsGenerationsPastTheKeepCap)
{
    const std::string base = "/tmp/m4ps_rotate_cap.jsonl";
    scrubRotations(base, 8);

    RotatingLogSink sink(base, 20, 2); // one 10-byte line per file
    for (int i = 0; i < 9; ++i) {
        char line[16];
        std::snprintf(line, sizeof(line), "line %04d", i);
        sink.write(line);
    }
    sink.sync();

    // Only .1 and .2 may exist; older generations were unlinked.
    EXPECT_FALSE(slurp(base).empty());
    EXPECT_FALSE(slurp(base + ".1").empty());
    EXPECT_FALSE(slurp(base + ".2").empty());
    std::ifstream gone(base + ".3");
    EXPECT_FALSE(gone.good());
    scrubRotations(base, 8);
}

TEST(Events, OversizedLineGoesWholeIntoAFreshFile)
{
    const std::string base = "/tmp/m4ps_rotate_oversize.jsonl";
    scrubRotations(base, 8);

    RotatingLogSink sink(base, 32, 3);
    sink.write("small");
    // A single line larger than the whole cap: the sink must rotate
    // the live file out and write the line intact - a cap can bound
    // file count and growth but never silently truncate a record.
    const std::string big(100, 'x');
    sink.write(big);
    sink.sync();
    EXPECT_EQ(slurp(base), big + "\n");
    EXPECT_EQ(slurp(base + ".1"), "small\n");
    scrubRotations(base, 8);
}

TEST(Events, EventLogStreamsThroughARotatingSink)
{
    const std::string base = "/tmp/m4ps_rotate_attach.jsonl";
    scrubRotations(base, 8);
    {
        RotatingLogSink sink(base, 1 << 20, 2);
        EventLog log;
        log.attachRotating(&sink);
        log.emit(JsonEvent("tick").num("n", 1));
        sink.sync();
    }
    EXPECT_EQ(slurp(base), "{\"event\":\"tick\",\"n\":1}\n");
    scrubRotations(base, 8);
}

// --- breaker / backoff under concurrency -------------------------------
//
// CircuitBreaker is deliberately a single-threaded primitive; the
// serving and supervision layers share one instance per job class
// behind their own mutex (serve::AdmissionController's contract).
// These suites run that exact sharing pattern under threads - TSan
// executes them via the Backoff/CircuitBreaker name prefixes - so a
// regression that adds unsynchronized state to the breaker, or a
// race in the probe slot hand-off, fails loudly.

TEST(CircuitBreaker, HalfOpenAdmitsOneProbeUnderContention)
{
    for (int round = 0; round < 20; ++round) {
        CircuitBreaker breaker(1, 100);
        std::mutex mu;
        breaker.recordPermanentFailure(0);
        ASSERT_EQ(breaker.state(150), CircuitBreaker::State::HalfOpen);

        // Eight threads race for the half-open probe slot.
        std::atomic<int> admitted{0};
        std::vector<std::thread> threads;
        for (int i = 0; i < 8; ++i)
            threads.emplace_back([&] {
                std::lock_guard<std::mutex> lock(mu);
                if (breaker.allow(150))
                    ++admitted;
            });
        for (auto &t : threads)
            t.join();
        EXPECT_EQ(admitted.load(), 1);

        // The winner aborts; exactly one of the next wave probes.
        {
            std::lock_guard<std::mutex> lock(mu);
            breaker.probeAborted();
        }
        admitted = 0;
        threads.clear();
        for (int i = 0; i < 8; ++i)
            threads.emplace_back([&] {
                std::lock_guard<std::mutex> lock(mu);
                if (breaker.allow(150))
                    ++admitted;
            });
        for (auto &t : threads)
            t.join();
        EXPECT_EQ(admitted.load(), 1);
    }
}

TEST(CircuitBreaker, SharedPoolContentionKeepsVerdictsConsistent)
{
    // Many sessions of one class hammer a shared breaker: mixed
    // successes and permanent failures from 8 threads.  The breaker
    // must end in a coherent state: either closed with fewer than
    // threshold failures, or open/half-open - never a negative or
    // over-threshold failure count.
    CircuitBreaker breaker(5, 1000000); // cooldown never elapses here
    std::mutex mu;
    std::atomic<int> rejected{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([&, t] {
            for (int i = 0; i < 200; ++i) {
                std::lock_guard<std::mutex> lock(mu);
                if (!breaker.allow(0)) {
                    ++rejected;
                    continue;
                }
                // Threads 0-3 fail every 3rd attempt, the rest
                // succeed: contention with both verdicts in flight.
                if (t < 4 && i % 3 == 0)
                    breaker.recordPermanentFailure(0);
                else
                    breaker.recordSuccess();
            }
        });
    for (auto &t : threads)
        t.join();

    EXPECT_GE(breaker.failures(), 0);
    EXPECT_LE(breaker.failures(), 5);
    if (breaker.state(0) == CircuitBreaker::State::Open) {
        EXPECT_GT(rejected.load(), 0);
    }
}

TEST(Backoff, ConcurrentInstancesKeepSchedulesIndependent)
{
    // One Backoff per worker thread (the supervisor's layout): each
    // schedule must match a single-threaded replay of the same seed,
    // i.e. no hidden shared state between instances.
    const int kWorkers = 6;
    const int kSteps = 32;
    std::vector<std::vector<int64_t>> got(
        static_cast<size_t>(kWorkers));
    std::vector<std::thread> threads;
    for (int w = 0; w < kWorkers; ++w)
        threads.emplace_back([&, w] {
            Backoff b(10, 5000, 77 + static_cast<uint64_t>(w));
            for (int i = 0; i < kSteps; ++i)
                got[static_cast<size_t>(w)].push_back(
                    b.nextDelayMs());
        });
    for (auto &t : threads)
        t.join();

    for (int w = 0; w < kWorkers; ++w) {
        Backoff ref(10, 5000, 77 + static_cast<uint64_t>(w));
        for (int i = 0; i < kSteps; ++i) {
            const int64_t d = ref.nextDelayMs();
            EXPECT_EQ(got[static_cast<size_t>(w)]
                         [static_cast<size_t>(i)],
                      d)
                << "worker " << w << " step " << i;
            EXPECT_GE(d, 10);
            EXPECT_LE(d, 5000);
        }
    }
}

} // namespace
} // namespace m4ps::service
