/**
 * @file
 * Supervisor integration tests: real fork()ed workers, injected
 * crashes and hangs, watchdog kills, kill-storms, checkpoint resume,
 * circuit breaking, and degradation.  Each test runs in its own
 * process (ctest discovers tests individually), so forking here is
 * safe: the parent holds no locks and no pool threads at fork time.
 *
 * These tests use the in-process worker mode (empty workerPath): the
 * supervisor forks and the child calls service::runJob directly.
 * Process isolation, signal delivery, and reaping are identical to
 * the exec'ing path used by m4ps_batch, which one test takes to wrap
 * the real m4ps_worker in a script.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "core/runner.hh"
#include "fec/frame.hh"
#include "service/checkpoint.hh"
#include "service/supervisor.hh"

namespace m4ps::service
{
namespace
{

/**
 * Tick clock injected via SupervisorConfig::nowMs/sleepMs: every poll
 * "sleep" advances fake time by the requested amount and yields ~1ms
 * of real time so forked workers keep making progress.  Supervision
 * arithmetic - watchdog deadlines, retry eligibility, backoff waits -
 * then depends on tick counts alone, not on how slowly the host (or a
 * sanitizer like TSan) happens to schedule the reaping loop, so the
 * timing-sensitive tests below are deterministic by construction.
 */
struct TickClock
{
    std::shared_ptr<int64_t> ms = std::make_shared<int64_t>(0);

    void
    install(SupervisorConfig &cfg) const
    {
        auto p = ms;
        cfg.nowMs = [p] { return *p; };
        cfg.sleepMs = [p](int64_t d) {
            *p += d;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        };
    }

    int64_t now() const { return *ms; }
};

/** A fast encode spec writing into @p dir. */
JobSpec
tinyEncode(const std::string &dir, const std::string &id)
{
    JobSpec spec;
    spec.id = id;
    spec.type = JobType::Encode;
    spec.workload = core::paperWorkload(32, 32, 1, 1);
    spec.workload.frames = 4;
    spec.workload.gop = {4, 1};
    spec.workload.searchRange = 2;
    spec.workload.searchRangeB = 1;
    spec.workload.targetBps = 4e5;
    spec.output = dir + id + ".m4v";
    // Failed jobs intentionally leave their checkpoint sidecar behind
    // (a later batch may resume them); scrub leftovers from earlier
    // test runs so every test starts from a cold state.
    std::remove(spec.output.c_str());
    removeCheckpoint(checkpointPath(spec.output));
    takeDone(spec.output);
    return spec;
}

bool
exists(const std::string &path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0;
}

std::vector<uint8_t>
readAll(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return {};
    std::vector<uint8_t> out;
    uint8_t buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.insert(out.end(), buf, buf + n);
    std::fclose(f);
    return out;
}

/** No child process may outlive a batch. */
void
expectNoChildren()
{
    errno = 0;
    EXPECT_EQ(waitpid(-1, nullptr, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
}

SupervisorConfig
fastConfig()
{
    SupervisorConfig cfg;
    cfg.defaultDeadlineMs = 20000;
    cfg.defaultRetries = 3;
    cfg.backoffBaseMs = 1;
    cfg.backoffCapMs = 20;
    cfg.pollMs = 2;
    cfg.maxParallel = 4;
    return cfg;
}

TEST(Supervisor, CompletesAHealthyJob)
{
    const std::string dir = testing::TempDir();
    EventLog log;
    Supervisor sup(fastConfig(), log);
    const BatchResult batch =
        sup.run({tinyEncode(dir, "sup_healthy")});
    ASSERT_EQ(batch.jobs.size(), 1u);
    EXPECT_EQ(batch.completed, 1);
    EXPECT_EQ(batch.jobs[0].outcome, JobOutcome::Completed);
    EXPECT_EQ(batch.jobs[0].attempts, 1);
    EXPECT_FALSE(readAll(dir + "sup_healthy.m4v").empty());
    expectNoChildren();
}

TEST(Supervisor, WatchdogKillsHungWorkerWithinDeadline)
{
    const std::string dir = testing::TempDir();
    JobSpec spec = tinyEncode(dir, "sup_hang");
    spec.hangAtVop = 1;   // hang after the first VOP, forever
    spec.deadlineMs = 200;
    spec.retries = 0;

    SupervisorConfig cfg = fastConfig();
    cfg.degradeAfterDeadlines = 99; // isolate the watchdog behaviour
    TickClock clock;
    clock.install(cfg);
    EventLog log;
    Supervisor sup(cfg, log);
    const BatchResult batch = sup.run({spec});

    ASSERT_EQ(batch.jobs.size(), 1u);
    EXPECT_EQ(batch.jobs[0].outcome, JobOutcome::Failed);
    EXPECT_EQ(batch.jobs[0].lastError, JobErrorKind::DeadlineExpired);
    EXPECT_EQ(batch.jobs[0].watchdogKills, 1);
    EXPECT_EQ(log.count("watchdog_kill"), 1);
    // The worker would hang forever; on the injected clock the
    // watchdog must fire within the deadline plus a few poll ticks of
    // reaping slack - regardless of real scheduler load.
    EXPECT_LT(clock.now(), spec.deadlineMs + 1000)
        << "hung worker was not killed in (fake-clock) time";
    expectNoChildren();
}

TEST(Supervisor, CrashedEncodeResumesAndMatchesUninterruptedRun)
{
    const std::string dir = testing::TempDir();
    JobSpec spec = tinyEncode(dir, "sup_crash");
    spec.crashAtVop = 2; // die mid-sequence, after checkpointing
    spec.retries = 2;

    EventLog log;
    Supervisor sup(fastConfig(), log);
    const BatchResult batch = sup.run({spec});

    ASSERT_EQ(batch.jobs.size(), 1u);
    EXPECT_EQ(batch.jobs[0].outcome, JobOutcome::Completed);
    EXPECT_EQ(batch.jobs[0].attempts, 2);
    EXPECT_EQ(log.count("resume_from_checkpoint"), 1);
    EXPECT_EQ(log.count("retry_scheduled"), 1);

    // The bit-identity guarantee: crash + resume must be invisible
    // in the output.
    const std::vector<uint8_t> reference =
        core::ExperimentRunner::encodeUntraced(spec.workload);
    EXPECT_EQ(readAll(spec.output), reference);
    expectNoChildren();
}

TEST(Supervisor, WorkerKilledAfterFinishingCountsAsDone)
{
    // The real worker, then a linger past the deadline: every attempt
    // publishes its output and is then killed by the watchdog, as a
    // worker is when its exit is slow (TSan sleeps a second inside
    // _exit).  Counting such a kill as a failure would re-encode the
    // job from frame 0 on every retry, its checkpoint being gone.
    const std::string dir = testing::TempDir();
    const std::string script = dir + "sup_linger_worker.sh";
    {
        std::FILE *f = std::fopen(script.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fprintf(f, "#!/bin/sh\n\"%s\" \"$@\" || exit $?\n"
                        "exec sleep 60\n",
                     M4PS_WORKER_BIN);
        std::fclose(f);
        ASSERT_EQ(::chmod(script.c_str(), 0755), 0);
    }
    JobSpec spec = tinyEncode(dir, "sup_linger");
    // Fake-clock milliseconds: at least 2 s of real time to finish.
    spec.deadlineMs = 4000;
    spec.retries = 2;

    SupervisorConfig cfg = fastConfig();
    cfg.workerPath = script;
    TickClock clock;
    clock.install(cfg);
    EventLog log;
    Supervisor sup(cfg, log);
    const BatchResult batch = sup.run({spec});

    ASSERT_EQ(batch.jobs.size(), 1u);
    EXPECT_EQ(batch.jobs[0].outcome, JobOutcome::Completed);
    EXPECT_EQ(batch.jobs[0].lastError, JobErrorKind::None);
    // Every attempt lingers, so every attempt ends in a kill.
    EXPECT_EQ(log.count("watchdog_kill"), batch.jobs[0].attempts);
    EXPECT_EQ(readAll(spec.output),
              core::ExperimentRunner::encodeUntraced(spec.workload));
    // The supervisor consumed the completion record, and nothing is
    // left to resume.
    EXPECT_FALSE(exists(spec.output + ".done"));
    EXPECT_FALSE(exists(checkpointPath(spec.output)));
    expectNoChildren();
}

TEST(Supervisor, FecFramedEncodeRecoversByteIdentically)
{
    const std::string dir = testing::TempDir();
    JobSpec enc = tinyEncode(dir, "sup_fec");
    enc.fecMode = "hard";
    enc.fecRate = "2/3";
    enc.interleaveDepth = 8;

    EventLog log;
    Supervisor sup(fastConfig(), log);
    const BatchResult batch = sup.run({enc});
    ASSERT_EQ(batch.completed, 1);

    // The worker wrote an FEC frame, not a raw elementary stream...
    const std::vector<uint8_t> framed = readAll(enc.output);
    ASSERT_GE(framed.size(), fec::kHeaderSize);
    EXPECT_TRUE(std::equal(std::begin(fec::kMagic),
                           std::end(fec::kMagic), framed.begin()));

    // ...whose framing peels off losslessly: recovering it yields
    // the exact bytes an unprotected encode of the same workload
    // produces (so FEC composes with the checkpoint bit-identity
    // guarantee instead of weakening it).
    const std::vector<uint8_t> reference =
        core::ExperimentRunner::encodeUntraced(enc.workload);
    const fec::RecoverResult rec = fec::recover(framed);
    EXPECT_EQ(rec.stream, reference);
    EXPECT_EQ(rec.stats.blocksUncorrectable, 0u);

    // A decode job with the same fec config consumes the frame and
    // reports the FEC counters.
    JobSpec dec;
    dec.id = "sup_fec_dec";
    dec.type = JobType::Decode;
    dec.workload = enc.workload;
    dec.input = enc.output;
    dec.output = dir + "sup_fec_dec.report";
    dec.fecMode = enc.fecMode;
    dec.fecRate = enc.fecRate;
    dec.interleaveDepth = enc.interleaveDepth;
    std::remove(dec.output.c_str());
    EventLog dlog;
    Supervisor dsup(fastConfig(), dlog);
    const BatchResult dbatch = dsup.run({dec});
    ASSERT_EQ(dbatch.completed, 1);
    const std::vector<uint8_t> report = readAll(dec.output);
    const std::string text(report.begin(), report.end());
    EXPECT_NE(text.find("fec_blocks "), std::string::npos);
    EXPECT_NE(text.find("fec_blocks_uncorrectable 0"),
              std::string::npos);
    expectNoChildren();
}

TEST(Supervisor, DegradesJobThatKeepsBlowingItsDeadline)
{
    const std::string dir = testing::TempDir();
    JobSpec spec = tinyEncode(dir, "sup_degrade");
    spec.hangAtVop = 1;
    // Fake-clock milliseconds: 200 poll ticks, i.e. at least 200ms of
    // real time for the worker to reach its hang point even under a
    // sanitizer's slowdown, while the deadline arithmetic itself stays
    // tick-deterministic.
    spec.deadlineMs = 400;
    spec.retries = 5;

    SupervisorConfig cfg = fastConfig();
    cfg.degradeAfterDeadlines = 1; // step the ladder every expiry
    TickClock clock;
    clock.install(cfg);
    EventLog log;
    Supervisor sup(cfg, log);
    const BatchResult batch = sup.run({spec});

    // Attempts 1-3 hang and each steps the ladder; every degradation
    // changes the config hash, so their checkpoints read as stale and
    // attempt 4 restarts from frame 0 - and hangs again.  Attempt 5
    // resumes attempt 4's checkpoint (same hash now that the ladder
    // is pinned at the bottom), starts past the trigger VOP, and
    // completes: degradation plus resume rescue the job.
    ASSERT_EQ(batch.jobs.size(), 1u);
    EXPECT_EQ(batch.jobs[0].outcome, JobOutcome::Degraded);
    EXPECT_EQ(batch.jobs[0].degradeLevel, Supervisor::kMaxDegradeLevel);
    EXPECT_EQ(batch.jobs[0].attempts, 5);
    EXPECT_EQ(batch.jobs[0].watchdogKills, 4);
    EXPECT_EQ(log.count("degraded"), Supervisor::kMaxDegradeLevel);
    EXPECT_EQ(log.count("resume_from_checkpoint"), 1);
    expectNoChildren();
}

TEST(Supervisor, AppliesTheDocumentedQualityLadder)
{
    JobSpec spec;
    spec.workload.searchRange = 8;
    spec.workload.searchRangeB = 4;
    spec.workload.halfPel = true;
    spec.workload.initialQp = 0;

    Supervisor::applyDegradation(spec, 1);
    EXPECT_EQ(spec.workload.searchRange, 4);
    EXPECT_EQ(spec.workload.searchRangeB, 2);
    EXPECT_TRUE(spec.workload.halfPel);

    Supervisor::applyDegradation(spec, 2);
    EXPECT_FALSE(spec.workload.halfPel);
    EXPECT_EQ(spec.workload.initialQp, 0);

    Supervisor::applyDegradation(spec, 3);
    EXPECT_EQ(spec.workload.initialQp, 31);
}

TEST(Supervisor, BadConfigFailsPermanentlyWithoutRetry)
{
    JobSpec spec;
    spec.id = "sup_badcfg";
    spec.type = JobType::Encode;
    spec.output = "/tmp/sup_badcfg.m4v";
    spec.workload.frames = 0; // invalid: worker exits 2

    EventLog log;
    Supervisor sup(fastConfig(), log);
    const BatchResult batch = sup.run({spec});
    ASSERT_EQ(batch.jobs.size(), 1u);
    EXPECT_EQ(batch.jobs[0].outcome, JobOutcome::Failed);
    EXPECT_EQ(batch.jobs[0].lastError, JobErrorKind::BadConfig);
    EXPECT_EQ(batch.jobs[0].attempts, 1);
    EXPECT_EQ(log.count("retry_scheduled"), 0);
    expectNoChildren();
}

TEST(Supervisor, BreakerSkipsAClassAfterRepeatedPermanentFailures)
{
    EventLog log;
    SupervisorConfig cfg = fastConfig();
    cfg.breakerThreshold = 2;
    cfg.breakerCooldownMs = 60000; // never half-opens in this test
    cfg.maxParallel = 1;           // deterministic failure order
    Supervisor sup(cfg, log);

    std::vector<JobSpec> jobs;
    for (int i = 0; i < 4; ++i) {
        JobSpec spec;
        spec.id = "sup_brk" + std::to_string(i);
        spec.type = JobType::Decode;
        spec.input = "/nonexistent/stream.m4v"; // permanent: exit 3
        spec.retries = 0;
        jobs.push_back(spec);
    }

    const BatchResult batch = sup.run(jobs);
    EXPECT_EQ(batch.failed, 2);
    EXPECT_EQ(batch.skipped, 2);
    EXPECT_EQ(log.count("breaker_open"), 1);
    EXPECT_EQ(batch.jobs[2].lastError, JobErrorKind::BreakerOpen);
    EXPECT_EQ(batch.jobs[2].attempts, 0);
    expectNoChildren();
}

TEST(Supervisor, TransientlyKilledProbeDoesNotWedgeTheBreaker)
{
    const std::string dir = testing::TempDir();
    SupervisorConfig cfg = fastConfig();
    cfg.breakerThreshold = 1;
    cfg.breakerCooldownMs = 0; // half-open the instant it opens
    cfg.maxParallel = 1;       // the permanent failure lands first
    EventLog log;
    Supervisor sup(cfg, log);

    JobSpec bad;
    bad.id = "sup_probe_bad";
    bad.type = JobType::Decode;
    bad.input = "/nonexistent/stream.m4v"; // permanent: opens breaker
    bad.retries = 0;
    bad.jobClass = "mix";

    // Same class, so its first attempt is the half-open probe - and
    // the injected crash kills that probe transiently, mid-verdict.
    JobSpec probe = tinyEncode(dir, "sup_probe_enc");
    probe.crashAtVop = 1;
    probe.retries = 2;
    probe.jobClass = "mix";

    const BatchResult batch = sup.run({bad, probe});

    // Without probeAborted() the crashed probe left probing_ stuck:
    // the breaker stayed half-open, allow() rejected every retry,
    // the job was never skipped (that needs state Open), and run()
    // spun forever.  Now the retry is admitted as a fresh probe,
    // resumes past the crash trigger, and closes the breaker.
    ASSERT_EQ(batch.jobs.size(), 2u);
    EXPECT_EQ(batch.jobs[0].outcome, JobOutcome::Failed);
    EXPECT_EQ(batch.jobs[1].outcome, JobOutcome::Completed);
    EXPECT_EQ(batch.jobs[1].attempts, 2);
    expectNoChildren();
}

TEST(Supervisor, KillStormEveryJobReachesATerminalState)
{
    const std::string dir = testing::TempDir();
    SupervisorConfig cfg = fastConfig();
    // Storm exposure is per poll tick, and how many ticks a worker
    // lives through depends on host speed - so rather than asserting
    // a completion ratio under a fixed retry budget (flaky under
    // TSan-grade slowdowns), give a budget generous enough that
    // checkpoint-resume's monotonic progress guarantees EVERY job
    // lands, however often the storm connects.
    cfg.defaultRetries = 200;
    cfg.stormKillChance = 0.03; // per running worker per poll tick
    cfg.seed = 1234;
    TickClock clock;
    clock.install(cfg);
    EventLog log;
    Supervisor sup(cfg, log);

    std::vector<JobSpec> jobs;
    for (int i = 0; i < 20; ++i)
        jobs.push_back(tinyEncode(dir, "storm" + std::to_string(i)));

    const BatchResult batch = sup.run(jobs);

    ASSERT_EQ(batch.jobs.size(), 20u);
    EXPECT_EQ(batch.completed + batch.degraded + batch.failed +
                  batch.skipped,
              20);
    // The storm must actually have hit something for this drill to
    // mean anything.
    EXPECT_GT(log.count("storm_kill"), 0);

    // Monotonic progress: every storm kill is transient and every
    // retry resumes from the last checkpoint, so nothing may fail.
    EXPECT_EQ(batch.completed, 20);

    // Bit-identity survives any number of kill/resume cycles: every
    // completed output equals the uninterrupted encode.
    const std::vector<uint8_t> reference =
        core::ExperimentRunner::encodeUntraced(jobs[0].workload);
    ASSERT_FALSE(reference.empty());
    for (const JobResult &r : batch.jobs) {
        if (r.outcome != JobOutcome::Completed)
            continue;
        EXPECT_EQ(readAll(dir + r.id + ".m4v"), reference)
            << r.id << " diverged after " << r.attempts << " attempts ("
            << r.stormKills << " storm kills)";
    }
    expectNoChildren();
}

TEST(Supervisor, InterruptTearsTheBatchDownCleanly)
{
    // The SIGTERM/SIGINT path of m4ps_batch: the handler sets a flag,
    // the supervisor polls it (SupervisorConfig::interrupted) and
    // tears the batch down itself.  Every job here hangs forever, so
    // this test only terminates if the interrupt path actually kills
    // and reaps the children - the teardown is load-bearing, not
    // decorative.
    const std::string dir = testing::TempDir();
    SupervisorConfig cfg = fastConfig();
    cfg.maxParallel = 2; // one job still Pending at interrupt time
    TickClock clock;
    clock.install(cfg);
    auto ms = clock.ms;
    cfg.interrupted = [ms] { return *ms > 100; };

    std::vector<JobSpec> jobs;
    for (int i = 0; i < 3; ++i) {
        JobSpec spec = tinyEncode(dir, "intr" + std::to_string(i));
        spec.hangAtVop = 1;      // hangs forever after the first VOP
        spec.deadlineMs = 60000; // watchdog must not beat the signal
        spec.retries = 0;
        jobs.push_back(spec);
    }

    EventLog log;
    Supervisor sup(cfg, log);
    const BatchResult batch = sup.run(jobs);

    // Running and pending jobs alike get a terminal verdict.
    ASSERT_EQ(batch.jobs.size(), 3u);
    EXPECT_EQ(batch.failed, 3);
    for (const JobResult &r : batch.jobs) {
        EXPECT_EQ(r.outcome, JobOutcome::Failed) << r.id;
        EXPECT_EQ(r.lastError, JobErrorKind::Interrupted) << r.id;
    }

    // The event log is complete: the interrupt marker once, then the
    // normal batch_done trailer - a consumer tailing the log sees a
    // clean shutdown, not a truncated stream.
    EXPECT_EQ(log.count("batch_interrupted"), 1);
    EXPECT_EQ(log.count("batch_done"), 1);

    // And nothing is orphaned: every child was killed and reaped.
    expectNoChildren();
}

} // namespace
} // namespace m4ps::service
