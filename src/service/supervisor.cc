#include "service/supervisor.hh"

#include <sys/types.h>
#include <sys/wait.h>

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "service/checkpoint.hh"
#include "service/worker.hh"
#include "support/json.hh"
#include "support/obs/obs.hh"
#include "support/perfctr/perfctr.hh"
#include "support/serialize.hh"

namespace m4ps::service
{

namespace
{

/**
 * Which perfctr backend a profiled job will get.  Probed once by
 * opening (and dropping) a counter group in the supervisor process;
 * workers run in the same container, so the answer matches what
 * their own open will select.
 */
const char *
probedPerfBackend()
{
    static const perfctr::Backend b = [] {
        perfctr::CounterGroup g;
        return g.backend();
    }();
    return perfctr::backendName(b);
}

} // namespace

const char *
jobErrorName(JobErrorKind k)
{
    switch (k) {
      case JobErrorKind::None:             return "none";
      case JobErrorKind::BadManifest:      return "bad-manifest";
      case JobErrorKind::BadConfig:        return "bad-config";
      case JobErrorKind::PermanentFailure: return "permanent-failure";
      case JobErrorKind::WorkerCrash:      return "worker-crash";
      case JobErrorKind::DeadlineExpired:  return "deadline-expired";
      case JobErrorKind::StormKilled:      return "storm-killed";
      case JobErrorKind::SpawnFailed:      return "spawn-failed";
      case JobErrorKind::BreakerOpen:      return "breaker-open";
      case JobErrorKind::Interrupted:      return "interrupted";
    }
    return "unknown";
}

const char *
jobOutcomeName(JobOutcome o)
{
    switch (o) {
      case JobOutcome::Completed: return "completed";
      case JobOutcome::Degraded:  return "degraded";
      case JobOutcome::Failed:    return "failed";
      case JobOutcome::Skipped:   return "skipped";
    }
    return "unknown";
}

const JobResult *
BatchResult::find(const std::string &id) const
{
    for (const JobResult &j : jobs) {
        if (j.id == id)
            return &j;
    }
    return nullptr;
}

/** Supervision state for one job. */
struct Supervisor::Tracked
{
    enum class Phase { Pending, Running, Done };

    Tracked(const JobSpec &s, int deadline, int budget, int64_t base,
            int64_t cap, uint64_t seed)
        : spec(s), deadlineMs(deadline), retries(budget),
          backoff(base, cap, seed)
    {
        result.id = s.id;
    }

    JobSpec spec;          //!< Current (possibly degraded) spec.
    JobResult result;
    int deadlineMs;
    int retries;
    Backoff backoff;

    Phase phase = Phase::Pending;
    int64_t eligibleAtMs = 0;   //!< Pending: earliest next attempt.
    pid_t pid = -1;             //!< Running: child process.
    int64_t deadlineAtMs = 0;   //!< Running: watchdog expiry.
    JobErrorKind killReason = JobErrorKind::None;
    int deadlineExpiries = 0;   //!< Since the last degradation step.
    bool isProbe = false;       //!< This attempt is a half-open probe.
    uint64_t attemptStartNs = 0; //!< Running: obs span start (0 = off).
};

namespace
{

int64_t
monotonicNowMs()
{
    using namespace std::chrono;
    return duration_cast<milliseconds>(
               steady_clock::now().time_since_epoch())
        .count();
}

bool
isEncodeLike(const JobSpec &s)
{
    return s.type == JobType::Encode || s.type == JobType::Transcode;
}

} // namespace

Supervisor::Supervisor(const SupervisorConfig &cfg, EventLog &log)
    : cfg_(cfg), log_(log)
{}

void
Supervisor::applyDegradation(JobSpec &spec, int level)
{
    core::Workload &w = spec.workload;
    switch (level) {
      case 1:
        // Halve the motion search: the dominant encode cost in the
        // paper's profile is the search loop.
        w.searchRange = std::max(1, w.searchRange / 2);
        w.searchRangeB = std::max(1, w.searchRangeB / 2);
        break;
      case 2:
        w.halfPel = false;
        break;
      case 3:
        w.initialQp = 31; // coarsest legal quantizer
        break;
      default:
        break;
    }
}

BatchResult
Supervisor::run(const std::vector<JobSpec> &specs)
{
    // Injected clock/sleep (tests) or the real monotonic clock.
    const auto clockNow = cfg_.nowMs ? cfg_.nowMs
                                     : std::function<int64_t()>(
                                           &monotonicNowMs);
    const auto doSleep =
        cfg_.sleepMs ? cfg_.sleepMs
                     : std::function<void(int64_t)>([](int64_t ms) {
                           std::this_thread::sleep_for(
                               std::chrono::milliseconds(ms));
                       });

    obs::Span batchSpan("service", "service.batch");
    if (batchSpan.active())
        batchSpan.setArgs(
            "{\"jobs\":" + std::to_string(specs.size()) + "}");

    std::vector<Tracked> jobs;
    jobs.reserve(specs.size());
    for (const JobSpec &s : specs) {
        const int deadline =
            s.deadlineMs > 0 ? s.deadlineMs : cfg_.defaultDeadlineMs;
        const int budget =
            s.retries >= 0 ? s.retries : cfg_.defaultRetries;
        jobs.emplace_back(s, deadline, budget, cfg_.backoffBaseMs,
                          cfg_.backoffCapMs,
                          cfg_.seed ^ support::fnv1a64(s.id));
        log_.emit(JsonEvent("job_queued")
                      .str("job", s.id)
                      .str("type", jobTypeName(s.type))
                      .str("class", s.effectiveClass())
                      .num("deadline_ms", deadline)
                      .num("retries", budget));
    }

    std::map<std::string, CircuitBreaker> breakers;
    auto breakerFor = [&](const std::string &cls) -> CircuitBreaker & {
        auto it = breakers.find(cls);
        if (it == breakers.end())
            it = breakers
                     .emplace(cls,
                              CircuitBreaker(cfg_.breakerThreshold,
                                             cfg_.breakerCooldownMs))
                     .first;
        return it->second;
    };

    Rng storm(cfg_.seed ^ 0x73746f726dull); // "storm"

    auto finishJob = [&](Tracked &t, JobOutcome outcome,
                         JobErrorKind err) {
        t.phase = Tracked::Phase::Done;
        t.result.outcome = outcome;
        t.result.lastError = err;
        obs::counter(std::string("service.jobs_") +
                     jobOutcomeName(outcome))
            .add();
        log_.emit(JsonEvent("job_done")
                      .str("job", t.spec.id)
                      .str("outcome", jobOutcomeName(outcome))
                      .str("error", jobErrorName(err))
                      .num("attempts", t.result.attempts)
                      .num("degrade_level", t.result.degradeLevel));
    };

    auto scheduleRetry = [&](Tracked &t, JobErrorKind err,
                             int64_t now) {
        if (t.isProbe) {
            // The half-open probe died transiently, with no verdict
            // on the class.  Release the probe slot: the breaker
            // stays half-open and the next eligible attempt probes,
            // instead of probing_ wedging allow() - and the whole
            // class - forever.
            breakerFor(t.spec.effectiveClass()).probeAborted();
            t.isProbe = false;
        }
        t.result.lastError = err;
        if (err == JobErrorKind::DeadlineExpired) {
            ++t.result.watchdogKills;
            ++t.deadlineExpiries;
            if (isEncodeLike(t.spec) &&
                t.deadlineExpiries >= cfg_.degradeAfterDeadlines &&
                t.result.degradeLevel < kMaxDegradeLevel) {
                ++t.result.degradeLevel;
                applyDegradation(t.spec, t.result.degradeLevel);
                t.deadlineExpiries = 0;
                log_.emit(JsonEvent("degraded")
                              .str("job", t.spec.id)
                              .num("level", t.result.degradeLevel)
                              .num("search_range",
                                   t.spec.workload.searchRange)
                              .boolean("half_pel",
                                       t.spec.workload.halfPel)
                              .num("initial_qp",
                                   t.spec.workload.initialQp));
            }
        } else if (err == JobErrorKind::StormKilled) {
            ++t.result.stormKills;
        }
        if (t.result.attempts > t.retries) {
            finishJob(t, JobOutcome::Failed, err);
            return;
        }
        const int64_t delay = t.backoff.nextDelayMs();
        t.phase = Tracked::Phase::Pending;
        t.eligibleAtMs = now + delay;
        log_.emit(JsonEvent("retry_scheduled")
                      .str("job", t.spec.id)
                      .str("error", jobErrorName(err))
                      .num("attempt", t.result.attempts)
                      .num("delay_ms", delay));
    };

    auto handleExit = [&](Tracked &t, int status, int64_t now) {
        CircuitBreaker &breaker = breakerFor(t.spec.effectiveClass());
        const JobErrorKind killReason = t.killReason;
        t.killReason = JobErrorKind::None;
        t.pid = -1;

        // The attempt's lifetime becomes a trace span (timed by the
        // real clock even when a fake clock drives the policy).
        if (t.attemptStartNs) {
            obs::completeEvent(
                "service", "job.attempt", t.attemptStartNs,
                obs::nowNs() - t.attemptStartNs,
                "{\"job\":\"" + support::jsonEscaped(t.spec.id) +
                    "\",\"attempt\":" +
                    std::to_string(t.result.attempts) + "}");
            t.attemptStartNs = 0;
        }

        JsonEvent exitEv("attempt_exit");
        exitEv.str("job", t.spec.id).num("attempt", t.result.attempts);
        if (WIFEXITED(status))
            exitEv.num("exit_code", WEXITSTATUS(status));
        else
            exitEv.num("signal",
                       WIFSIGNALED(status) ? WTERMSIG(status) : 0);
        // A worker killed after its completion record - the watchdog
        // or the storm catching it on its way out - finished the job;
        // the checkpoint it had not yet deleted goes now.
        const bool recorded = takeDone(t.spec.output);
        if (recorded)
            removeCheckpoint(checkpointPath(t.spec.output));
        if (recorded ||
            (WIFEXITED(status) && WEXITSTATUS(status) == kWorkerOk)) {
            exitEv.str("class", "success");
            log_.emit(exitEv);
            t.isProbe = false;
            breaker.recordSuccess();
            finishJob(t,
                      t.result.degradeLevel > 0 ? JobOutcome::Degraded
                                                : JobOutcome::Completed,
                      JobErrorKind::None);
            return;
        }
        if (WIFEXITED(status)) {
            const int code = WEXITSTATUS(status);
            const JobErrorKind err =
                code == kWorkerUsage ? JobErrorKind::BadConfig
                : code == kWorkerPermanent
                    ? JobErrorKind::PermanentFailure
                    : JobErrorKind::WorkerCrash;
            exitEv.str("class", jobErrorName(err));
            log_.emit(exitEv);
            if (err == JobErrorKind::WorkerCrash) {
                scheduleRetry(t, err, now);
                return;
            }
            const CircuitBreaker::State before = breaker.state(now);
            t.isProbe = false;
            breaker.recordPermanentFailure(now);
            if (before != CircuitBreaker::State::Open &&
                breaker.state(now) == CircuitBreaker::State::Open)
                log_.emit(JsonEvent("breaker_open")
                              .str("class", t.spec.effectiveClass())
                              .num("failures", breaker.failures()));
            finishJob(t, JobOutcome::Failed, err);
            return;
        }
        // Signaled: a watchdog or storm kill we initiated, or a
        // genuine crash (SIGSEGV, SIGABRT from an injected fault).
        const JobErrorKind err =
            killReason != JobErrorKind::None ? killReason
                                             : JobErrorKind::WorkerCrash;
        exitEv.str("class", jobErrorName(err));
        log_.emit(exitEv);
        scheduleRetry(t, err, now);
    };

    auto spawn = [&](Tracked &t, int64_t now) {
        ++t.result.attempts;
        // Only this attempt may vouch for itself (checkpoint.hh).
        takeDone(t.spec.output);
        if (isEncodeLike(t.spec) && t.spec.checkpoint &&
            t.result.attempts > 1) {
            uint64_t hash = 0;
            int next = 0;
            if (peekCheckpoint(checkpointPath(t.spec.output), &hash,
                               &next) &&
                hash == t.spec.configHash())
                log_.emit(JsonEvent("resume_from_checkpoint")
                              .str("job", t.spec.id)
                              .num("frame", next));
        }
        const pid_t pid = fork();
        if (pid < 0) {
            scheduleRetry(t, JobErrorKind::SpawnFailed, now);
            return;
        }
        if (pid == 0) {
            // Child: run the job and leave without unwinding the
            // parent's state (no atexit handlers, no stream flushes).
            if (cfg_.workerPath.empty()) {
                _exit(runJob(t.spec));
            } else {
                const std::string spec = t.spec.toSpecLine();
                execl(cfg_.workerPath.c_str(), "m4ps_worker", "--id",
                      t.spec.id.c_str(), "--spec", spec.c_str(),
                      static_cast<char *>(nullptr));
                _exit(127); // exec failed: transient WorkerCrash
            }
        }
        t.phase = Tracked::Phase::Running;
        t.pid = pid;
        t.deadlineAtMs = now + t.deadlineMs;
        t.killReason = JobErrorKind::None;
        t.attemptStartNs = obs::tracingEnabled() ? obs::nowNs() : 0;
        static obs::Counter &attemptsC =
            obs::counter("service.attempts");
        attemptsC.add();
        JsonEvent startEv("attempt_start");
        startEv.str("job", t.spec.id)
            .num("attempt", t.result.attempts)
            .num("pid", pid)
            .num("deadline_ms", t.deadlineMs)
            .num("degrade_level", t.result.degradeLevel);
        if (t.spec.perf)
            startEv.str("perf_backend", probedPerfBackend());
        log_.emit(startEv);
    };

    for (;;) {
        const int64_t now = clockNow();

        // Interrupt (SIGTERM/SIGINT via m4ps_batch): stop the batch
        // early but tear down exactly like the normal path - kill and
        // reap every child, give every unfinished job a terminal
        // verdict, leave the event log complete.
        if (cfg_.interrupted && cfg_.interrupted()) {
            int interruptedJobs = 0;
            for (Tracked &t : jobs) {
                if (t.phase == Tracked::Phase::Running && t.pid > 0) {
                    kill(t.pid, SIGKILL);
                    waitpid(t.pid, nullptr, 0);
                    t.pid = -1;
                }
                if (t.phase != Tracked::Phase::Done) {
                    if (t.isProbe) {
                        breakerFor(t.spec.effectiveClass())
                            .probeAborted();
                        t.isProbe = false;
                    }
                    finishJob(t, JobOutcome::Failed,
                              JobErrorKind::Interrupted);
                    ++interruptedJobs;
                }
            }
            log_.emit(JsonEvent("batch_interrupted")
                          .num("interrupted_jobs", interruptedJobs));
            break;
        }

        // Reap every child that has exited.
        int status = 0;
        pid_t pid;
        while ((pid = waitpid(-1, &status, WNOHANG)) > 0) {
            for (Tracked &t : jobs) {
                if (t.phase == Tracked::Phase::Running &&
                    t.pid == pid) {
                    handleExit(t, status, now);
                    break;
                }
            }
        }

        // Watchdog: SIGKILL anything past its deadline.
        for (Tracked &t : jobs) {
            if (t.phase == Tracked::Phase::Running &&
                t.killReason == JobErrorKind::None &&
                now >= t.deadlineAtMs) {
                t.killReason = JobErrorKind::DeadlineExpired;
                kill(t.pid, SIGKILL);
                static obs::Counter &wdC =
                    obs::counter("service.watchdog_kills");
                wdC.add();
                log_.emit(JsonEvent("watchdog_kill")
                              .str("job", t.spec.id)
                              .num("attempt", t.result.attempts)
                              .num("pid", t.pid));
            }
        }

        // Kill-storm drill.
        if (cfg_.stormKillChance > 0) {
            for (Tracked &t : jobs) {
                if (t.phase == Tracked::Phase::Running &&
                    t.killReason == JobErrorKind::None &&
                    storm.chance(cfg_.stormKillChance)) {
                    t.killReason = JobErrorKind::StormKilled;
                    kill(t.pid, SIGKILL);
                    static obs::Counter &stC =
                        obs::counter("service.storm_kills");
                    stC.add();
                    log_.emit(JsonEvent("storm_kill")
                                  .str("job", t.spec.id)
                                  .num("attempt", t.result.attempts)
                                  .num("pid", t.pid));
                }
            }
        }

        // Launch eligible pending jobs up to the parallelism cap.
        int running = 0;
        for (const Tracked &t : jobs) {
            if (t.phase == Tracked::Phase::Running)
                ++running;
        }
        for (Tracked &t : jobs) {
            if (running >= cfg_.maxParallel)
                break;
            if (t.phase != Tracked::Phase::Pending ||
                now < t.eligibleAtMs)
                continue;
            CircuitBreaker &breaker =
                breakerFor(t.spec.effectiveClass());
            const bool wasHalfOpen =
                breaker.state(now) == CircuitBreaker::State::HalfOpen;
            if (!breaker.allow(now)) {
                if (breaker.state(now) == CircuitBreaker::State::Open) {
                    log_.emit(JsonEvent("job_skipped")
                                  .str("job", t.spec.id)
                                  .str("class",
                                       t.spec.effectiveClass()));
                    finishJob(t, JobOutcome::Skipped,
                              JobErrorKind::BreakerOpen);
                }
                // Half-open with an outstanding probe: stay pending
                // until the probe resolves the breaker either way.
                continue;
            }
            // An attempt admitted through a half-open breaker is the
            // probe; it must report back via recordSuccess /
            // recordPermanentFailure / probeAborted.
            t.isProbe = wasHalfOpen;
            spawn(t, now);
            if (t.phase == Tracked::Phase::Running)
                ++running;
        }

        bool allDone = true;
        for (const Tracked &t : jobs) {
            if (t.phase != Tracked::Phase::Done) {
                allDone = false;
                break;
            }
        }
        if (allDone)
            break;

        doSleep(cfg_.pollMs);
    }

    // No zombie may survive: every child was reaped above, so the
    // only acceptable answer here is "no children at all".
    while (waitpid(-1, nullptr, WNOHANG) > 0) {
    }

    BatchResult batch;
    for (Tracked &t : jobs) {
        switch (t.result.outcome) {
          case JobOutcome::Completed: ++batch.completed; break;
          case JobOutcome::Degraded:  ++batch.degraded;  break;
          case JobOutcome::Failed:    ++batch.failed;    break;
          case JobOutcome::Skipped:   ++batch.skipped;   break;
        }
        batch.jobs.push_back(std::move(t.result));
    }
    log_.emit(JsonEvent("batch_done")
                  .num("jobs", static_cast<int64_t>(batch.jobs.size()))
                  .num("completed", batch.completed)
                  .num("degraded", batch.degraded)
                  .num("failed", batch.failed)
                  .num("skipped", batch.skipped));
    return batch;
}

} // namespace m4ps::service
