/**
 * @file
 * Fault-tolerant batch supervisor: fork-isolated workers, watchdog
 * deadlines, retry with backoff, circuit breaking, and graceful
 * degradation.
 *
 * The supervisor runs a manifest of jobs, each attempt in its own
 * child process so nothing a worker does - crash, abort, hang, OOM -
 * can take the batch down.  One reaping loop owns all supervision
 * policy:
 *
 *  - every child is reaped (no zombies survive run());
 *  - a watchdog SIGKILLs any attempt that outlives its deadline;
 *  - exits are classified into JobErrorKind, mirroring the decoder's
 *    DecodeErrorKind taxonomy: transient kinds retry under an
 *    exponential-backoff-with-jitter budget, permanent kinds fail
 *    the job and feed its class's circuit breaker;
 *  - a job whose attempts keep blowing the deadline is degraded down
 *    a quality ladder (smaller motion search, no half-pel, pinned
 *    coarse quantizer) before being retried - a cheaper encode that
 *    finishes beats a perfect one that never does;
 *  - encode attempts resume from their checkpoint sidecar, so work
 *    done before a kill is never repaid, and an attempt killed after
 *    writing its completion record (service/checkpoint.hh) counts as
 *    finished;
 *  - a seeded kill-storm can randomly SIGKILL running workers to
 *    drill exactly these paths (storm kills do not count against
 *    the deadline-degradation ladder).
 *
 * Every decision is emitted to the EventLog as a JSON line.
 */

#ifndef M4PS_SERVICE_SUPERVISOR_HH
#define M4PS_SERVICE_SUPERVISOR_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "service/backoff.hh"
#include "service/events.hh"
#include "service/jobspec.hh"

namespace m4ps::service
{

/** Why a job (or its last attempt) failed. */
enum class JobErrorKind
{
    None,
    BadManifest,      //!< Spec rejected before any attempt.
    BadConfig,        //!< Worker exit 2: unusable spec (permanent).
    PermanentFailure, //!< Worker exit 3 (permanent).
    WorkerCrash,      //!< Unexpected exit / signal (transient).
    DeadlineExpired,  //!< Watchdog SIGKILL (transient, degrades).
    StormKilled,      //!< Kill-storm SIGKILL (transient).
    SpawnFailed,      //!< fork() failed (transient).
    BreakerOpen,      //!< Class breaker rejected the job (skipped).
    Interrupted,      //!< Batch interrupted (SIGTERM/SIGINT).
};

const char *jobErrorName(JobErrorKind k);

/** Terminal state of one job. */
enum class JobOutcome
{
    Completed, //!< Succeeded at full quality.
    Degraded,  //!< Succeeded after stepping down the quality ladder.
    Failed,    //!< Permanent failure or retry budget exhausted.
    Skipped,   //!< Never attempted (circuit breaker open).
};

const char *jobOutcomeName(JobOutcome o);

/** Per-job supervision verdict. */
struct JobResult
{
    std::string id;
    JobOutcome outcome = JobOutcome::Failed;
    JobErrorKind lastError = JobErrorKind::None;
    int attempts = 0;
    int degradeLevel = 0;
    int watchdogKills = 0;
    int stormKills = 0;
};

/** Whole-batch summary. */
struct BatchResult
{
    std::vector<JobResult> jobs;
    int completed = 0;
    int degraded = 0;
    int failed = 0;
    int skipped = 0;

    const JobResult *find(const std::string &id) const;
};

/** Supervision policy knobs. */
struct SupervisorConfig
{
    /** Watchdog deadline for jobs that do not set their own. */
    int defaultDeadlineMs = 30000;

    /** Transient-failure retry budget for jobs without their own. */
    int defaultRetries = 3;

    /** Backoff delay bounds (decorrelated jitter between them). */
    int64_t backoffBaseMs = 50;
    int64_t backoffCapMs = 2000;

    /** Deterministic seed for backoff jitter and the kill-storm. */
    uint64_t seed = 1;

    /** Permanent failures of one class before its breaker opens. */
    int breakerThreshold = 3;

    /** Open -> half-open cooldown. */
    int64_t breakerCooldownMs = 10000;

    /** Deadline expiries before an encode job degrades one level. */
    int degradeAfterDeadlines = 2;

    /** Reaping-loop poll interval. */
    int pollMs = 5;

    /** Concurrent worker processes. */
    int maxParallel = 4;

    /**
     * Kill-storm drill: per poll tick, each running worker is
     * SIGKILLed with this probability (seeded; 0 disables).
     */
    double stormKillChance = 0.0;

    /**
     * Worker binary to fork+exec.  Empty = fork without exec and run
     * service::runJob in the child directly; the supervision contract
     * is identical either way since isolation comes from fork().
     */
    std::string workerPath;

    /**
     * Clock and sleep injection, following the Backoff/CircuitBreaker
     * fake-clock convention: when set, every supervision decision
     * (watchdog deadlines, retry eligibility, breaker cooldowns) uses
     * nowMs() and the poll loop waits via sleepMs(ms) instead of the
     * real monotonic clock and std::this_thread::sleep_for.  Tests
     * drive these with a tick clock so deadline arithmetic is immune
     * to scheduler load (e.g. under TSan); production leaves both
     * unset.
     */
    std::function<int64_t()> nowMs;
    std::function<void(int64_t)> sleepMs;

    /**
     * Interrupt hook, polled once per loop tick.  When it returns
     * true the supervisor stops the batch early: every running child
     * is SIGKILLed and reaped (no zombies, exactly as on the normal
     * path), unfinished jobs are marked Failed with Interrupted, a
     * "batch_interrupted" event is emitted, and run() returns with
     * the event log complete.  m4ps_batch points this at a
     * sig_atomic_t flag set by its SIGTERM/SIGINT handlers, so an
     * interrupted batch tears down cleanly instead of orphaning
     * workers mid-encode.  Unset = never interrupted.
     */
    std::function<bool()> interrupted;
};

/** Runs one batch of jobs to terminal outcomes. */
class Supervisor
{
  public:
    Supervisor(const SupervisorConfig &cfg, EventLog &log);

    /**
     * Run every job to a terminal outcome.  Returns when no child
     * remains: completed, degraded, failed, or skipped - never
     * hung, and never leaving a zombie behind.
     */
    BatchResult run(const std::vector<JobSpec> &jobs);

    /**
     * Apply degradation @p level to @p spec's workload: 1 halves the
     * motion-search range, 2 also disables half-pel refinement, 3
     * also pins a coarse quantizer.  Changing the workload changes
     * the spec's configHash, so checkpoints from healthier attempts
     * read as stale and are discarded.  Exposed for tests.
     */
    static void applyDegradation(JobSpec &spec, int level);

    /** Highest meaningful degradation level. */
    static constexpr int kMaxDegradeLevel = 3;

  private:
    struct Tracked;

    SupervisorConfig cfg_;
    EventLog &log_;
};

} // namespace m4ps::service

#endif // M4PS_SERVICE_SUPERVISOR_HH
