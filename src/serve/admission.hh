/**
 * @file
 * Admission control and graceful degradation for m4ps_serve.
 *
 * AdmissionController is the daemon's front door.  It enforces the
 * session-count watermark, consults the per-class circuit breakers
 * (the PR 3 service::CircuitBreaker, shared here across concurrent
 * session threads behind this controller's mutex - the breaker
 * itself stays the single-threaded fake-clock-testable primitive),
 * and turns every refusal into a structured protocol::Status the
 * daemon rejects-fast with: Overloaded at the watermark, Draining
 * after drain begins, BreakerOpen while a session class is tripped.
 * Sessions that end in InternalError feed their class's breaker;
 * a half-open breaker admits exactly one probe session whose outcome
 * closes or re-opens it, and a probe that dies without a verdict
 * (canceled mid-flight) releases the probe slot.
 *
 * DegradationLadder is the sustained-overload policy: a load signal
 * in [0, 1] (max of session occupancy and global queue occupancy) is
 * sampled every daemon tick, and the ladder steps up through quality
 * tiers - frame-rate, then resolution, then the PR 7 punctured FEC
 * rate ladder - with hysteresis: distinct up/down thresholds plus a
 * minimum dwell time per level, so a flapping load cannot make the
 * quality oscillate.  The ladder shapes *newly admitted* sessions
 * (applyToSpec); in-flight sessions degrade only through the rate-
 * controller backpressure hook.  Both classes take the current time
 * as a parameter and never sleep, following the Backoff convention,
 * so tests drive them with a fake clock.
 */

#ifndef M4PS_SERVE_ADMISSION_HH
#define M4PS_SERVE_ADMISSION_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "serve/protocol.hh"
#include "service/backoff.hh"
#include "service/jobspec.hh"

namespace m4ps::serve
{

/** Admission policy knobs. */
struct AdmissionConfig
{
    /** Concurrent admitted sessions (the capacity watermark). */
    int maxSessions = 8;

    /** Permanent failures of one class before its breaker opens. */
    int breakerThreshold = 3;

    /** Breaker open -> half-open cooldown. */
    int64_t breakerCooldownMs = 5000;
};

/** Why a session was (not) admitted. */
struct AdmitDecision
{
    bool admitted = false;
    Status shedStatus = Status::Ok; //!< Valid when !admitted.
    bool isProbe = false;           //!< Half-open breaker probe.
};

/** How an admitted session ended, for breaker bookkeeping. */
enum class SessionEnd
{
    Success,          //!< Ok / Checkpointed: closes a probing breaker.
    PermanentFailure, //!< InternalError: feeds the class breaker.
    NoVerdict,        //!< Client-caused end: aborts a probe, no count.
};

/** Thread-safe front door: watermarks, drain, per-class breakers. */
class AdmissionController
{
  public:
    explicit AdmissionController(const AdmissionConfig &cfg);

    /**
     * Connection-level gate, before the request is even read: sheds
     * with Overloaded at the session watermark and Draining once
     * drain began.  An admitted connection holds one session slot
     * until release().
     */
    AdmitDecision tryAdmit(int64_t nowMs);

    /**
     * Class-level gate, after the request parsed: consults the
     * class's breaker.  Sheds with BreakerOpen; may mark the session
     * as the half-open probe.  Does not take or release slots.
     */
    AdmitDecision checkClass(const std::string &cls, int64_t nowMs);

    /** Report a classed session's outcome to its class's breaker. */
    void reportOutcome(const std::string &cls, bool wasProbe,
                       SessionEnd end, int64_t nowMs);

    /** Free the session slot taken by tryAdmit(). */
    void release();

    /** Stop admitting: every tryAdmit sheds with Draining. */
    void beginDrain();
    bool draining() const;

    int active() const;
    int maxSessions() const { return cfg_.maxSessions; }
    uint64_t admitted() const;
    uint64_t shed() const;

    /** Load factor in [0, 1]: active sessions over capacity. */
    double sessionLoad() const;

  private:
    service::CircuitBreaker &breakerFor(const std::string &cls);

    AdmissionConfig cfg_;
    mutable std::mutex mu_;
    std::map<std::string, service::CircuitBreaker> breakers_;
    int active_ = 0;
    uint64_t admitted_ = 0;
    uint64_t shed_ = 0;
    bool draining_ = false;
};

/** Degradation-ladder policy knobs. */
struct LadderConfig
{
    /** Load at/above which the ladder steps up (after dwell). */
    double stepUpLoad = 0.85;

    /** Load at/below which the ladder steps down (after dwell). */
    double stepDownLoad = 0.50;

    /** Minimum time between level changes (hysteresis dwell). */
    int64_t dwellMs = 500;

    /** Highest tier. */
    int maxLevel = 3;
};

/** Hysteresis quality ladder under sustained overload. */
class DegradationLadder
{
  public:
    explicit DegradationLadder(const LadderConfig &cfg);

    int level() const { return level_; }

    /**
     * Fold one load sample at @p nowMs into the ladder; returns the
     * (possibly changed) level.  The first sample anchors the dwell
     * clock.
     */
    int observe(double load, int64_t nowMs);

    /** Total ms spent at @p level so far (occupancy accounting). */
    int64_t occupancyMs(int level) const;

    /** Finalize occupancy accounting at @p nowMs (end of run). */
    void finish(int64_t nowMs);

    /**
     * Shape a newly admitted session's spec for @p level:
     *   1  halve the frame-rate tier (half the frames at half the
     *      rate - same media duration, half the encode work);
     *   2  also halve the resolution tier (MB-aligned, floor 16);
     *   3  also step down the punctured FEC rate ladder
     *      (1/2 -> 2/3 -> 3/4; FEC-off sessions pin the coarse
     *      quantizer instead, like the supervisor ladder).
     */
    static void applyToSpec(service::JobSpec &spec, int level);

  private:
    void accumulate(int64_t nowMs);

    LadderConfig cfg_;
    int level_ = 0;
    bool anchored_ = false;
    int64_t lastChangeMs_ = 0;
    int64_t lastSampleMs_ = 0;
    std::vector<int64_t> occupancyMs_;
};

} // namespace m4ps::serve

#endif // M4PS_SERVE_ADMISSION_HH
