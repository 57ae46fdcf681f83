/**
 * @file
 * Live service statistics for the m4ps_serve STATS endpoint.
 *
 * The daemon's lifetime counters (ServerStats) answer "what happened
 * since start", but an operator asking a running daemon "what is p99
 * *right now*, how hard are we shedding?" needs windowed numbers: a
 * lifetime average flattens a ten-second overload spike into noise
 * after an hour of uptime.  The scheme here is a small ring of
 * periodic cumulative samples (SnapshotRing, pushed by the server's
 * tick thread): a STATS query diffs the current cumulative state
 * against the oldest ring entry, so every rate (sessions/sec,
 * sheds/sec, bytes/sec) and quantile (p50/p99 from latency bucket
 * deltas via obs::quantileFromBuckets) covers the last
 * ring-capacity x interval seconds - a sliding window that starts as
 * "since start" until the ring fills and then follows live traffic.
 *
 * ServiceSnapshot is the answer struct; renderServiceSnapshot
 * serializes it as the "m4ps-stats-v1" JSON document the wire
 * carries (docs/OBSERVABILITY.md documents the schema).
 */

#ifndef M4PS_SERVE_STATS_HH
#define M4PS_SERVE_STATS_HH

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace m4ps::serve
{

/**
 * Bucket bounds (milliseconds) for the session-latency histogram.
 * Log-spaced 5ms .. 30s: tiny test sessions land in the first
 * buckets, a deadline-bounded production encode in the middle, and
 * anything pinned at the watchdog deadline in the last.
 */
const std::vector<double> &sessionLatencyBoundsMs();

/** One cumulative sample of daemon state, stamped with mono time. */
struct StatsSample
{
    int64_t monoMs = 0;
    uint64_t admitted = 0;
    uint64_t shed = 0;
    uint64_t verdicts = 0;  //!< Sessions reaching any terminal verdict.
    uint64_t completed = 0; //!< Ok verdicts.
    uint64_t payloadBytes = 0;
    uint64_t latencyCount = 0;
    /** Per-bucket counts, +inf overflow last (bounds + 1 entries). */
    std::vector<uint64_t> latencyBuckets;
};

/**
 * Sessions per latency bucket that ended between @p base and @p now
 * (both cumulative; each delta clamps at zero), for
 * obs::quantileFromBuckets over sessionLatencyBoundsMs().
 */
std::vector<uint64_t> latencyBucketDeltas(const StatsSample &base,
                                          const StatsSample &now);

/**
 * Bounded FIFO of periodic samples.  push() evicts the oldest entry
 * past capacity, so oldest() recedes at most capacity x interval into
 * the past - that distance is the stats window.  Internally locked:
 * the tick thread pushes while the accept thread reads.
 */
class SnapshotRing
{
  public:
    explicit SnapshotRing(size_t capacity) : capacity_(capacity) {}

    void push(StatsSample s);
    StatsSample oldest() const;
    size_t size() const;

  private:
    mutable std::mutex mu_;
    std::deque<StatsSample> ring_;
    size_t capacity_;
};

/** Aggregate daemon statistics (a consistent snapshot). */
struct ServerStats
{
    uint64_t admitted = 0;
    uint64_t shedOverloaded = 0;
    uint64_t shedDraining = 0;
    uint64_t shedBreaker = 0;

    uint64_t completed = 0;    //!< Ok verdicts.
    uint64_t checkpointed = 0; //!< Drain checkpoints.
    uint64_t failed = 0;       //!< InternalError verdicts.
    uint64_t canceled = 0;     //!< Client went away.
    uint64_t badRequests = 0;
    uint64_t idleTimeouts = 0;
    uint64_t deadlineExceeded = 0;
    uint64_t slowReaders = 0;

    uint64_t packets = 0;      //!< DATA packets staged.
    uint64_t payloadBytes = 0; //!< Elementary-stream bytes streamed.

    uint64_t retargetSteps = 0;      //!< Backpressure retargets.
    uint64_t retargetedSessions = 0; //!< Sessions with >= 1 retarget.

    uint64_t fecBlocksCorrected = 0;     //!< Over decode sessions.
    uint64_t fecBlocksUncorrectable = 0; //!< Over decode sessions.

    size_t globalQueuePeak = 0;      //!< Max global queued bytes seen.
    size_t globalQueueWatermark = 0; //!< The configured bound.

    int ladderMaxLevel = 0; //!< Highest tier reached.
    std::vector<int64_t> ladderOccupancyMs; //!< Per-level dwell time.

    uint64_t shedTotal() const
    {
        return shedOverloaded + shedDraining + shedBreaker;
    }
};

/** Everything one STATS reply carries (schema "m4ps-stats-v1"). */
struct ServiceSnapshot
{
    int64_t nowMs = 0;    //!< Mono clock at the query.
    int64_t uptimeMs = 0; //!< Since Server::start().
    std::string traceId;  //!< obs::traceId() (may be empty).
    std::string endpoint;
    bool draining = false;
    int degradeLevel = 0;

    int activeSessions = 0;
    int maxSessions = 0;

    uint64_t queueBytes = 0;

    /** Lifetime counters, queue peak and watermark, ladder top. */
    ServerStats lifetime;
    double lifetimeP50Ms = 0.0;
    double lifetimeP99Ms = 0.0;

    // Windowed (newest-vs-oldest ring delta) rates and quantiles.
    int64_t windowSpanMs = 0;
    uint64_t windowAdmitted = 0;
    uint64_t windowVerdicts = 0;
    uint64_t windowShed = 0;
    uint64_t windowPayloadBytes = 0;
    double sessionsPerSec = 0.0; //!< Terminal verdicts per second.
    double shedsPerSec = 0.0; //!< Also the "shed_rate" scrape key.
    double bytesPerSec = 0.0;
    double windowP50Ms = 0.0;
    double windowP99Ms = 0.0;

    // SLO tracking (sloP99TargetMs == 0 means no SLO configured).
    int64_t sloP99TargetMs = 0;
    uint64_t sloWindows = 0;    //!< Evaluated stats intervals.
    uint64_t sloViolations = 0; //!< Intervals with p99 over target.
};

/**
 * Fill the window fields of @p snap from two cumulative samples:
 * @p base (the oldest ring entry) and @p now (the state at query
 * time).  Quantiles come from latency-bucket deltas against
 * @p boundsMs.  Counter deltas clamp at zero defensively; a window
 * shorter than 1ms reports zero rates rather than dividing by ~0.
 */
void fillSnapshotWindow(ServiceSnapshot *snap, const StatsSample &base,
                        const StatsSample &now,
                        const std::vector<double> &boundsMs);

/** Serialize as the compact single-line m4ps-stats-v1 document. */
std::string renderServiceSnapshot(const ServiceSnapshot &s);

} // namespace m4ps::serve

#endif // M4PS_SERVE_STATS_HH
