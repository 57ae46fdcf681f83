/**
 * @file
 * Low-overhead observability: tracing spans + metrics registry.
 *
 * The paper's method is measurement (perfex/SpeedShop counters turned
 * into Tables 2-8); this module gives the reproduction's own runtime
 * the same first-class treatment.  Two independent facilities share
 * one header:
 *
 *  - Tracing: RAII Span objects record Chrome trace_event "complete"
 *    events (name, category, thread id, start, duration, JSON args)
 *    into per-thread buffers.  Because a thread's spans destruct in
 *    LIFO order, events on one thread always nest strictly; the
 *    exporter (writeChromeTrace) emits JSON loadable in Perfetto or
 *    about:tracing.
 *  - Metrics: named counters, gauges and fixed-bucket histograms in a
 *    lock-sharded registry.  Handles are stable for the process
 *    lifetime, so hot paths cache a reference once and then pay one
 *    relaxed atomic per update.  writeMetricsText dumps a flat text
 *    report; snapshotMetrics returns structured values for tests.
 *
 * Cost model (see bench_obs_overhead and docs/OBSERVABILITY.md):
 *  - Disabled (default): one relaxed atomic load and a predictable
 *    branch per site.
 *  - Enabled: a clock read plus a buffer append per span; a relaxed
 *    fetch_add per counter update.
 *
 * Naming scheme (docs/OBSERVABILITY.md): dotted lower_snake names,
 * "<subsystem>.<thing>"; timing histograms end in "_us" or "_ns" and
 * scheduling metrics live under "pool." -- both are nondeterministic
 * by design, everything else must be bit-deterministic for a fixed
 * workload and seed (tests/test_obs.cc enforces this split).
 */

#ifndef M4PS_SUPPORT_OBS_OBS_HH
#define M4PS_SUPPORT_OBS_OBS_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace m4ps::obs
{

// ------------------------------------------------------------------
// Value types.
// ------------------------------------------------------------------

/** One recorded trace event (Chrome trace_event model). */
struct TraceEvent
{
    std::string name;  //!< Event name, e.g. "enc.row".
    const char *cat;   //!< Static category string, e.g. "codec".
    char phase;        //!< 'X' complete, 'i' instant.
    int tid;           //!< Dense per-thread id (see threadId()).
    uint64_t tsNs;     //!< Start, ns since process trace epoch.
    uint64_t durNs;    //!< Duration in ns ('X' only).
    std::string args;  //!< JSON object text ("{...}") or empty.
};

/** Structured copy of every metric, for tests and exporters. */
struct MetricsSnapshot
{
    struct Hist
    {
        std::vector<double> bounds;    //!< Upper bucket bounds.
        std::vector<uint64_t> buckets; //!< Per-bucket counts (+inf last).
        uint64_t count = 0;
        double sum = 0.0;
    };
    std::map<std::string, uint64_t> counters;
    std::map<std::string, int64_t> gauges;
    std::map<std::string, Hist> histograms;
};

/** Per-macroblock-row stage accumulator (encoder and decoder). */
enum class Stage
{
    Motion = 0,   //!< Mode decision + motion search / MV decode.
    DctQuant, //!< Forward/inverse DCT + (de)quantisation.
    Rlc,      //!< Zigzag + run-length (de)coding, bit I/O.
    Recon,    //!< Prediction build + reconstruction/clamp.
};
inline constexpr int kStageCount = 4;
const char *stageName(Stage s);

/**
 * Quantile estimate from fixed-bucket histogram counts, the shape a
 * MetricsSnapshot::Hist (or a windowed delta of two) carries:
 * @p bounds are the upper bucket bounds, @p buckets the per-bucket
 * counts with the +inf overflow bucket last (so buckets.size() ==
 * bounds.size() + 1).  Interpolates linearly inside the target
 * bucket, treating each bucket as uniform over (lower, upper]; the
 * answer is therefore exact to within one bucket width.  Edge rules:
 * an empty histogram returns 0; mass that lands in the overflow
 * bucket clamps to the last finite bound (the histogram records
 * nothing above it).  @p q is clamped to [0, 1].  Pure function.
 */
double quantileFromBuckets(const std::vector<double> &bounds,
                           const std::vector<uint64_t> &buckets,
                           double q);

/**
 * Per-row accumulated stage times.  A row records its trace-epoch
 * base timestamp once, accumulates wall ns per stage across all its
 * macroblocks, then emits the total as four back-to-back child spans
 * of the row span (emitStageSpans).  This keeps the trace readable:
 * one span per stage per row rather than six per macroblock.
 */
struct StageTimes
{
    uint64_t baseNs = 0;
    uint64_t ns[kStageCount] = {};
    bool active = false; //!< Tracing was on when the row started.
};

// ------------------------------------------------------------------
// Runtime switches.  Tracing and metrics toggle independently; both
// default to off so instrumented code costs one relaxed load per
// site until a tool or test opts in.
// ------------------------------------------------------------------

namespace detail
{
extern std::atomic<bool> gTracing;
extern std::atomic<bool> gMetrics;
} // namespace detail

void setTracing(bool on);
void setMetrics(bool on);

inline bool
tracingEnabled()
{
    return detail::gTracing.load(std::memory_order_relaxed);
}

inline bool
metricsEnabled()
{
    return detail::gMetrics.load(std::memory_order_relaxed);
}

// ------------------------------------------------------------------
// Tracing.
// ------------------------------------------------------------------

/** Monotonic ns since the process trace epoch (first use). */
uint64_t nowNs();

/**
 * CLOCK_REALTIME microseconds captured at the same instant as the
 * steady trace epoch nowNs() counts from.  Per-process trace shards
 * from one supervised batch align on this anchor: shard-local ns
 * timestamps plus the shard's realtime epoch land every process on
 * one wall-clock timeline (tools/m4ps_tracecat).
 */
uint64_t traceEpochRealtimeUs();

/** Dense id of the calling thread (0, 1, 2, ... in first-use order). */
int threadId();

/**
 * Cross-process trace correlation id (empty = unset).  Minted once
 * per batch/daemon run (m4ps_batch, m4ps_serve), propagated to
 * forked workers via the M4PS_TRACE_ID environment variable, and
 * stamped by the exporters into every span's args and by
 * service::EventLog into every event line, so shards from different
 * processes join into one correlated timeline.
 */
void setTraceId(std::string id);
std::string traceId();

/**
 * Human-readable name for this process's track in merged traces
 * (e.g. "supervisor", "worker:enc0").  Emitted by writeChromeTrace
 * as a process_name metadata event.
 */
void setProcessName(std::string name);
std::string processName();

/**
 * Record a complete ('X') event with explicit timing, for spans whose
 * lifetime does not match a C++ scope (supervisor job attempts,
 * synthesized per-stage row spans).  @p args, when non-empty, must be
 * a complete JSON object ("{...}"); it is embedded verbatim.
 */
void completeEvent(const char *cat, std::string name, uint64_t tsNs,
                   uint64_t durNs, std::string args = {});

/** Record an instant ('i') event at the current time. */
void instant(const char *cat, std::string name, std::string args = {});

/**
 * RAII scoped span.  Construction samples the clock only when tracing
 * is enabled; destruction records a complete event on this thread's
 * buffer.  Spans on one thread therefore nest strictly.
 */
class Span
{
  public:
    Span(const char *cat, const char *name)
    {
        if (tracingEnabled()) {
            cat_ = cat;
            name_ = name;
            startNs_ = nowNs();
            active_ = true;
        }
    }

    ~Span()
    {
        if (active_)
            completeEvent(cat_, name_, startNs_, nowNs() - startNs_,
                          std::move(args_));
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** True when this span is recording (tracing was on at entry). */
    bool active() const { return active_; }

    /** Start timestamp (valid only when active()). */
    uint64_t startNs() const { return startNs_; }

    /** Attach a JSON object ("{...}") emitted with the event. */
    void setArgs(std::string argsJson)
    {
        if (active_)
            args_ = std::move(argsJson);
    }

  private:
    const char *cat_ = nullptr;
    const char *name_ = nullptr;
    uint64_t startNs_ = 0;
    bool active_ = false;
    std::string args_;
};

/** Scoped accumulator adding wall time to one StageTimes slot. */
class StageScope
{
  public:
    StageScope(StageTimes &t, Stage s)
        : t_(t), s_(static_cast<int>(s))
    {
        if (t_.active)
            startNs_ = nowNs();
    }

    ~StageScope()
    {
        if (startNs_)
            t_.ns[s_] += nowNs() - startNs_;
    }

    StageScope(const StageScope &) = delete;
    StageScope &operator=(const StageScope &) = delete;

  private:
    StageTimes &t_;
    int s_;
    uint64_t startNs_ = 0;
};

/** Arm @p t for a row beginning now (no-op when tracing is off). */
inline void
beginStages(StageTimes &t)
{
    if (tracingEnabled()) {
        t.active = true;
        t.baseNs = nowNs();
    }
}

/**
 * Emit the accumulated stage times of one row as four back-to-back
 * child complete-events starting at the row's base timestamp, and
 * feed the "<prefix>.stage.<name>_us" histograms.  Safe to call
 * unconditionally; does nothing when the row was not armed.
 */
void emitStageSpans(const char *cat, const char *prefix,
                    const StageTimes &t);

/** All events recorded so far, across threads (tests, exporters). */
std::vector<TraceEvent> snapshotTrace();

/** Events dropped because a per-thread buffer hit its cap. */
uint64_t droppedEvents();

/** Discard all recorded events (buffers stay registered). */
void clearTrace();

/**
 * Write every recorded event as Chrome trace_event JSON, loadable in
 * Perfetto / about:tracing.  Timestamps are microseconds.
 */
void writeChromeTrace(std::ostream &os);

// ------------------------------------------------------------------
// Metrics.
// ------------------------------------------------------------------

/** Monotonic counter; add() is one relaxed fetch_add when enabled. */
class Counter
{
  public:
    void add(uint64_t n = 1)
    {
        if (metricsEnabled())
            v_.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t value() const { return v_.load(std::memory_order_relaxed); }
    void reset() { v_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> v_{0};
};

/** Last-value + high-watermark gauge. */
class Gauge
{
  public:
    void set(int64_t v)
    {
        if (!metricsEnabled())
            return;
        v_.store(v, std::memory_order_relaxed);
        int64_t m = max_.load(std::memory_order_relaxed);
        while (v > m &&
               !max_.compare_exchange_weak(m, v,
                                           std::memory_order_relaxed)) {
        }
    }

    int64_t value() const { return v_.load(std::memory_order_relaxed); }
    int64_t maxValue() const
    {
        return max_.load(std::memory_order_relaxed);
    }
    void reset()
    {
        v_.store(0, std::memory_order_relaxed);
        max_.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<int64_t> v_{0};
    std::atomic<int64_t> max_{0};
};

/** Fixed-bucket histogram (upper bounds set at registration). */
class Histogram
{
  public:
    explicit Histogram(std::vector<double> bounds);

    void observe(double v)
    {
        if (metricsEnabled())
            observeAlways(v);
    }

    uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }
    double sum() const;
    const std::vector<double> &bounds() const { return bounds_; }
    std::vector<uint64_t> bucketCounts() const;
    void reset();

  private:
    void observeAlways(double v);

    std::vector<double> bounds_;
    std::vector<std::atomic<uint64_t>> buckets_; //!< bounds_+1 (inf).
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sumBits_{0}; //!< bit_cast'ed double.
};

/**
 * Registry accessors.  The first call for a name registers it; later
 * calls return the same object, so call sites cache the reference:
 *
 *     static obs::Counter &rows = obs::counter("enc.rows");
 *     rows.add();
 *
 * Histogram bounds are fixed by the first registration; a mismatched
 * re-registration keeps the original bounds.
 */
Counter &counter(std::string_view name);
Gauge &gauge(std::string_view name);
Histogram &histogram(std::string_view name,
                     const std::vector<double> &bounds);

/** Default bucket bounds for "_us" timing histograms. */
const std::vector<double> &timingBoundsUs();

MetricsSnapshot snapshotMetrics();

/** Zero every metric value (registrations and handles survive). */
void resetMetrics();

/** Flat text dump: "counter <name> <value>" etc., sorted by name. */
void writeMetricsText(std::ostream &os);

} // namespace m4ps::obs

#endif // M4PS_SUPPORT_OBS_OBS_HH
