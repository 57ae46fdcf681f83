/**
 * @file
 * Span/trace-event recording: per-thread buffers + global registry.
 *
 * Each thread appends to its own buffer (one uncontended mutex per
 * buffer, held only for the append or a snapshot copy), so recording
 * never serialises worker threads against each other.  Buffers are
 * held by shared_ptr in a global registry and by a thread_local
 * handle, so events survive thread exit (the ThreadPool joins and
 * respawns workers on resize) and the exporter can walk all buffers
 * at any time.  A per-thread event cap bounds memory on runaway
 * traces; overflow increments a dropped-event counter instead of
 * reallocating forever.
 */

#include "support/obs/obs.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>

namespace m4ps::obs
{

namespace detail
{
std::atomic<bool> gTracing{false};
std::atomic<bool> gMetrics{false};
} // namespace detail

void
setTracing(bool on)
{
    detail::gTracing.store(on, std::memory_order_relaxed);
}

void
setMetrics(bool on)
{
    detail::gMetrics.store(on, std::memory_order_relaxed);
}

namespace
{

/** Cap per thread: bounds memory at roughly tens of MB worst case. */
constexpr size_t kMaxEventsPerThread = 1u << 18;

struct TraceBuffer
{
    std::mutex mu;
    std::vector<TraceEvent> events;
    uint64_t dropped = 0;
    int tid = 0;
};

struct Registry
{
    std::mutex mu;
    std::vector<std::shared_ptr<TraceBuffer>> buffers;
    int nextTid = 0;
};

Registry &
registry()
{
    // Leaked (never destroyed): worker threads may record during
    // process teardown after static destructors start running.
    static Registry *r = new Registry;
    return *r;
}

TraceBuffer &
localBuffer()
{
    thread_local std::shared_ptr<TraceBuffer> buf = [] {
        auto b = std::make_shared<TraceBuffer>();
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mu);
        b->tid = r.nextTid++;
        r.buffers.push_back(b);
        return b;
    }();
    return *buf;
}

void
record(TraceEvent &&e)
{
    TraceBuffer &b = localBuffer();
    e.tid = b.tid;
    std::lock_guard<std::mutex> lock(b.mu);
    if (b.events.size() >= kMaxEventsPerThread) {
        ++b.dropped;
        return;
    }
    b.events.push_back(std::move(e));
}

} // namespace

namespace
{

/**
 * Steady and realtime epochs sampled back-to-back at first use, so
 * every shard-local ns timestamp has a wall-clock anchor.  The pair
 * is what lets m4ps_tracecat line up shards from different
 * processes: realtimeUs + tsNs/1000 is comparable across them.
 */
struct TraceEpochs
{
    std::chrono::steady_clock::time_point steady;
    uint64_t realtimeUs;

    TraceEpochs()
        : steady(std::chrono::steady_clock::now()),
          realtimeUs(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::system_clock::now().time_since_epoch())
                  .count()))
    {
    }
};

const TraceEpochs &
traceEpochs()
{
    static const TraceEpochs e;
    return e;
}

/** Rarely touched (startup + export), so one mutex is plenty. */
std::mutex gIdentityMu;
std::string gTraceId;
std::string gProcessName;

} // namespace

uint64_t
nowNs()
{
    using clock = std::chrono::steady_clock;
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            clock::now() - traceEpochs().steady)
            .count());
}

uint64_t
traceEpochRealtimeUs()
{
    return traceEpochs().realtimeUs;
}

void
setTraceId(std::string id)
{
    std::lock_guard<std::mutex> lock(gIdentityMu);
    gTraceId = std::move(id);
}

std::string
traceId()
{
    std::lock_guard<std::mutex> lock(gIdentityMu);
    return gTraceId;
}

void
setProcessName(std::string name)
{
    std::lock_guard<std::mutex> lock(gIdentityMu);
    gProcessName = std::move(name);
}

std::string
processName()
{
    std::lock_guard<std::mutex> lock(gIdentityMu);
    return gProcessName;
}

int
threadId()
{
    return localBuffer().tid;
}

void
completeEvent(const char *cat, std::string name, uint64_t tsNs,
              uint64_t durNs, std::string args)
{
    if (!tracingEnabled())
        return;
    record({std::move(name), cat, 'X', 0, tsNs, durNs,
            std::move(args)});
}

void
instant(const char *cat, std::string name, std::string args)
{
    if (!tracingEnabled())
        return;
    record({std::move(name), cat, 'i', 0, nowNs(), 0,
            std::move(args)});
}

void
emitStageSpans(const char *cat, const char *prefix, const StageTimes &t)
{
    if (!t.active)
        return;
    // Children are laid back-to-back from the row's base timestamp.
    // Each stage's accumulated wall time is a subset of the row's
    // wall time past baseNs, so the children always fit inside the
    // enclosing row span and Perfetto nests them correctly.
    uint64_t at = t.baseNs;
    for (int s = 0; s < kStageCount; ++s) {
        const auto stage = static_cast<Stage>(s);
        std::string name = std::string(prefix) + ".stage." +
                           stageName(stage);
        if (tracingEnabled() && t.ns[s] > 0)
            completeEvent(cat, name, at, t.ns[s]);
        at += t.ns[s];
        static const std::vector<double> &tb = timingBoundsUs();
        histogram(name + "_us", tb)
            .observe(static_cast<double>(t.ns[s]) / 1000.0);
    }
}

std::vector<TraceEvent>
snapshotTrace()
{
    std::vector<std::shared_ptr<TraceBuffer>> bufs;
    {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mu);
        bufs = r.buffers;
    }
    std::vector<TraceEvent> out;
    for (const auto &b : bufs) {
        std::lock_guard<std::mutex> lock(b->mu);
        out.insert(out.end(), b->events.begin(), b->events.end());
    }
    std::sort(out.begin(), out.end(),
              [](const TraceEvent &a, const TraceEvent &b) {
                  return a.tsNs < b.tsNs;
              });
    return out;
}

uint64_t
droppedEvents()
{
    std::vector<std::shared_ptr<TraceBuffer>> bufs;
    {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mu);
        bufs = r.buffers;
    }
    uint64_t n = 0;
    for (const auto &b : bufs) {
        std::lock_guard<std::mutex> lock(b->mu);
        n += b->dropped;
    }
    return n;
}

void
clearTrace()
{
    std::vector<std::shared_ptr<TraceBuffer>> bufs;
    {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mu);
        bufs = r.buffers;
    }
    for (const auto &b : bufs) {
        std::lock_guard<std::mutex> lock(b->mu);
        b->events.clear();
        b->dropped = 0;
    }
}

} // namespace m4ps::obs
