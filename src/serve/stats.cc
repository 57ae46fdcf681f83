#include "serve/stats.hh"

#include "support/json.hh"
#include "support/obs/obs.hh"

namespace m4ps::serve
{

const std::vector<double> &
sessionLatencyBoundsMs()
{
    static const std::vector<double> kBounds{
        5,    10,   20,   50,    100,   200,  500,
        1000, 2000, 5000, 10000, 30000};
    return kBounds;
}

void
SnapshotRing::push(StatsSample s)
{
    std::lock_guard<std::mutex> lock(mu_);
    ring_.push_back(std::move(s));
    while (ring_.size() > capacity_)
        ring_.pop_front();
}

StatsSample
SnapshotRing::oldest() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return ring_.empty() ? StatsSample{} : ring_.front();
}

size_t
SnapshotRing::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return ring_.size();
}

namespace
{

uint64_t
deltaOf(uint64_t now, uint64_t base)
{
    return now >= base ? now - base : 0;
}

} // namespace

std::vector<uint64_t>
latencyBucketDeltas(const StatsSample &base, const StatsSample &now)
{
    std::vector<uint64_t> deltas(now.latencyBuckets.size(), 0);
    for (size_t i = 0; i < deltas.size(); ++i) {
        const uint64_t b = i < base.latencyBuckets.size()
                               ? base.latencyBuckets[i]
                               : 0;
        deltas[i] = deltaOf(now.latencyBuckets[i], b);
    }
    return deltas;
}

void
fillSnapshotWindow(ServiceSnapshot *snap, const StatsSample &base,
                   const StatsSample &now,
                   const std::vector<double> &boundsMs)
{
    snap->windowSpanMs = now.monoMs - base.monoMs;
    snap->windowAdmitted = deltaOf(now.admitted, base.admitted);
    snap->windowVerdicts = deltaOf(now.verdicts, base.verdicts);
    snap->windowShed = deltaOf(now.shed, base.shed);
    snap->windowPayloadBytes =
        deltaOf(now.payloadBytes, base.payloadBytes);

    if (snap->windowSpanMs >= 1) {
        const double secs =
            static_cast<double>(snap->windowSpanMs) / 1000.0;
        snap->sessionsPerSec =
            static_cast<double>(snap->windowVerdicts) / secs;
        snap->shedsPerSec =
            static_cast<double>(snap->windowShed) / secs;
        snap->bytesPerSec =
            static_cast<double>(snap->windowPayloadBytes) / secs;
    }

    const std::vector<uint64_t> deltas = latencyBucketDeltas(base, now);
    snap->windowP50Ms =
        obs::quantileFromBuckets(boundsMs, deltas, 0.50);
    snap->windowP99Ms =
        obs::quantileFromBuckets(boundsMs, deltas, 0.99);
}

std::string
renderServiceSnapshot(const ServiceSnapshot &s)
{
    using support::JsonValue;
    const ServerStats &l = s.lifetime;
    JsonValue doc = JsonValue::makeObject();
    doc.add("schema", JsonValue::of("m4ps-stats-v1"));
    doc.add("now_ms", JsonValue::of(s.nowMs));
    doc.add("uptime_ms", JsonValue::of(s.uptimeMs));
    doc.add("trace_id", JsonValue::of(s.traceId));
    doc.add("endpoint", JsonValue::of(s.endpoint));
    doc.add("draining", JsonValue::of(s.draining));
    doc.add("degrade_level",
            JsonValue::of(static_cast<int64_t>(s.degradeLevel)));
    doc.add("ladder_max_level",
            JsonValue::of(static_cast<int64_t>(l.ladderMaxLevel)));

    JsonValue sessions = JsonValue::makeObject();
    sessions.add("active",
                 JsonValue::of(static_cast<int64_t>(s.activeSessions)));
    sessions.add("max",
                 JsonValue::of(static_cast<int64_t>(s.maxSessions)));
    sessions.add("admitted", JsonValue::of(l.admitted));
    sessions.add("completed", JsonValue::of(l.completed));
    sessions.add("checkpointed", JsonValue::of(l.checkpointed));
    sessions.add("failed", JsonValue::of(l.failed));
    sessions.add("canceled", JsonValue::of(l.canceled));
    sessions.add("bad_requests", JsonValue::of(l.badRequests));
    sessions.add("idle_timeouts", JsonValue::of(l.idleTimeouts));
    sessions.add("deadline_exceeded",
                 JsonValue::of(l.deadlineExceeded));
    sessions.add("slow_readers", JsonValue::of(l.slowReaders));
    sessions.add("shed_overloaded", JsonValue::of(l.shedOverloaded));
    sessions.add("shed_draining", JsonValue::of(l.shedDraining));
    sessions.add("shed_breaker", JsonValue::of(l.shedBreaker));
    sessions.add("shed_total", JsonValue::of(l.shedTotal()));
    doc.add("sessions", std::move(sessions));

    JsonValue queue = JsonValue::makeObject();
    queue.add("bytes", JsonValue::of(s.queueBytes));
    queue.add("watermark", JsonValue::of(static_cast<uint64_t>(
                               l.globalQueueWatermark)));
    queue.add("peak",
              JsonValue::of(static_cast<uint64_t>(l.globalQueuePeak)));
    doc.add("queue", std::move(queue));

    JsonValue window = JsonValue::makeObject();
    window.add("span_ms", JsonValue::of(s.windowSpanMs));
    window.add("admitted", JsonValue::of(s.windowAdmitted));
    window.add("sessions", JsonValue::of(s.windowVerdicts));
    window.add("shed", JsonValue::of(s.windowShed));
    window.add("payload_bytes", JsonValue::of(s.windowPayloadBytes));
    window.add("sessions_per_sec", JsonValue::of(s.sessionsPerSec));
    window.add("sheds_per_sec", JsonValue::of(s.shedsPerSec));
    window.add("bytes_per_sec", JsonValue::of(s.bytesPerSec));
    window.add("shed_rate", JsonValue::of(s.shedsPerSec));
    window.add("p50_ms", JsonValue::of(s.windowP50Ms));
    window.add("p99_ms", JsonValue::of(s.windowP99Ms));
    doc.add("window", std::move(window));

    JsonValue lifetime = JsonValue::makeObject();
    lifetime.add("packets", JsonValue::of(l.packets));
    lifetime.add("payload_bytes", JsonValue::of(l.payloadBytes));
    lifetime.add("retarget_steps", JsonValue::of(l.retargetSteps));
    lifetime.add("p50_ms", JsonValue::of(s.lifetimeP50Ms));
    lifetime.add("p99_ms", JsonValue::of(s.lifetimeP99Ms));
    doc.add("lifetime", std::move(lifetime));

    JsonValue slo = JsonValue::makeObject();
    slo.add("p99_target_ms", JsonValue::of(s.sloP99TargetMs));
    slo.add("windows", JsonValue::of(s.sloWindows));
    slo.add("violations", JsonValue::of(s.sloViolations));
    doc.add("slo", std::move(slo));

    JsonValue fec = JsonValue::makeObject();
    fec.add("blocks_corrected", JsonValue::of(l.fecBlocksCorrected));
    fec.add("blocks_uncorrectable",
            JsonValue::of(l.fecBlocksUncorrectable));
    doc.add("fec", std::move(fec));

    return support::writeJson(doc, 0);
}

} // namespace m4ps::serve
