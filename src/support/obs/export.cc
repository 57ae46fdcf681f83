/**
 * @file
 * Exporters: Chrome trace_event JSON and flat metrics text.
 *
 * The trace exporter emits the format documented at
 * https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
 * (the "JSON Array Format" with a traceEvents wrapper), which loads
 * directly in Perfetto and chrome://tracing.  Timestamps convert
 * from our ns epoch to the microseconds the format expects.
 */

#include "support/obs/obs.hh"

#include <cstdio>
#include <ostream>

#include "support/json.hh"

namespace m4ps::obs
{

const char *
stageName(Stage s)
{
    switch (s) {
    case Stage::Motion:
        return "motion";
    case Stage::DctQuant:
        return "dct_quant";
    case Stage::Rlc:
        return "rlc";
    case Stage::Recon:
        return "recon";
    }
    return "?";
}

double
quantileFromBuckets(const std::vector<double> &bounds,
                    const std::vector<uint64_t> &buckets, double q)
{
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    uint64_t total = 0;
    for (const uint64_t b : buckets)
        total += b;
    if (total == 0 || bounds.empty())
        return 0.0;
    // Rank of the target observation, 1-based; q=0 maps to the first.
    const double rank = q * static_cast<double>(total);
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
        const uint64_t inBucket = buckets[i];
        if (inBucket == 0)
            continue;
        if (static_cast<double>(seen + inBucket) < rank) {
            seen += inBucket;
            continue;
        }
        if (i >= bounds.size()) {
            // Overflow bucket: the histogram records nothing above
            // its last finite bound, so clamp rather than invent.
            return bounds.back();
        }
        const double upper = bounds[i];
        const double lower = i == 0 ? 0.0 : bounds[i - 1];
        const double frac =
            (rank - static_cast<double>(seen)) /
            static_cast<double>(inBucket);
        return lower + (upper - lower) *
                           (frac < 0.0 ? 0.0 : frac > 1.0 ? 1.0 : frac);
    }
    return bounds.back();
}

namespace
{

/**
 * ns -> "microseconds.with-3-decimals".  Fixed-point, not ostream
 * default formatting: 6-significant-digit output would quantize
 * timestamps to whole microseconds a millisecond into the trace,
 * breaking the strict nesting the recorder guarantees.
 */
void
writeUs(std::ostream &os, uint64_t ns)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned long long>(ns % 1000));
    os << buf;
}

} // namespace

void
writeChromeTrace(std::ostream &os)
{
    const std::vector<TraceEvent> events = snapshotTrace();
    const std::string trace_id = traceId();
    // Splice the correlation id into every event's args; when the
    // event already carries args the id leads the existing object.
    const std::string idField =
        "\"trace_id\":\"" + support::jsonEscaped(trace_id) + "\"";
    const auto argsWithId = [&](const std::string &args) {
        if (trace_id.empty())
            return args;
        if (args.empty())
            return "{" + idField + "}";
        if (args.size() >= 2 && args.front() == '{' && args[1] != '}')
            return "{" + idField + "," + args.substr(1);
        return "{" + idField + "}";
    };
    os << "{\"traceEvents\":[";
    bool first = true;
    // Metadata events name the tracks (process_name / thread_name),
    // so merged multi-process traces read as named timelines rather
    // than bare pids.  No "ts" field: metadata is timeless, and the
    // exporter's fixed-point timestamp invariant stays trivially
    // intact (tests/test_obs.cc checks every "ts" occurrence).
    std::string proc = processName();
    if (proc.empty())
        proc = "m4ps";
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
          "\"args\":{\"name\":\""
       << support::jsonEscaped(proc) << "\"}}";
    first = false;
    int maxTid = -1;
    for (const TraceEvent &e : events)
        maxTid = e.tid > maxTid ? e.tid : maxTid;
    for (int tid = 0; tid <= maxTid; ++tid) {
        os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
           << "\"tid\":" << tid << ",\"args\":{\"name\":\""
           << (tid == 0 ? std::string("main")
                        : "thread-" + std::to_string(tid))
           << "\"}}";
    }
    for (const TraceEvent &e : events) {
        if (!first)
            os << ",\n";
        first = false;
        os << "{\"name\":\"" << support::jsonEscaped(e.name)
           << "\",\"cat\":\"" << e.cat << "\",\"ph\":\"" << e.phase
           << "\",\"pid\":1,\"tid\":" << e.tid << ",\"ts\":";
        writeUs(os, e.tsNs);
        if (e.phase == 'X') {
            os << ",\"dur\":";
            writeUs(os, e.durNs);
        }
        if (e.phase == 'i')
            os << ",\"s\":\"t\"";
        const std::string args = argsWithId(e.args);
        if (!args.empty())
            os << ",\"args\":" << args;
        os << "}";
    }
    // otherData anchors this shard on the wall clock and carries the
    // batch correlation id; m4ps_tracecat reads both when merging.
    os << "],\"otherData\":{\"traceEpochRealtimeUs\":"
       << traceEpochRealtimeUs();
    if (!trace_id.empty())
        os << ",\"traceId\":\"" << support::jsonEscaped(trace_id) << "\"";
    os << "},\"displayTimeUnit\":\"ms\"}\n";
}

void
writeMetricsText(std::ostream &os)
{
    const MetricsSnapshot snap = snapshotMetrics();
    os << "# m4ps metrics dump (counters monotonic, gauges report the\n"
          "# high-watermark, histogram buckets are non-cumulative)\n";
    for (const auto &[name, v] : snap.counters)
        os << "counter " << name << " " << v << "\n";
    for (const auto &[name, v] : snap.gauges)
        os << "gauge " << name << " max=" << v << "\n";
    for (const auto &[name, h] : snap.histograms) {
        os << "histogram " << name << " count=" << h.count
           << " sum=" << h.sum;
        for (size_t i = 0; i < h.buckets.size(); ++i) {
            os << " le";
            if (i < h.bounds.size())
                os << h.bounds[i];
            else
                os << "_inf";
            os << "=" << h.buckets[i];
        }
        os << "\n";
    }
}

} // namespace m4ps::obs
