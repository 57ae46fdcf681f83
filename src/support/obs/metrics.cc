/**
 * @file
 * Lock-sharded metrics registry: counters, gauges, histograms.
 *
 * Registration (name -> handle) goes through one of 16 shards keyed
 * by a name hash, so concurrent first-use from many threads does not
 * serialise on a single map mutex.  After registration the handle is
 * a plain object updated with relaxed atomics; call sites cache the
 * reference (static local) and never touch the maps again.  Handles
 * are stable for the process lifetime -- the registry only grows.
 */

#include "support/obs/obs.hh"

#include <bit>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace m4ps::obs
{

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1)
{
}

void
Histogram::observeAlways(double v)
{
    size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i])
        ++i;
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    uint64_t old = sumBits_.load(std::memory_order_relaxed);
    while (true) {
        const double s = std::bit_cast<double>(old) + v;
        if (sumBits_.compare_exchange_weak(old, std::bit_cast<uint64_t>(s),
                                           std::memory_order_relaxed))
            break;
    }
}

double
Histogram::sum() const
{
    return std::bit_cast<double>(sumBits_.load(std::memory_order_relaxed));
}

std::vector<uint64_t>
Histogram::bucketCounts() const
{
    std::vector<uint64_t> out(buckets_.size());
    for (size_t i = 0; i < buckets_.size(); ++i)
        out[i] = buckets_[i].load(std::memory_order_relaxed);
    return out;
}

void
Histogram::reset()
{
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sumBits_.store(0, std::memory_order_relaxed);
}

namespace
{

constexpr size_t kShards = 16;

struct Shard
{
    std::mutex mu;
    // unique_ptr values: rehashing must not move the live objects
    // that call sites hold references to.
    std::unordered_map<std::string, std::unique_ptr<Counter>> counters;
    std::unordered_map<std::string, std::unique_ptr<Gauge>> gauges;
    std::unordered_map<std::string, std::unique_ptr<Histogram>> hists;
};

struct Registry
{
    Shard shards[kShards];
};

Registry &
registry()
{
    static Registry *r = new Registry; // leaked; see trace.cc
    return *r;
}

Shard &
shardFor(std::string_view name)
{
    return registry().shards[std::hash<std::string_view>{}(name) %
                             kShards];
}

} // namespace

Counter &
counter(std::string_view name)
{
    Shard &s = shardFor(name);
    std::lock_guard<std::mutex> lock(s.mu);
    auto &slot = s.counters[std::string(name)];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
gauge(std::string_view name)
{
    Shard &s = shardFor(name);
    std::lock_guard<std::mutex> lock(s.mu);
    auto &slot = s.gauges[std::string(name)];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
histogram(std::string_view name, const std::vector<double> &bounds)
{
    Shard &s = shardFor(name);
    std::lock_guard<std::mutex> lock(s.mu);
    auto &slot = s.hists[std::string(name)];
    if (!slot)
        slot = std::make_unique<Histogram>(bounds);
    return *slot;
}

const std::vector<double> &
timingBoundsUs()
{
    // Roughly log-spaced 10us .. 100ms; row and VOP times for the
    // paper workloads land inside this range on any modern core.
    static const std::vector<double> kBounds{
        10, 20, 50, 100, 200, 500, 1000, 2000, 5000,
        10000, 20000, 50000, 100000};
    return kBounds;
}

MetricsSnapshot
snapshotMetrics()
{
    MetricsSnapshot snap;
    for (Shard &s : registry().shards) {
        std::lock_guard<std::mutex> lock(s.mu);
        for (const auto &[name, c] : s.counters)
            snap.counters[name] = c->value();
        for (const auto &[name, g] : s.gauges)
            snap.gauges[name] = g->maxValue();
        for (const auto &[name, h] : s.hists) {
            MetricsSnapshot::Hist out;
            out.bounds = h->bounds();
            out.buckets = h->bucketCounts();
            out.count = h->count();
            out.sum = h->sum();
            snap.histograms[name] = std::move(out);
        }
    }
    return snap;
}

void
resetMetrics()
{
    for (Shard &s : registry().shards) {
        std::lock_guard<std::mutex> lock(s.mu);
        for (const auto &[name, c] : s.counters)
            c->reset();
        for (const auto &[name, g] : s.gauges)
            g->reset();
        for (const auto &[name, h] : s.hists)
            h->reset();
    }
}

} // namespace m4ps::obs
