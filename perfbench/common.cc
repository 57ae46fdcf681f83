#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/runner.hh"
#include "support/json.hh"
#include "support/serialize.hh"

namespace m4ps::perfbench
{

namespace
{

const char *const kLayers[] = {"video", "codec", "pool",
                               "memsim", "fec", "serve"};
const char *const kStages[] = {"motion", "dct_quant", "rlc", "recon"};

/**
 * The layer a span belongs to, by the first component of its name.
 * The memsim VOP regions wrap whole VOP codings, so only the merge
 * replay counts as memsim's own time.
 */
std::string
layerOf(std::string_view name)
{
    const std::string_view first = name.substr(0, name.find('.'));
    if (first == "enc" || first == "dec" ||
        (first == "memsim" && name != "memsim.merge"))
        return "codec";
    for (const char *layer : kLayers)
        if (first == layer)
            return layer;
    return "other";
}

} // namespace

void
Result::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        mismatches.push_back(what);
    }
}

void
Result::fail(const std::string &what)
{
    ++attempted;
    ++failed;
    errors.push_back(what);
}

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0;
}

uint64_t
fnv(const std::vector<uint8_t> &bytes)
{
    return support::fnv1a64(std::string_view(
        reinterpret_cast<const char *>(bytes.data()), bytes.size()));
}

std::string
hex(uint64_t h)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::vector<uint8_t>
encodeLive(memsim::SimContext &ctx, const core::Workload &w, double *wallS)
{
    core::SceneFeeder feeder(ctx, w);
    codec::Mpeg4Encoder enc(ctx, w.encoderConfig());
    std::vector<uint8_t> stream;
    const double t0 = nowS();
    for (int t = 0; t < w.frames; ++t) {
        std::vector<codec::VoInput> in;
        {
            obs::Span span("video", "video.scene");
            in = feeder.inputs(t);
        }
        obs::Span span("codec", "codec.encode");
        enc.encodeFrame(in, t);
    }
    {
        obs::Span span("codec", "codec.encode");
        stream = enc.finish();
    }
    *wallS = nowS() - t0;
    return stream;
}

codec::DecodeStats
decodeOnce(memsim::SimContext &ctx, const std::vector<uint8_t> &stream,
           bool tolerant)
{
    codec::Mpeg4Decoder dec(ctx);
    obs::Span span("codec", "codec.decode");
    return dec.decode(stream, codec::Mpeg4Decoder::Sink(), tolerant);
}

void
Capture::start()
{
    obs::clearTrace();
    obs::resetMetrics();
    obs::setMetrics(true);
    obs::setTracing(true);
}

Capture
Capture::stop()
{
    obs::setTracing(false);
    obs::setMetrics(false);
    Capture c;
    c.events = obs::snapshotTrace();
    c.metrics = obs::snapshotMetrics();
    return c;
}

double
Capture::spanMs(std::string_view name) const
{
    uint64_t ns = 0;
    for (const obs::TraceEvent &e : events)
        if (e.phase == 'X' && e.name == name)
            ns += e.durNs;
    return static_cast<double>(ns) / 1e6;
}

double
Capture::counter(const std::string &name) const
{
    const auto it = metrics.counters.find(name);
    return it == metrics.counters.end() ? 0
                                        : static_cast<double>(it->second);
}

double
Capture::uncoveredMs(std::string_view outer, std::string_view inner) const
{
    // (start, duration) of the inner spans, per thread, by start.
    std::map<int, std::vector<std::pair<uint64_t, uint64_t>>> inners;
    for (const obs::TraceEvent &e : events)
        if (e.phase == 'X' && e.name == inner)
            inners[e.tid].emplace_back(e.tsNs, e.durNs);
    for (auto &[tid, spans] : inners)
        std::sort(spans.begin(), spans.end());

    uint64_t ns = 0;
    for (const obs::TraceEvent &e : events) {
        if (e.phase != 'X' || e.name != outer)
            continue;
        const uint64_t end = e.tsNs + e.durNs;
        uint64_t covered = 0;
        const auto it = inners.find(e.tid);
        if (it != inners.end()) {
            const auto &spans = it->second;
            for (auto s = std::lower_bound(spans.begin(), spans.end(),
                                           std::make_pair(e.tsNs,
                                                          uint64_t{0}));
                 s != spans.end() && s->first < end; ++s)
                covered += std::min(s->second, end - s->first);
        }
        ns += e.durNs - std::min(covered, e.durNs);
    }
    return static_cast<double>(ns) / 1e6;
}

void
initLayers(Result &r)
{
    static const char *const kNames[] = {
        "video.scene_ms_per_frame",
        "codec.encode_ms_per_frame",
        "codec.decode_ms_per_frame",
        "codec.bits_per_frame",
        "codec.mbs_per_frame",
        "pool.encode_fps_1t",
        "pool.encode_speedup",
        "pool.outside_parallel_ms_per_frame",
        "pool.tasks_per_frame",
        "pool.steals_per_frame",
        "memsim.share",
        "memsim.ns_per_access",
        "memsim.merge_ms_per_frame",
        "memsim.accesses_per_frame",
        "memsim.counter_digest",
        "fec.protect_mbps",
        "fec.recover_clean_mbps",
        "fec.recover_noisy_mbps",
        "fec.decode_session_share",
        "fec.blocks",
        "fec.blocks_corrected",
        "fec.corrected_bits",
        "serve.sessions_per_sec",
        "serve.overhead_ms",
        "serve.shed_frac",
        "serve.queue_peak_occupancy",
        "serve.retargets",
        "trace_overhead",
    };
    for (const char *name : kNames)
        r.layers[name] = 0;
    for (const char *dir : {"enc", "dec"})
        for (const char *stage : kStages)
            r.layers[std::string("codec.") + dir + "." + stage +
                     "_ns_per_mb"] = 0;
    for (const char *layer : kLayers)
        r.layers[std::string(layer) + ".self_share"] = 0;
}

void
addCodecLayers(Result &r, const Capture &enc, double encFrames,
               const Capture &dec, double decFrames)
{
    r.layers["video.scene_ms_per_frame"] =
        ratio(enc.spanMs("video.scene"), encFrames);
    r.layers["codec.encode_ms_per_frame"] =
        ratio(enc.spanMs("codec.encode"), encFrames);
    r.layers["codec.decode_ms_per_frame"] =
        ratio(dec.spanMs("codec.decode"), decFrames);
    for (const char *stage : kStages) {
        r.layers[std::string("codec.enc.") + stage + "_ns_per_mb"] =
            ratio(enc.spanMs(std::string("enc.stage.") + stage) * 1e6,
                  enc.counter("enc.mbs"));
        r.layers[std::string("codec.dec.") + stage + "_ns_per_mb"] =
            ratio(dec.spanMs(std::string("dec.stage.") + stage) * 1e6,
                  dec.counter("dec.mbs"));
    }
    r.layers["codec.bits_per_frame"] =
        ratio(enc.counter("enc.bits"), encFrames);
    r.layers["codec.mbs_per_frame"] =
        ratio(enc.counter("enc.mbs"), encFrames);
    r.layers["pool.outside_parallel_ms_per_frame"] = ratio(
        enc.uncoveredMs("enc.frame", "pool.parallel_for"), encFrames);
    r.layers["pool.tasks_per_frame"] =
        ratio(enc.counter("pool.tasks"), encFrames);
    r.layers["pool.steals_per_frame"] =
        ratio(enc.counter("pool.steals"), encFrames);
}

void
addSelfShares(Result &r, const std::vector<const Capture *> &caps,
              const std::string &path)
{
    std::map<std::string, int64_t> byLayer, bySpan;
    for (const Capture *c : caps) {
        std::map<int, std::vector<const obs::TraceEvent *>> byThread;
        for (const obs::TraceEvent &e : c->events)
            if (e.phase == 'X')
                byThread[e.tid].push_back(&e);
        for (auto &[tid, spans] : byThread) {
            // Spans on one thread nest strictly, so in start order
            // (outer first on ties) a stack of the open spans gives
            // each span its parent.
            std::stable_sort(spans.begin(), spans.end(),
                             [](const obs::TraceEvent *a,
                                const obs::TraceEvent *b) {
                                 return a->tsNs != b->tsNs
                                            ? a->tsNs < b->tsNs
                                            : a->durNs > b->durNs;
                             });
            std::vector<const obs::TraceEvent *> open;
            for (const obs::TraceEvent *e : spans) {
                while (!open.empty() &&
                       open.back()->tsNs + open.back()->durNs <= e->tsNs)
                    open.pop_back();
                const auto dur = static_cast<int64_t>(e->durNs);
                byLayer[layerOf(e->name)] += dur;
                bySpan[e->name] += dur;
                if (!open.empty()) {
                    byLayer[layerOf(open.back()->name)] -= dur;
                    bySpan[open.back()->name] -= dur;
                }
                open.push_back(e);
            }
        }
    }

    double total = 0;
    support::JsonValue layers = support::JsonValue::makeObject();
    for (const auto &[layer, ns] : byLayer) {
        total += static_cast<double>(ns);
        layers.add(layer, support::JsonValue::of(ns / 1e6));
    }
    support::JsonValue spans = support::JsonValue::makeObject();
    for (const auto &[name, ns] : bySpan)
        spans.add(name, support::JsonValue::of(ns / 1e6));
    support::JsonValue doc = support::JsonValue::makeObject();
    doc.add("self_ms_by_layer", std::move(layers));
    doc.add("self_ms_by_span", std::move(spans));
    if (!support::writeJsonFile(path, doc))
        std::fprintf(stderr, "m4ps_perfbench: cannot write %s\n",
                     path.c_str());

    for (const char *layer : kLayers)
        r.layers[std::string(layer) + ".self_share"] =
            ratio(static_cast<double>(byLayer[layer]), total);
}

namespace
{

constexpr int kKernelW = 720;
constexpr int kKernelH = 576;
constexpr int kKernelRange = 4;

/** Words in each thread's walk table: 16 MiB, far more than a core's
 *  L2, so the walk's loads go to the shared cache and to memory. */
constexpr uint32_t kWalkWords = uint32_t{1} << 22;
constexpr uint32_t kWalkSteps = 300000;

/** The planes and tables hostKernelS() reads, filled once by xorshift. */
struct KernelData
{
    std::vector<uint8_t> cur, ref;
    std::vector<uint32_t> table;
    /** One walk table per thread, all with the same contents. */
    std::vector<std::vector<uint32_t>> walk;

    explicit KernelData(int threads)
        : cur(kKernelW * kKernelH), ref(kKernelW * kKernelH), table(1 << 16)
    {
        uint64_t x = 88172645463325252ull;
        auto next = [&x] {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            return x;
        };
        for (uint8_t &v : cur)
            v = static_cast<uint8_t>(next() >> 56);
        for (uint8_t &v : ref)
            v = static_cast<uint8_t>(next() >> 56);
        for (uint32_t &v : table)
            v = static_cast<uint32_t>(next());
        // No temporary copy: it would set a peak of its own.
        walk.resize(static_cast<size_t>(threads));
        walk[0].resize(kWalkWords);
        for (uint32_t &v : walk[0])
            v = static_cast<uint32_t>(next());
        for (size_t t = 1; t < walk.size(); ++t)
            walk[t] = walk[0];
    }

    /** Bytes resident for the data, all of it written once. */
    size_t
    bytes() const
    {
        return cur.size() + ref.size() +
               sizeof(uint32_t) * (table.size() + walk.size() * kWalkWords);
    }
};

std::unique_ptr<const KernelData> kernelData;

uint64_t
hostKernel(const KernelData &d, const std::vector<uint32_t> &walk)
{
    const int margin = 16;
    uint64_t acc = 0;
    for (int by = margin; by + 16 + margin <= kKernelH; by += 16)
        for (int bx = margin; bx + 16 + margin <= kKernelW; bx += 16) {
            unsigned best = ~0u;
            for (int dy = -kKernelRange; dy <= kKernelRange; ++dy)
                for (int dx = -kKernelRange; dx <= kKernelRange; ++dx) {
                    unsigned sad = 0;
                    for (int y = 0; y < 16; ++y) {
                        const uint8_t *a = &d.cur[(by + y) * kKernelW + bx];
                        const uint8_t *b =
                            &d.ref[(by + y + dy) * kKernelW + bx + dx];
                        for (int x = 0; x < 16; ++x)
                            sad += static_cast<unsigned>(
                                std::abs(int{a[x]} - int{b[x]}));
                    }
                    best = std::min(best, sad);
                }
            acc += best;
        }
    uint32_t s = 1;
    for (size_t i = 0; i < d.cur.size(); ++i)
        s += d.table[(s ^ d.cur[i] ^ (uint32_t{d.ref[i]} << 8)) & 0xffff];
    // Each load's address comes from the last load, so the walk runs at
    // the speed of the shared cache and memory, which the host's other
    // tenants load too.
    uint32_t p = 0;
    for (uint32_t k = 0; k < kWalkSteps; ++k)
        p = (walk[p] + k * 0x9e3779b9u) & (kWalkWords - 1);
    return acc + s + p;
}

} // namespace

void
initHostKernel(int threads)
{
    if (kernelData)
        throw std::logic_error("initHostKernel called twice");
    kernelData = std::make_unique<const KernelData>(threads);
}

double
hostKernelS()
{
    if (!kernelData)
        throw std::logic_error("hostKernelS before initHostKernel");
    const KernelData &d = *kernelData;
    std::vector<uint64_t> sums(d.walk.size());
    const double t0 = nowS();
    {
        std::vector<std::thread> running;
        for (size_t t = 0; t < sums.size(); ++t)
            running.emplace_back(
                [&sums, &d, t] { sums[t] = hostKernel(d, d.walk[t]); });
        for (std::thread &t : running)
            t.join();
    }
    const double s = nowS() - t0;
    // Every thread computes the same sum; a difference is a broken host.
    for (uint64_t v : sums)
        if (v != sums[0])
            throw std::runtime_error("host kernel results differ");
    return s;
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    const double kernelMb =
        kernelData ? static_cast<double>(kernelData->bytes()) / (1 << 20)
                   : 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0 - kernelMb;
}

} // namespace m4ps::perfbench
