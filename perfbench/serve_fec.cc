/**
 * @file
 * serve_fec: an open loop at one fixed arrival rate into an in-process
 * serve::Server over TCP loopback.  The daemon admits at most N
 * sessions and the load comes from N client threads of this process.
 * Sessions are QCIF, 30 frames, fec=soft at rate 1/2, a seeded 1:1 mix
 * of two kinds:
 *
 *  - encode: the server generates the scene, encodes, and
 *    fec::protect()s each MTU slice; the client fec::recover()s each
 *    packet;
 *  - decode: the client uploads a stream put through fec::channelSoft
 *    at 4 dB during set-up; the server fec::recover()s it and decodes
 *    it tolerantly.
 *
 * Viterbi recovery is most of a decode session, and serve staging and
 * admission sit on every request's path, while memsim is idle.  Each
 * session is timed from its scheduled send, so a late generator or a
 * stalled daemon shows as latency rather than as a lighter load.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hh"
#include "core/runner.hh"
#include "fec/frame.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "service/jobspec.hh"
#include "support/random.hh"
#include "support/threadpool.hh"

namespace m4ps::perfbench
{

namespace
{

constexpr int kFrames = 30;

/** The open loop runs in this many parts, with host-kernel samples
 *  before, between and after them. */
constexpr int kLoopParts = 6;

/** Host-kernel samples at each of those points. */
constexpr int kHostKernelRepeats = 4;

/** Set-ups timed before the open loop, and again after it. */
constexpr int kSetupRepeats = 3;

/** Untraced direct calls per spec; their median is the job's cost. */
constexpr int kDirectRepeats = 3;

/** Enough sessions that p95 has ten samples beyond it, with margin. */
constexpr int kMinSessions = 210;

constexpr double kChannelEsN0Db = 4.0;

/** Spec keys every session shares. */
const char kSessionKeys[] =
    "width=176 height=144 frames=30 bitrate=300000 fec=soft "
    "fec-rate=1/2 checkpoint=0";

enum Kind
{
    kEncode = 0,
    kDecode = 1,
};
constexpr int kKinds = 2;
const char *const kKindNames[kKinds] = {"encode", "decode"};

/**
 * Distinct specs per kind; each session draws one of its kind.  Scene
 * content sets a spec's cost, so many specs keep one seed's mix close
 * to another's.  Decode specs cost set-up time, so there are fewer.
 */
constexpr int kSpecs[kKinds] = {32, 8};

/** The FecConfig of a fec=soft fec-rate=1/2 session. */
fec::FecConfig
sessionFec()
{
    fec::FecConfig cfg;
    cfg.decision = fec::Decision::Soft;
    cfg.rate = fec::Rate::R1_2;
    return cfg;
}

/** One distinct session spec. */
struct Job
{
    std::string spec;
    std::vector<uint8_t> upload; //!< Decode sessions: the noisy stream.
};

/** What set-up makes: the daemon and the session specs. */
struct Fixture
{
    int maxSessions = 0;
    std::unique_ptr<serve::Server> server;
    std::vector<Job> jobs[kKinds];
};

Fixture
setUp(const Options &o, uint64_t seed)
{
    Fixture f;
    serve::ServerConfig cfg;
    cfg.listen = "tcp:0";
    cfg.admission.maxSessions = o.threads;
    // Off: a ladder step during a burst would reshape a spec, and the
    // byte-identity checks would count that session as failed.
    cfg.degrade = false;
    cfg.checkpointDir = o.workDir;
    f.maxSessions = cfg.admission.maxSessions;
    f.server = std::make_unique<serve::Server>(cfg);
    f.server->start();

    Rng rng(seed);
    auto encodeSpec = [&rng] {
        return std::string("type=encode ") + kSessionKeys + " seed=" +
               std::to_string(rng.uniformInt(1, int64_t{1} << 30));
    };
    for (int i = 0; i < kSpecs[kEncode]; ++i)
        f.jobs[kEncode].push_back({encodeSpec(), {}});
    for (int i = 0; i < kSpecs[kDecode]; ++i) {
        const core::Workload source =
            service::parseSpecLine("upload", encodeSpec()).workload;
        Job j;
        j.upload = fec::channelSoft(
            fec::protect(core::ExperimentRunner::encodeUntraced(source),
                         sessionFec()),
            kChannelEsN0Db, rng.next());
        const std::string path =
            o.workDir + "/upload-" + std::to_string(i) + ".m4fc";
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(j.upload.data()),
                  static_cast<std::streamsize>(j.upload.size()));
        out.close();
        if (!out)
            throw std::runtime_error("cannot write " + path);
        j.spec = std::string("type=decode ") + kSessionKeys +
                 " input=" + path;
        f.jobs[kDecode].push_back(std::move(j));
    }
    return f;
}

/** One scheduled session. */
struct Arrival
{
    double atS = 0; //!< Send time after the loop starts.
    Kind kind = kEncode;
    int spec = 0;
};

/** Poisson arrivals at the configured rate; kinds 1:1, seeded order. */
std::vector<Arrival>
schedule(const Options &o, uint64_t seed)
{
    const int n = std::max(
        kMinSessions,
        static_cast<int>(std::lround(o.arrivalPerS * o.seconds)));
    Rng rng(seed);
    std::vector<Arrival> plan(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        plan[i].kind = i % 2 ? kDecode : kEncode;
    for (int i = n - 1; i > 0; --i)
        std::swap(plan[i].kind, plan[rng.uniformInt(0, i)].kind);
    double at = 0;
    for (Arrival &a : plan) {
        at -= std::log(1.0 - rng.uniformReal()) / o.arrivalPerS;
        a.atS = at;
        a.spec = static_cast<int>(rng.uniformInt(0, kSpecs[a.kind] - 1));
    }
    return plan;
}

/** What the client saw of one session. */
struct Outcome
{
    double latencyMs = 0; //!< Scheduled send to final STATUS.
    double lagMs = 0;     //!< How late the generator sent it.
    serve::ClientResult client;
};

/**
 * Admission slots as the clients see them.  A session holds its slot
 * until the daemon has torn it down, which ends after the client has
 * its final STATUS, and the daemon counts a connection only once its
 * accept thread has admitted or shed it.  So acquire() counts the
 * connections issued but not yet processed as taken too, and takes a
 * slot under one lock: no two clients can claim the last one together,
 * and the clients never shed themselves.
 */
class SlotGate
{
  public:
    explicit SlotGate(const Fixture &f) : f_(f) {}

    /** Wait for a free slot and take it; connect right after. */
    void
    acquire()
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (;;) {
            // Stats first: a connection admitted between the two reads
            // is then counted twice rather than not at all.
            const serve::ServerStats st = f_.server->stats();
            const uint64_t processed = st.admitted + st.shedTotal();
            const uint64_t pending =
                issued_ > processed ? issued_ - processed : 0;
            const uint64_t active =
                static_cast<uint64_t>(f_.server->activeSessions());
            if (active + pending < static_cast<uint64_t>(f_.maxSessions))
                break;
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        ++issued_;
    }

  private:
    const Fixture &f_;
    std::mutex mu_;
    uint64_t issued_ = 0;
};

/** Joins its threads on the way out, exceptions included. */
struct Joiner
{
    std::vector<std::thread> threads;

    Joiner() = default;
    Joiner(const Joiner &) = delete;
    Joiner &operator=(const Joiner &) = delete;

    ~Joiner()
    {
        for (std::thread &t : threads)
            if (t.joinable())
                t.join();
    }
};

/**
 * Sends @p plan from @p connections client threads, each taking the
 * next arrival, sleeping until it is due, and running the session.
 * Returns the wall seconds from the start to the last final STATUS.
 */
double
openLoop(const Fixture &f, const std::vector<Arrival> &plan,
         int connections, SlotGate &slots, std::vector<Outcome> &out)
{
    using clock = std::chrono::steady_clock;
    out.assign(plan.size(), Outcome());
    std::atomic<size_t> next{0};
    const clock::time_point start = clock::now();
    auto client = [&] {
        for (size_t i; (i = next.fetch_add(1)) < plan.size();) {
            const Arrival &a = plan[i];
            const clock::time_point due =
                start + std::chrono::duration_cast<clock::duration>(
                            std::chrono::duration<double>(a.atS));
            std::this_thread::sleep_until(due);
            slots.acquire();
            const clock::time_point sent = clock::now();
            Outcome &oc = out[i];
            try {
                obs::Span span("serve", "serve.session");
                oc.client = serve::runClientSession(
                    f.server->endpoint(),
                    f.jobs[a.kind][static_cast<size_t>(a.spec)].spec);
            } catch (const std::exception &e) {
                oc.client.error = e.what();
            }
            const clock::time_point done = clock::now();
            oc.lagMs =
                std::chrono::duration<double, std::milli>(sent - due)
                    .count();
            oc.latencyMs =
                std::chrono::duration<double, std::milli>(done - due)
                    .count();
        }
    };
    {
        Joiner clients;
        for (int c = 0; c < connections; ++c)
            clients.threads.emplace_back(client);
    }
    return std::chrono::duration<double>(clock::now() - start).count();
}

/** One encode session's job by direct calls, as server and client
 *  do it: scene, encode, protect per MTU slice, recover per packet. */
struct EncodeJob
{
    double sceneS = 0, encodeS = 0, protectS = 0, recoverS = 0;
    uint64_t payloadBytes = 0;
    std::vector<uint8_t> recovered;

    double totalS() const { return sceneS + encodeS + protectS + recoverS; }
};

EncodeJob
directEncode(const std::string &specLine, size_t mtu)
{
    const core::Workload w =
        service::parseSpecLine("direct", specLine).workload;
    memsim::SimContext ctx;
    core::SceneFeeder feeder(ctx, w);
    codec::Mpeg4Encoder enc(ctx, w.encoderConfig());
    EncodeJob job;
    std::vector<std::vector<uint8_t>> packets;
    size_t sent = 0;
    // Protect each new MTU slice of the stream, as the server stages it.
    auto protectNew = [&](const std::vector<uint8_t> &stream) {
        while (sent < stream.size()) {
            const size_t n = std::min(mtu, stream.size() - sent);
            const std::vector<uint8_t> slice(stream.begin() + sent,
                                             stream.begin() + sent + n);
            const double t0 = nowS();
            {
                obs::Span span("fec", "fec.protect");
                packets.push_back(fec::protect(slice, sessionFec()));
            }
            job.protectS += nowS() - t0;
            job.payloadBytes += n;
            sent += n;
        }
    };
    for (int t = 0; t < w.frames; ++t) {
        const double t0 = nowS();
        std::vector<codec::VoInput> in;
        {
            obs::Span span("video", "video.scene");
            in = feeder.inputs(t);
        }
        const double t1 = nowS();
        {
            obs::Span span("codec", "codec.encode");
            enc.encodeFrame(in, t);
        }
        job.sceneS += t1 - t0;
        job.encodeS += nowS() - t1;
        protectNew(enc.streamPrefix());
    }
    const double t0 = nowS();
    std::vector<uint8_t> stream;
    {
        obs::Span span("codec", "codec.encode");
        stream = enc.finish();
    }
    job.encodeS += nowS() - t0;
    protectNew(stream);
    for (const std::vector<uint8_t> &packet : packets) {
        const double t1 = nowS();
        fec::RecoverResult rec;
        {
            obs::Span span("fec", "fec.recover_packet");
            rec = fec::recover(packet);
        }
        job.recoverS += nowS() - t1;
        job.recovered.insert(job.recovered.end(), rec.stream.begin(),
                             rec.stream.end());
    }
    return job;
}

/** One decode session's job by direct calls: recover, then decode
 *  tolerantly. */
struct DecodeJob
{
    double recoverS = 0, decodeS = 0;
    uint64_t streamBytes = 0;
    int displayed = 0;
    std::string report; //!< The report a decode session sends.

    double totalS() const { return recoverS + decodeS; }
};

DecodeJob
directDecode(const std::vector<uint8_t> &upload)
{
    DecodeJob job;
    const double t0 = nowS();
    fec::RecoverResult rec;
    {
        obs::Span span("fec", "fec.recover_stream");
        rec = fec::recover(upload);
    }
    const double t1 = nowS();
    memsim::SimContext ctx;
    const codec::DecodeStats ds = decodeOnce(ctx, rec.stream, true);
    job.recoverS = t1 - t0;
    job.decodeS = nowS() - t1;
    job.streamBytes = rec.stream.size();
    job.displayed = ds.displayed;
    // Line for line the report serve/server.cc stages.
    job.report =
        "vops " + std::to_string(ds.vops) + "\n" + "displayed " +
        std::to_string(ds.displayed) + "\n" + "corrupted_vops " +
        std::to_string(ds.corruptedVops) + "\n" + "header_errors " +
        std::to_string(ds.headerErrors) + "\n" + "total_bits " +
        std::to_string(ds.totalBits) + "\n" + "fec_blocks " +
        std::to_string(rec.stats.blocks) + "\n" +
        "fec_blocks_corrected " +
        std::to_string(rec.stats.blocksCorrected) + "\n";
    return job;
}

} // namespace

void
runServeFec(const Options &o, Result &r)
{
    Rng seeds(o.seed);
    const uint64_t specSeed = seeds.next();
    const uint64_t planSeed = seeds.next();
    support::ThreadPool::setGlobalThreads(o.threads);
    r.config["session_keys"] = kSessionKeys;
    r.config["arrival_per_s"] = std::to_string(o.arrivalPerS);
    r.config["channel_es_n0_db"] = std::to_string(kChannelEsN0Db);

    auto timedSetUp = [&] {
        const double t0 = nowS();
        Fixture g = setUp(o, specSeed);
        r.setupS.push_back(nowS() - t0);
        return g;
    };
    Fixture f;
    for (int i = 0; i < kSetupRepeats; ++i) {
        f = Fixture(); // stop the last daemon outside the timing
        f = timedSetUp();
    }

    const int connections = o.threads;
    const std::vector<Arrival> plan = schedule(o, planSeed);
    r.config["sessions"] = std::to_string(plan.size());
    r.config["connections"] = std::to_string(connections);
    // Each part is an open loop of its own, its arrivals shifted to
    // start at once; the host-kernel samples between the parts follow
    // the host's speed through the loop.
    auto sampleHost = [&] {
        for (int i = 0; i < kHostKernelRepeats; ++i)
            r.hostKernelS.push_back(hostKernelS());
    };
    std::vector<Outcome> out;
    SlotGate slots(f);
    double loopS = 0;
    const size_t partSize = (plan.size() + kLoopParts - 1) / kLoopParts;
    sampleHost();
    for (size_t begin = 0; begin < plan.size(); begin += partSize) {
        std::vector<Arrival> part(
            plan.begin() + static_cast<std::ptrdiff_t>(begin),
            plan.begin() + static_cast<std::ptrdiff_t>(
                               std::min(plan.size(), begin + partSize)));
        const double shift = part.front().atS;
        for (Arrival &a : part)
            a.atS -= shift;
        std::vector<Outcome> partOut;
        loopS += openLoop(f, part, connections, slots, partOut);
        out.insert(out.end(), partOut.begin(), partOut.end());
        sampleHost();
    }
    const serve::ServerStats st = f.server->stats();

    // Set up again after the loop, so setup_s spans the run rather than
    // its first second; each set-up must make the same jobs.
    for (int i = 0; i < kSetupRepeats; ++i) {
        const Fixture g = timedSetUp();
        for (int k = 0; k < kKinds; ++k)
            for (int j = 0; j < kSpecs[k]; ++j)
                r.check(g.jobs[k][j].spec == f.jobs[k][j].spec &&
                            g.jobs[k][j].upload == f.jobs[k][j].upload,
                        "serve_fec set-up repeats");
    }

    // What each session must have produced, by direct calls.
    std::vector<std::vector<uint8_t>> encodeRef;
    std::vector<std::string> decodeRef;
    for (const Job &j : f.jobs[kEncode])
        encodeRef.push_back(core::ExperimentRunner::encodeUntraced(
            service::parseSpecLine("reference", j.spec).workload));
    for (const Job &j : f.jobs[kDecode])
        decodeRef.push_back(directDecode(j.upload).report);

    std::vector<bool> good(plan.size(), false);
    uint64_t completed = 0, shed = 0;
    for (size_t i = 0; i < plan.size(); ++i) {
        const Arrival &a = plan[i];
        const serve::ClientResult &c = out[i].client;
        const std::string what = std::string("serve_fec ") +
                                 kKindNames[a.kind] + " session " +
                                 std::to_string(i);
        r.latencyMs["lag"].push_back(out[i].lagMs);
        if (!c.gotFinal || c.finalStatus != serve::Status::Ok) {
            shed += c.gotFinal && serve::statusIsShed(c.finalStatus);
            r.fail(what + ": " +
                   (c.gotFinal ? serve::statusName(c.finalStatus)
                               : "no final status (" + c.error + ")"));
            ++r.failedSessions;
            continue;
        }
        const bool same =
            a.kind == kEncode
                ? c.stream == encodeRef[static_cast<size_t>(a.spec)]
                : std::string(c.stream.begin(), c.stream.end()) ==
                      decodeRef[static_cast<size_t>(a.spec)];
        r.check(same, what + ": output differs from the direct call");
        if (!same) {
            ++r.failedSessions;
            continue;
        }
        good[i] = true;
        ++completed;
        r.latencyMs["all"].push_back(out[i].latencyMs);
        r.latencyMs[kKindNames[a.kind]].push_back(out[i].latencyMs);
        r.samples[a.kind == kEncode ? "encode_fps" : "decode_fps"]
            .push_back(kFrames * 1e3 / out[i].latencyMs);
    }
    if (!o.trace)
        return;

    r.layers["serve.sessions_per_sec"] =
        static_cast<double>(completed) / loopS;
    r.layers["serve.shed_frac"] =
        static_cast<double>(shed) / static_cast<double>(plan.size());
    r.layers["serve.queue_peak_occupancy"] =
        ratio(static_cast<double>(st.globalQueuePeak),
              static_cast<double>(st.globalQueueWatermark));
    r.layers["serve.retargets"] = static_cast<double>(st.retargetSteps);

    // The same jobs by direct calls, untraced: their cost without the
    // daemon, and the fec rates on the session streams.
    const size_t mtu = serve::ServerConfig().mtuBytes;
    std::vector<double> directS[kKinds];
    double protectS = 0, cleanS = 0, noisyS = 0, decodeS = 0;
    double protectBits = 0, cleanBits = 0, noisyBits = 0;
    for (int k = 0; k < kSpecs[kEncode]; ++k) {
        std::vector<double> encS;
        for (int i = 0; i < kDirectRepeats; ++i) {
            const EncodeJob e = directEncode(f.jobs[kEncode][k].spec, mtu);
            r.check(e.recovered == encodeRef[static_cast<size_t>(k)],
                    "serve_fec direct encode job recovers the "
                    "reference stream");
            encS.push_back(e.totalS());
            protectS += e.protectS;
            cleanS += e.recoverS;
            protectBits += 8.0 * static_cast<double>(e.payloadBytes);
            cleanBits += 8.0 * static_cast<double>(e.recovered.size());
        }
        directS[kEncode].push_back(median(encS));
    }
    for (int k = 0; k < kSpecs[kDecode]; ++k) {
        std::vector<double> decS;
        for (int i = 0; i < kDirectRepeats; ++i) {
            const DecodeJob d = directDecode(f.jobs[kDecode][k].upload);
            decS.push_back(d.totalS());
            noisyS += d.recoverS;
            decodeS += d.decodeS;
            noisyBits += 8.0 * static_cast<double>(d.streamBytes);
        }
        directS[kDecode].push_back(median(decS));
    }
    r.layers["fec.protect_mbps"] = ratio(protectBits / 1e6, protectS);
    r.layers["fec.recover_clean_mbps"] = ratio(cleanBits / 1e6, cleanS);
    r.layers["fec.recover_noisy_mbps"] = ratio(noisyBits / 1e6, noisyS);
    r.layers["fec.decode_session_share"] = ratio(noisyS, noisyS + decodeS);

    std::vector<double> overheadMs;
    for (size_t i = 0; i < plan.size(); ++i)
        if (good[i])
            overheadMs.push_back(out[i].latencyMs -
                                 1e3 * directS[plan[i].kind]
                                                    [static_cast<size_t>(
                                                        plan[i].spec)]);
    r.layers["serve.overhead_ms"] = median(overheadMs);

    // The same jobs once more with obs on, then each spec once
    // through the daemon.
    double untracedS = 0;
    for (const auto &kind : directS)
        for (double s : kind)
            untracedS += s;
    double tracedS = 0;
    Capture::start();
    for (const Job &j : f.jobs[kEncode])
        tracedS += directEncode(j.spec, mtu).totalS();
    const Capture encCap = Capture::stop();
    int displayed = 0;
    Capture::start();
    for (const Job &j : f.jobs[kDecode]) {
        const DecodeJob d = directDecode(j.upload);
        tracedS += d.totalS();
        displayed += d.displayed;
    }
    const Capture decCap = Capture::stop();
    Capture::start();
    for (const auto &jobs : f.jobs) {
        for (const Job &j : jobs) {
            serve::ClientResult c;
            {
                obs::Span span("serve", "serve.session");
                c = serve::runClientSession(f.server->endpoint(), j.spec);
            }
            r.check(c.gotFinal && c.finalStatus == serve::Status::Ok,
                    "serve_fec traced session completes");
        }
    }
    const Capture sessionCap = Capture::stop();

    addCodecLayers(r, encCap, kSpecs[kEncode] * kFrames, decCap, displayed);
    r.layers["fec.blocks"] = decCap.counter("fec.blocks");
    r.layers["fec.blocks_corrected"] =
        decCap.counter("fec.blocks_corrected");
    r.layers["fec.corrected_bits"] = decCap.counter("fec.corrected_bits");
    r.layers["trace_overhead"] = tracedS / untracedS - 1;
    addSelfShares(r, {&encCap, &decCap, &sessionCap},
                  o.workDir + "/selftime-serve_fec.json");
}

} // namespace m4ps::perfbench
