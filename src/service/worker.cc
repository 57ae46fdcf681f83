#include "service/worker.hh"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "codec/error.hh"
#include "codec/kernels/kernels.hh"
#include "core/perfreport.hh"
#include "core/runner.hh"
#include "fec/frame.hh"
#include "service/checkpoint.hh"
#include "service/pipeline.hh"
#include "support/args.hh"
#include "support/fileio.hh"
#include "support/json.hh"
#include "support/obs/obs.hh"
#include "support/perfctr/perfctr.hh"

namespace m4ps::service
{

namespace
{

/** Environment fault-injection override; @p fallback from the spec. */
int
envVopTrigger(const char *name, int fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    return std::atoi(v);
}

/** Fire an injected fault when the VOP count crossed its trigger. */
void
maybeInjectFault(const JobSpec &spec, int vopsBefore, int vopsAfter)
{
    const int crashAt = envVopTrigger("M4PS_CRASH_AT", spec.crashAtVop);
    const int hangAt = envVopTrigger("M4PS_HANG_AT", spec.hangAtVop);
    if (crashAt >= 0 && vopsBefore < crashAt && crashAt <= vopsAfter) {
        std::fprintf(stderr, "worker %s: injected crash at vop %d\n",
                     spec.id.c_str(), crashAt);
        std::abort();
    }
    if (hangAt >= 0 && vopsBefore < hangAt && hangAt <= vopsAfter) {
        std::fprintf(stderr, "worker %s: injected hang at vop %d\n",
                     spec.id.c_str(), hangAt);
        for (;;) // the watchdog's job now
            std::this_thread::sleep_for(std::chrono::seconds(1));
    }
}

/**
 * Encode the spec's workload, checkpointing after every frame time.
 * Returns the finished (FEC-framed when the spec asks) stream.
 */
std::vector<uint8_t>
encodeSupervised(const JobSpec &spec)
{
    const core::Workload &w = spec.workload;
    memsim::SimContext ctx; // untraced: the service runs for output,
                            // not for memory measurements
    core::SceneFeeder feeder(ctx, w);
    codec::Mpeg4Encoder enc(ctx, w.encoderConfig());

    const std::string ckpt = checkpointPath(spec.output);
    const int start = spec.checkpoint ? restoreEncoder(ckpt, spec, enc)
                                      : 0;
    if (start > 0)
        std::fprintf(stderr,
                     "worker %s: resumed from checkpoint, "
                     "frame %d of %d\n",
                     spec.id.c_str(), start, w.frames);

    for (int t = start; t < w.frames; ++t) {
        const int vopsBefore = enc.stats().vops;
        enc.encodeFrame(feeder.inputs(t), t);
        if (spec.checkpoint)
            checkpointEncoder(ckpt, spec, t + 1, enc);
        // After the checkpoint: a resumed attempt starts past the
        // trigger and the fault does not fire twice.
        maybeInjectFault(spec, vopsBefore, enc.stats().vops);
    }

    std::vector<uint8_t> stream = enc.finish();
    if (spec.fecEnabled()) {
        // Frame the finished stream; checkpoints stay in elementary-
        // stream space (protect() runs once at the end, not per VOP).
        stream = fec::protect(stream, spec.fecConfig());
    }
    support::writeFileAtomic(spec.output, stream.data(), stream.size());
    if (spec.checkpoint)
        removeCheckpoint(ckpt);
    return stream;
}

/**
 * Per-job profile artifact: the host PMU deltas over the whole job.
 * Worker jobs run untraced (no memsim hierarchy - the service exists
 * for output, not measurements), so this is hardware-only; use
 * m4ps_run --report-out for the full sim-vs-hw document.
 */
void
writeJobPerfReport(const JobSpec &spec, const perfctr::Counts &hw)
{
    using support::JsonValue;
    JsonValue doc = JsonValue::makeObject();
    doc.add("schema", JsonValue::of("m4ps-worker-perf-v1"));
    doc.add("job", JsonValue::of(spec.id));
    doc.add("spec", JsonValue::of(spec.toSpecLine()));
    doc.add("hw",
            core::hwJson(hw, perfctr::activeBackend()));
    if (!support::writeJsonFile(spec.reportOut, doc))
        throw std::runtime_error("cannot write report '" +
                                 spec.reportOut + "'");
}

/**
 * Per-process trace shard for cross-process correlation
 * (docs/OBSERVABILITY.md).  When the supervisor exported
 * M4PS_TRACE_SHARD_DIR, the worker adopts the batch trace id from
 * M4PS_TRACE_ID, traces the job, and writes its shard (atomically)
 * on the way out - every exit path, including the exception
 * handlers, passes through the destructor.  Fork-without-exec
 * children inherit the supervisor's trace buffers, so the shard
 * clears them first and holds only this job's events.
 */
class TraceShardScope
{
  public:
    explicit TraceShardScope(const JobSpec &spec)
    {
        const char *dir = std::getenv("M4PS_TRACE_SHARD_DIR");
        if (!dir || !*dir)
            return;
        const char *tid = std::getenv("M4PS_TRACE_ID");
        if (tid && *tid)
            obs::setTraceId(tid);
        obs::setProcessName("worker:" + spec.id);
        obs::setTracing(true);
        obs::clearTrace();
        path_ = std::string(dir) + "/trace-" +
                (tid && *tid ? std::string(tid)
                             : std::string("local")) +
                "-" + std::to_string(getpid()) + ".json";
    }

    ~TraceShardScope()
    {
        if (path_.empty())
            return;
        try {
            std::ostringstream os;
            obs::writeChromeTrace(os);
            support::writeFileAtomic(path_, os.str());
        } catch (...) {
            // A failed shard write must not change the job verdict.
        }
    }

  private:
    std::string path_;
};

} // namespace

int
runJob(const JobSpec &spec)
{
    const TraceShardScope shard(spec);
    try {
        spec.validate();
        if (spec.perf)
            perfctr::setEnabled(true);
        perfctr::PerfRegion perf("perf", "job");
        // Every step throws on failure (service/pipeline.hh).
        switch (spec.type) {
          case JobType::Encode:
            encodeSupervised(spec);
            break;
          case JobType::Decode: {
            const DecodeOutcome d = decodeStream(spec, readInput(spec));
            if (!spec.output.empty())
                support::writeFileAtomic(spec.output, decodeReport(d, true));
            break;
          }
          case JobType::Transcode:
            // The FEC-framed stream when fec is on, so the verify
            // decode exercises the full recover path too.
            verifyTranscode(spec, encodeSupervised(spec));
            break;
        }
        const perfctr::Counts hw = perf.stop();
        if (spec.perf && !spec.reportOut.empty())
            writeJobPerfReport(spec, hw);
        return kWorkerOk;
    } catch (const ManifestError &e) {
        std::fprintf(stderr, "worker %s: bad spec: %s\n",
                     spec.id.c_str(), e.what());
        return kWorkerUsage;
    } catch (const codec::DecodeError &e) {
        std::fprintf(stderr, "worker %s: decode failed: %s\n",
                     spec.id.c_str(), e.what());
        return kWorkerPermanent;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "worker %s: %s\n", spec.id.c_str(),
                     e.what());
        return kWorkerPermanent;
    }
}

int
workerMain(int argc, const char *const *argv)
{
    const ArgParser args(argc, argv,
                         {"id", "spec", "perf", "report-out",
                          "kernels", "help"});
    if (args.getBool("help")) {
        std::printf(
            "usage: m4ps_worker --id <job> --spec \"k=v k=v ...\"\n"
            "           [--perf] [--report-out FILE] [--kernels NAME]\n"
            "Runs one supervised job; see docs/OPERATIONS.md for the\n"
            "spec keys and the exit-code contract.  Spec keys fec=\n"
            "off|hard|soft, fec-rate=1/2|2/3|3/4 and interleave-depth\n"
            "add convolutional FEC framing over the job's stream\n"
            "(docs/FEC.md); they shape the output, so they are part\n"
            "of the checkpoint config hash.  --perf measures\n"
            "host PMU counters over the job (software-clock fallback\n"
            "when the PMU is unavailable); --report-out writes them\n"
            "as JSON (docs/PROFILING.md).  --kernels picks the SIMD\n"
            "kernel backend (auto/scalar/sse41/avx2/neon; results are\n"
            "bit-identical across backends - docs/KERNELS.md).\n");
        return kWorkerOk;
    }
    if (args.has("kernels")) {
        try {
            codec::kernels::select(args.get("kernels", "auto"));
        } catch (const std::invalid_argument &e) {
            throw ArgError(e.what());
        }
    }
    const std::string id = args.get("id", "job");
    if (!args.has("spec"))
        throw ArgError("--spec is required");
    JobSpec spec;
    try {
        spec = parseSpecLine(id, args.get("spec"));
        // CLI flags override/augment the spec keys, so the supervisor
        // can request profiling without touching the manifest.
        if (args.getBool("perf"))
            spec.perf = true;
        if (args.has("report-out")) {
            spec.reportOut = args.get("report-out");
            spec.perf = true;
        }
        spec.validate();
    } catch (const ManifestError &e) {
        std::fprintf(stderr, "m4ps_worker: %s\n", e.what());
        return kWorkerUsage;
    }
    return runJob(spec);
}

} // namespace m4ps::service
