/**
 * @file
 * Batch front-end for the fault-tolerant job supervisor.
 *
 * Reads a manifest (docs/OPERATIONS.md), runs every job under
 * supervision - isolated worker processes, watchdog deadlines,
 * retry/backoff, checkpoint/resume, degradation - and emits one JSON
 * event per lifecycle transition.  Exit status: 0 when every job
 * completed (possibly degraded), 1 when any failed or was skipped,
 * 2 for usage or manifest errors.
 */

#include <csignal>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "service/supervisor.hh"
#include "support/args.hh"
#include "support/fileio.hh"
#include "support/obs/obs.hh"

namespace
{

using namespace m4ps;

/**
 * SIGTERM/SIGINT land here; the supervisor polls the flag once per
 * loop tick (SupervisorConfig::interrupted) and tears the batch down
 * on its own thread - children killed and reaped, the event log
 * completed with batch_interrupted - instead of the default handler
 * killing this process and orphaning every worker mid-encode.
 */
volatile std::sig_atomic_t g_interrupted = 0;

void
onSignal(int)
{
    g_interrupted = 1;
}

/**
 * Default worker binary: an m4ps_worker sitting next to this
 * executable.  Empty (in-process fork) when that cannot be resolved.
 */
std::string
siblingWorkerPath()
{
    char buf[4096];
    const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return "";
    buf[n] = '\0';
    std::string path(buf);
    const size_t slash = path.rfind('/');
    if (slash == std::string::npos)
        return "";
    path.resize(slash + 1);
    path += "m4ps_worker";
    return access(path.c_str(), X_OK) == 0 ? path : "";
}

void
usage()
{
    std::printf(
        "usage: m4ps_batch --manifest <file> [options]\n"
        "\n"
        "  --manifest F      job manifest (docs/OPERATIONS.md)\n"
        "  --events F        write JSON-lines event log to F\n"
        "                    (default: stderr)\n"
        "  --events-max-bytes N  rotate the event log before it\n"
        "                    exceeds N bytes (0 = no rotation)\n"
        "  --events-keep N   rotated generations to keep (default 3)\n"
        "  --worker F        worker binary (default: m4ps_worker next\n"
        "                    to this tool; falls back to in-process\n"
        "                    fork)\n"
        "  --parallel N      concurrent workers (default 4)\n"
        "  --deadline-ms N   default per-attempt watchdog deadline\n"
        "  --retries N       default transient-retry budget\n"
        "  --storm-chance P  kill-storm drill probability per tick\n"
        "  --seed N          backoff/storm seed (default 1)\n"
        "  --trace-out F     Chrome trace_event JSON of the batch\n"
        "                    (job attempt spans + lifecycle events)\n"
        "  --trace-shard-dir D     per-process trace shards: the\n"
        "                    supervisor and every worker write their\n"
        "                    own shard into D, stamped with one batch\n"
        "                    trace id (merge with m4ps_tracecat)\n"
        "  --metrics-out F   flat metrics dump "
        "(docs/OBSERVABILITY.md)\n");
}

int
batchMain(int argc, char **argv)
{
    const ArgParser args(argc, argv,
                         {"manifest", "events", "events-max-bytes",
                          "events-keep", "worker", "parallel",
                          "deadline-ms", "retries", "storm-chance",
                          "seed", "trace-out", "trace-shard-dir",
                          "metrics-out", "help"});
    if (args.getBool("help")) {
        usage();
        return 0;
    }
    if (!args.has("manifest"))
        throw ArgError("--manifest is required");

    std::vector<service::JobSpec> jobs;
    try {
        jobs = service::loadManifest(args.get("manifest"));
    } catch (const service::ManifestError &e) {
        std::fprintf(stderr, "m4ps_batch: %s\n", e.what());
        return ArgError::kExitCode;
    }

    service::SupervisorConfig cfg;
    cfg.defaultDeadlineMs =
        args.getIntInRange("deadline-ms", cfg.defaultDeadlineMs, 1,
                           3600000);
    cfg.defaultRetries =
        args.getIntInRange("retries", cfg.defaultRetries, 0, 100);
    cfg.maxParallel = args.getIntInRange("parallel", 4, 1, 64);
    cfg.stormKillChance = args.getDouble("storm-chance", 0.0);
    // chance(p) is uniformReal() < p: p >= 1 would SIGKILL every
    // worker on every poll tick (the batch could never finish) and
    // p < 0 silently disables the drill.
    if (cfg.stormKillChance < 0.0 || cfg.stormKillChance >= 1.0)
        throw ArgError("--storm-chance must be in [0, 1), got " +
                       std::to_string(cfg.stormKillChance));
    cfg.seed = static_cast<uint64_t>(args.getInt("seed", 1));
    cfg.workerPath = args.has("worker") ? args.get("worker")
                                        : siblingWorkerPath();

    std::ofstream eventFile;
    std::unique_ptr<service::RotatingLogSink> rotating;
    service::EventLog log;
    const int eventsMaxBytes =
        args.getIntInRange("events-max-bytes", 0, 0, 1 << 30);
    if (args.has("events")) {
        if (eventsMaxBytes > 0) {
            rotating = std::make_unique<service::RotatingLogSink>(
                args.get("events"),
                static_cast<size_t>(eventsMaxBytes),
                args.getIntInRange("events-keep", 3, 1, 100));
            log.attachRotating(rotating.get());
        } else {
            eventFile.open(args.get("events"), std::ios::trunc);
            if (!eventFile)
                throw ArgError("cannot write events file '" +
                               args.get("events") + "'");
            log.attach(&eventFile);
        }
    } else {
        log.attach(&std::cerr);
    }

    const std::string trace_out = args.get("trace-out", "");
    const std::string shard_dir = args.get("trace-shard-dir", "");
    const std::string metrics_out = args.get("metrics-out", "");
    if (!trace_out.empty() || !shard_dir.empty())
        obs::setTracing(true);
    if (!metrics_out.empty())
        obs::setMetrics(true);

    // Cross-process trace correlation (docs/OBSERVABILITY.md): mint
    // a batch trace id (or join one handed down by a parent), stamp
    // our own spans and event lines with it, and export it to the
    // workers via the environment - fork and fork+exec children both
    // inherit it, so the whole batch shares one correlation key.
    const char *envId = std::getenv("M4PS_TRACE_ID");
    const std::string batchTraceId =
        envId && *envId ? std::string(envId)
                        : "batch-" + std::to_string(::getpid());
    obs::setTraceId(batchTraceId);
    obs::setProcessName("supervisor");
    if (!shard_dir.empty()) {
        ::setenv("M4PS_TRACE_ID", batchTraceId.c_str(), 1);
        ::setenv("M4PS_TRACE_SHARD_DIR", shard_dir.c_str(), 1);
    }

    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    cfg.interrupted = [] { return g_interrupted != 0; };

    service::Supervisor sup(cfg, log);
    const service::BatchResult batch = sup.run(jobs);

    if (g_interrupted) {
        // Flush what we have; the event log already carries
        // batch_interrupted and a terminal verdict per job.
        if (eventFile.is_open())
            eventFile.flush();
        if (rotating)
            rotating->sync();
        std::fprintf(stderr, "m4ps_batch: interrupted, batch torn "
                             "down cleanly\n");
    }

    if (!trace_out.empty()) {
        std::ofstream os(trace_out, std::ios::binary);
        if (!os)
            throw ArgError("cannot write --trace-out file '" +
                           trace_out + "'");
        obs::writeChromeTrace(os);
    }
    if (!shard_dir.empty()) {
        // The supervisor's own shard, next to the workers' (they
        // wrote theirs on exit).  Atomic so m4ps_tracecat never reads
        // a torn shard.
        const std::string shard = shard_dir + "/trace-" +
                                  batchTraceId + "-" +
                                  std::to_string(::getpid()) +
                                  ".json";
        std::ostringstream os;
        obs::writeChromeTrace(os);
        try {
            support::writeFileAtomic(shard, os.str());
        } catch (const std::exception &e) {
            std::fprintf(stderr, "m4ps_batch: %s\n", e.what());
        }
    }
    if (!metrics_out.empty()) {
        std::ofstream os(metrics_out, std::ios::binary);
        if (!os)
            throw ArgError("cannot write --metrics-out file '" +
                           metrics_out + "'");
        obs::writeMetricsText(os);
    }

    std::printf("jobs %zu completed %d degraded %d failed %d "
                "skipped %d\n",
                batch.jobs.size(), batch.completed, batch.degraded,
                batch.failed, batch.skipped);
    return (batch.failed || batch.skipped) ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return batchMain(argc, argv);
    } catch (const ArgError &e) {
        return reportArgError("m4ps_batch", e);
    }
}
