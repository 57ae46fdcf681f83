/**
 * @file
 * The m4ps streaming daemon (docs/SERVING.md).
 *
 * Listens on a Unix or TCP endpoint and serves concurrent
 * encode/decode/transcode sessions with admission control, bounded
 * queues, backpressure, a degradation ladder, and graceful drain.
 * SIGTERM/SIGINT begin the drain: admissions stop (shed with
 * Draining), in-flight sessions finish or checkpoint, then the
 * daemon exits 0.
 */

#include <csignal>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "serve/net.hh"
#include "serve/server.hh"
#include "support/args.hh"
#include "support/fileio.hh"
#include "support/obs/obs.hh"

namespace
{

using namespace m4ps;

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

void
usage()
{
    std::printf(
        "usage: m4ps_serve --listen <endpoint> [options]\n"
        "\n"
        "  --listen E        unix:/path or tcp:HOST:PORT (tcp:0 =\n"
        "                    ephemeral; the actual endpoint is\n"
        "                    printed on stdout as 'listening E')\n"
        "  --max-sessions N  concurrent session watermark (default 8)\n"
        "  --global-queue-bytes N  daemon-wide queued-bytes cap\n"
        "  --session-queue-bytes N per-session high watermark\n"
        "  --deadline-ms N   per-session watchdog deadline\n"
        "  --idle-timeout-ms N     request-read budget\n"
        "  --drain-timeout-ms N    drain grace before checkpointing\n"
        "  --push-timeout-ms N     slow-reader stall budget\n"
        "  --mtu N           DATA payload bytes before FEC framing\n"
        "  --no-degrade      disable the quality degradation ladder\n"
        "  --checkpoint-dir D      drain checkpoint sidecars (default .)\n"
        "  --events F        JSON-lines event log (rotating)\n"
        "  --events-max-bytes N    rotate before exceeding N bytes\n"
        "  --events-keep N   rotated generations to keep (default 3)\n"
        "  --metrics-out F   flat metrics dump on exit\n"
        "  --metrics-interval-ms N periodically rewrite --metrics-out\n"
        "                    (atomic rename; 0 = only on exit)\n"
        "  --stats-interval-ms N   STATS snapshot-ring period\n"
        "  --slo-p99-ms N    per-window p99 latency objective (0 = off)\n"
        "  --run-for-ms N    exit (drain) after N ms; 0 = until signal\n");
}

int
serveMain(int argc, char **argv)
{
    const ArgParser args(
        argc, argv,
        {"listen", "max-sessions", "global-queue-bytes",
         "session-queue-bytes", "deadline-ms", "idle-timeout-ms",
         "drain-timeout-ms", "push-timeout-ms", "mtu", "no-degrade",
         "checkpoint-dir", "events", "events-max-bytes", "events-keep",
         "metrics-out", "metrics-interval-ms", "stats-interval-ms",
         "slo-p99-ms", "run-for-ms", "help"});
    if (args.getBool("help")) {
        usage();
        return 0;
    }

    serve::ServerConfig cfg;
    cfg.listen = args.get("listen", "tcp:0");
    cfg.admission.maxSessions =
        args.getIntInRange("max-sessions", cfg.admission.maxSessions,
                           1, 1024);
    cfg.globalQueueBytes = static_cast<size_t>(args.getIntInRange(
        "global-queue-bytes",
        static_cast<int>(cfg.globalQueueBytes), 4096, 1 << 30));
    cfg.sessionQueueHighBytes = static_cast<size_t>(
        args.getIntInRange("session-queue-bytes",
                           static_cast<int>(cfg.sessionQueueHighBytes),
                           1024, 1 << 30));
    cfg.sessionQueueLowBytes = cfg.sessionQueueHighBytes / 4;
    cfg.sessionDeadlineMs = args.getIntInRange(
        "deadline-ms", static_cast<int>(cfg.sessionDeadlineMs), 100,
        3600000);
    cfg.idleTimeoutMs = args.getIntInRange(
        "idle-timeout-ms", static_cast<int>(cfg.idleTimeoutMs), 50,
        3600000);
    cfg.drainTimeoutMs = args.getIntInRange(
        "drain-timeout-ms", static_cast<int>(cfg.drainTimeoutMs), 0,
        3600000);
    cfg.pushTimeoutMs = args.getIntInRange(
        "push-timeout-ms", static_cast<int>(cfg.pushTimeoutMs), 50,
        3600000);
    cfg.mtuBytes = static_cast<size_t>(
        args.getIntInRange("mtu", static_cast<int>(cfg.mtuBytes), 64,
                           1 << 20));
    cfg.degrade = !args.getBool("no-degrade");
    cfg.checkpointDir = args.get("checkpoint-dir", ".");
    cfg.statsIntervalMs = args.getIntInRange(
        "stats-interval-ms", static_cast<int>(cfg.statsIntervalMs),
        50, 3600000);
    cfg.sloP99Ms = args.getIntInRange(
        "slo-p99-ms", static_cast<int>(cfg.sloP99Ms), 0, 3600000);

    const int runForMs = args.getIntInRange("run-for-ms", 0, 0,
                                            24 * 3600 * 1000);
    const std::string metrics_out = args.get("metrics-out", "");
    const int metricsIntervalMs = args.getIntInRange(
        "metrics-interval-ms", 0, 0, 3600000);
    if (metricsIntervalMs > 0 && metrics_out.empty())
        throw ArgError(
            "--metrics-interval-ms requires --metrics-out");
    if (!metrics_out.empty())
        obs::setMetrics(true);

    // Cross-process trace correlation: join an existing batch trace
    // (env) or mint our own id so event-log lines and trace spans
    // from this daemon carry a stable correlation key.
    const char *envId = std::getenv("M4PS_TRACE_ID");
    obs::setTraceId(envId && *envId
                        ? std::string(envId)
                        : "serve-" + std::to_string(::getpid()));
    obs::setProcessName("m4ps_serve");

    serve::Server server(cfg);
    std::unique_ptr<service::RotatingLogSink> rotating;
    std::ofstream eventFile;
    if (args.has("events")) {
        const int maxBytes = args.getIntInRange(
            "events-max-bytes", 16 << 20, 4096, 1 << 30);
        rotating = std::make_unique<service::RotatingLogSink>(
            args.get("events"), static_cast<size_t>(maxBytes),
            args.getIntInRange("events-keep", 3, 1, 100));
        server.attachRotatingEvents(rotating.get());
    }

    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    server.start();
    // The load generator and tests scrape this line for the actual
    // endpoint (ephemeral TCP ports foremost).
    std::printf("listening %s\n", server.endpoint().c_str());
    std::fflush(stdout);

    const auto start = std::chrono::steady_clock::now();
    auto lastFlush = start;
    while (!g_stop) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        const auto now = std::chrono::steady_clock::now();
        // Periodic metrics flush for scrapers that tail the file
        // while the daemon runs: atomic, so a reader never sees a
        // torn dump.  A failed flush leaves the daemon serving.
        if (metricsIntervalMs > 0 &&
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - lastFlush)
                    .count() >= metricsIntervalMs) {
            lastFlush = now;
            std::ostringstream os;
            obs::writeMetricsText(os);
            try {
                support::writeFileAtomic(metrics_out, os.str());
            } catch (const std::exception &e) {
                std::fprintf(stderr, "m4ps_serve: %s\n", e.what());
            }
        }
        if (runForMs > 0 &&
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - start)
                    .count() >= runForMs)
            break;
    }

    // Graceful drain: stop admissions, let in-flight sessions finish
    // or checkpoint, then tear everything down and report.
    server.stop();
    const serve::ServerStats st = server.stats();
    std::printf("admitted %llu shed %llu completed %llu "
                "checkpointed %llu failed %llu canceled %llu\n",
                static_cast<unsigned long long>(st.admitted),
                static_cast<unsigned long long>(st.shedTotal()),
                static_cast<unsigned long long>(st.completed),
                static_cast<unsigned long long>(st.checkpointed),
                static_cast<unsigned long long>(st.failed),
                static_cast<unsigned long long>(st.canceled));

    if (!metrics_out.empty()) {
        std::ofstream os(metrics_out, std::ios::binary);
        if (!os)
            throw ArgError("cannot write --metrics-out file '" +
                           metrics_out + "'");
        obs::writeMetricsText(os);
    }
    if (rotating)
        rotating->sync();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return serveMain(argc, argv);
    } catch (const ArgError &e) {
        return reportArgError("m4ps_serve", e);
    } catch (const m4ps::serve::NetError &e) {
        std::fprintf(stderr, "m4ps_serve: %s\n", e.what());
        return 1;
    }
}
