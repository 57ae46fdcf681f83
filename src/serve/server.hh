/**
 * @file
 * The m4ps_serve daemon core: a long-lived server multiplexing many
 * concurrent encode/decode/transcode sessions over a Unix or TCP
 * stream socket (serve/protocol.hh), built for graceful behavior at
 * and past saturation rather than peak throughput.
 *
 * Session lifecycle.  One connection carries one session.  An accept
 * thread applies the connection-level admission gate *before reading
 * a byte* - at the session watermark or during drain the connection
 * is answered with a structured shed status and closed, so overload
 * costs the daemon one small write instead of an encoder.  An
 * admitted session gets two threads: a worker that reads the request,
 * runs the job, and stages wire messages into a bounded SessionQueue,
 * and a writer that drains the queue to the socket.  Encode sessions
 * stream: after every encodeFrame() the new elementary-stream prefix
 * delta (Mpeg4Encoder::streamPrefix()) is split into MTU-sized DATA
 * payloads, optionally fec::protect()ed per packet, so the client
 * receives bitstream while later frames are still being encoded, and
 * the concatenated payloads of a completed session are byte-identical
 * to a direct encode of the same spec.
 *
 * The robustness envelope:
 *  - Bounded queues everywhere: per-session high/low watermarks with
 *    hysteresis, plus the strict daemon-wide ByteBudget, so queued
 *    bytes can never exceed the global watermark.
 *  - Backpressure: a producer blocked on its queue is the signal; the
 *    session retargets its encoder's rate controller downward
 *    (scaleBitrate) a bounded number of steps, and a stall that
 *    outlives the push budget ends the session with SlowReader.
 *  - Watchdogs: a tick thread enforces per-session deadlines and the
 *    request-read idle timeout; expired sessions end with structured
 *    DeadlineExceeded / IdleTimeout verdicts.
 *  - Degradation ladder: sampled load drives DegradationLadder with
 *    hysteresis; newly admitted sessions are shaped to the current
 *    tier and report the level they ran at.
 *  - Graceful drain: requestDrain() stops admissions (Draining
 *    sheds); in-flight sessions get drainTimeoutMs to finish, then
 *    encode sessions checkpoint their progress to a sidecar
 *    (service/checkpoint.hh) and end with Checkpointed; stop() joins
 *    everything and the process can exit cleanly.
 *
 * Everything observable: lifecycle events go to a service::EventLog
 * (serialized internally - safe from any session thread), and obs
 * counters/gauges under "serve." track admissions, sheds, packets,
 * queue occupancy, and the ladder level.
 */

#ifndef M4PS_SERVE_SERVER_HH
#define M4PS_SERVE_SERVER_HH

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fec/frame.hh"
#include "serve/admission.hh"
#include "serve/queue.hh"
#include "serve/stats.hh"
#include "service/events.hh"

namespace m4ps::serve
{

/** Daemon configuration. */
struct ServerConfig
{
    /** "unix:/path" or "tcp:HOST:PORT" ("tcp:0" = ephemeral port). */
    std::string listen = "tcp:0";

    AdmissionConfig admission;
    LadderConfig ladder;

    /** Enable the degradation ladder (off = always full fidelity). */
    bool degrade = true;

    /** Watchdog deadline per session (request read to verdict). */
    int64_t sessionDeadlineMs = 30000;

    /** Budget for the client to deliver a whole request. */
    int64_t idleTimeoutMs = 2000;

    /** Drain grace before in-flight encodes are checkpointed. */
    int64_t drainTimeoutMs = 3000;

    /** Slow-reader budget: max blocked time per staged message. */
    int64_t pushTimeoutMs = 3000;

    /** DATA payload size before FEC framing. */
    size_t mtuBytes = 1400;

    /** Watchdog / ladder / reaper cadence. */
    int64_t tickMs = 50;

    /** Cadence of the stats snapshot ring (serve/stats.hh). */
    int64_t statsIntervalMs = 1000;

    /**
     * p99 session-latency SLO target (0 = no SLO).  Each stats
     * interval with traffic is evaluated against it; violations are
     * counted in the STATS reply and emitted as slo_violation events.
     */
    int64_t sloP99Ms = 0;

    /** Where drain checkpoints sidecars go. */
    std::string checkpointDir = ".";

    /** Per-session staging queue watermarks (bytes). */
    size_t sessionQueueHighBytes = 256 * 1024;
    size_t sessionQueueLowBytes = 64 * 1024;

    /** Cap SO_SNDBUF on accepted sockets (0 = kernel default).
     *  Bounds kernel-side buffering per connection so a slow reader
     *  surfaces as queue backpressure instead of being silently
     *  absorbed by socket buffer autotuning; also caps per-session
     *  kernel memory when thousands of sessions are live. */
    int sockSndbufBytes = 0;

    /** Daemon-wide queued-bytes watermark (strict). */
    size_t globalQueueBytes = 4u << 20;
};

/** The streaming daemon. */
class Server
{
  public:
    explicit Server(const ServerConfig &cfg);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen, and spin up accept + watchdog threads. */
    void start();

    /** Canonical endpoint (actual port for "tcp:0"). */
    const std::string &endpoint() const { return endpoint_; }

    /**
     * Begin graceful drain: new connections shed with Draining,
     * in-flight sessions get drainTimeoutMs to finish before encode
     * sessions are checkpointed.  Idempotent; safe from any thread
     * (the SIGTERM handler path sets a flag the main thread acts on).
     */
    void requestDrain();

    /**
     * Drain (if not already draining), wait for every session to end,
     * join all threads, close the listener.  Idempotent.  Bounded:
     * deadlines, push budgets, and the drain checkpoint sweep bound
     * every session's remaining lifetime.
     */
    void stop();

    ServerStats stats() const;

    /**
     * The live ServiceSnapshot as m4ps-stats-v1 JSON: lifetime
     * counters plus windowed rates and p50/p99 from the snapshot
     * ring (serve/stats.hh).  What a STATS request on the wire
     * answers; public so tests can cross-check without a socket.
     */
    std::string statsJson() const;

    /**
     * Event-log views, safe while sessions are still emitting: the
     * number of events of @p type so far, and a copy of the lines
     * the log retains (the most recent EventLog::kRetainedLines).
     */
    int eventCount(const std::string &type) const;
    std::vector<std::string> eventLines() const;

    /** Also stream every event line to @p os / @p sink (not owned). */
    void attachEvents(std::ostream *os);
    void attachRotatingEvents(service::RotatingLogSink *sink);

    int activeSessions() const { return admission_.active(); }
    bool draining() const { return admission_.draining(); }
    int degradeLevel() const;
    size_t globalQueueBytes() const { return budget_.used(); }

  private:
    struct Session;

    void acceptLoop();
    void tickLoop();
    void sessionWorker(Session &s);
    void sessionWriter(Session &s);
    void shedConnection(int fd, Status st);
    void spawnSession(int fd);
    void reapDoneSessions();
    void emitEvent(const service::JsonEvent &e);

    /** Answer one STATS query on @p fd and close it (no session). */
    void handleStatsConnection(int fd);

    /** Cumulative counters + latency buckets, stamped @p nowMs. */
    StatsSample currentSample(int64_t nowMs) const;

    /** Feed the session-latency histogram (any terminal verdict). */
    void observeSessionLatency(double ms);

    /** Run the parsed job; returns the terminal status. */
    Status runSession(Session &s, service::JobSpec &spec);
    Status runEncodeSession(Session &s, service::JobSpec &spec);
    Status runDecodeSession(Session &s, service::JobSpec &spec);

    /** Stage one DATA message; handles backpressure + retarget. */
    Status stageData(Session &s, const uint8_t *data, size_t n,
                     uint32_t mediaTsMs, const fec::FecConfig *fecCfg,
                     codec::Mpeg4Encoder *enc);

    ServerConfig cfg_;
    ByteBudget budget_;
    AdmissionController admission_;
    DegradationLadder ladder_;
    service::EventLog log_;
    mutable std::mutex logMu_;

    int listenFd_ = -1;
    std::string endpoint_;
    std::atomic<bool> started_{false};
    std::atomic<bool> stopped_{false};
    std::atomic<bool> stopAccept_{false};
    std::atomic<bool> stopTick_{false};
    std::atomic<int64_t> drainStartMs_{0};
    std::atomic<int> ladderLevel_{0};
    std::thread acceptThread_;
    std::thread tickThread_;

    mutable std::mutex sessionsMu_;
    std::vector<std::unique_ptr<Session>> sessions_;
    uint64_t nextSessionId_ = 0;

    mutable std::mutex statsMu_;
    ServerStats stats_;

    // Live-stats plane (serve/stats.hh).  The ring and the latency
    // histogram have their own locks: the accept thread renders
    // snapshots while the tick thread pushes samples and session
    // workers record latencies.
    SnapshotRing statsRing_;
    int64_t startMs_ = 0;
    int64_t lastSampleMs_ = 0;   //!< Tick thread only.
    StatsSample lastSample_;     //!< Tick thread only (SLO eval).
    mutable std::mutex latencyMu_;
    std::vector<uint64_t> latencyBuckets_;
    uint64_t latencyCount_ = 0;
    uint64_t verdicts_ = 0;
    uint64_t sloWindows_ = 0;     //!< Under statsMu_.
    uint64_t sloViolations_ = 0;  //!< Under statsMu_.
};

} // namespace m4ps::serve

#endif // M4PS_SERVE_SERVER_HH
