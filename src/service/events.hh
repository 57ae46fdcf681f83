/**
 * @file
 * JSON-lines lifecycle events for the job supervisor.
 *
 * Every supervision decision - queueing, attempt start/exit, watchdog
 * and storm kills, retry scheduling, degradation, breaker trips, and
 * terminal outcomes - is emitted as one self-describing JSON object
 * per line so a run can be audited or replayed after the fact
 * (docs/OPERATIONS.md lists the schema).  The log is deliberately a
 * sink, not a bus: only the supervisor writes, workers stay silent
 * except for their exit status and stderr.
 */

#ifndef M4PS_SERVICE_EVENTS_HH
#define M4PS_SERVICE_EVENTS_HH

#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <ostream>
#include <string>

namespace m4ps::service
{

/** Builder for one JSON event object. */
class JsonEvent
{
  public:
    /** Starts {"event":"<type>" ... */
    explicit JsonEvent(const std::string &type);

    JsonEvent &str(const char *key, const std::string &v);
    JsonEvent &num(const char *key, int64_t v);
    JsonEvent &real(const char *key, double v);
    JsonEvent &boolean(const char *key, bool v);

    /** The finished object (no trailing newline). */
    std::string line() const { return body_ + "}"; }

    /** The event type this object was started with. */
    const std::string &type() const { return type_; }

  private:
    std::string type_;
    std::string body_;
};

/**
 * A size-capped rotating file sink for event lines.
 *
 * Long-lived processes (m4ps_serve foremost) emit events forever; an
 * unbounded log file is its own overload failure mode.  The sink
 * appends whole lines to @p path and, when the next line would push
 * the file past @p maxBytes, rotates: path -> path.1 -> path.2 ...
 * up to @p maxFiles rotated generations (the oldest falls off).
 * Rotation is line-aligned - a line is never split across files -
 * and the closing file is fsync'd before its rename, so every
 * rotated generation is a complete, durable JSON-lines document.
 */
class RotatingLogSink
{
  public:
    /**
     * @param path      live log file (appends if it exists).
     * @param maxBytes  rotate before the file would exceed this.
     * @param maxFiles  rotated generations to keep (>= 1).
     */
    RotatingLogSink(const std::string &path, size_t maxBytes,
                    int maxFiles);
    ~RotatingLogSink();

    RotatingLogSink(const RotatingLogSink &) = delete;
    RotatingLogSink &operator=(const RotatingLogSink &) = delete;

    /** Append one event line (newline added here). */
    void write(const std::string &line);

    /** Flush and fsync the live file. */
    void sync();

    int rotations() const { return rotations_; }
    const std::string &path() const { return path_; }

  private:
    void openLive();
    void rotate();

    std::string path_;
    size_t maxBytes_;
    int maxFiles_;
    std::FILE *f_ = nullptr;
    size_t bytes_ = 0;
    int rotations_ = 0;
};

/**
 * An append-only JSON-lines event log.  The most recent
 * kRetainedLines lines stay in memory and every event type keeps an
 * exact count (tests assert on both), so a daemon that logs for its
 * whole life holds a constant amount; attach() additionally streams
 * each line to an ostream, flushed per event so a crashing
 * supervisor leaves a complete prefix behind.
 *
 * The log is one sink of the shared observability stream: every
 * emitted event is also forwarded as an obs instant event (category
 * "service", the event object as args), so a Chrome trace of a
 * supervised batch interleaves job lifecycle markers with the spans.
 * The JSON-lines schema documented in docs/OPERATIONS.md is
 * unchanged by this forwarding.
 */
class EventLog
{
  public:
    /** Lines kept in memory; older ones are dropped, oldest first. */
    static constexpr size_t kRetainedLines = 4096;

    EventLog() = default;

    /** Also write each event line to @p os (not owned; may be null). */
    void attach(std::ostream *os) { os_ = os; }

    /** Also write each event line to a rotating sink (not owned). */
    void attachRotating(RotatingLogSink *sink) { rot_ = sink; }

    void emit(const JsonEvent &e);

    /** The most recent lines, oldest first (at most kRetainedLines). */
    const std::deque<std::string> &lines() const { return lines_; }

    /** Count of every event ever emitted whose type is @p type. */
    int count(const std::string &type) const;

  private:
    std::ostream *os_ = nullptr;
    RotatingLogSink *rot_ = nullptr;
    std::deque<std::string> lines_;
    std::map<std::string, int> counts_;
};

} // namespace m4ps::service

#endif // M4PS_SERVICE_EVENTS_HH
