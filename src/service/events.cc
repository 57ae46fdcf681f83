#include "service/events.hh"

#include <cstdio>
#include <stdexcept>
#include <sys/stat.h>
#include <unistd.h>

#include "support/json.hh"
#include "support/obs/obs.hh"

namespace m4ps::service
{

JsonEvent::JsonEvent(const std::string &type)
    : type_(type),
      body_("{\"event\":\"" + support::jsonEscaped(type) + "\"")
{}

JsonEvent &
JsonEvent::str(const char *key, const std::string &v)
{
    body_ += ",\"";
    body_ += key;
    body_ += "\":\"" + support::jsonEscaped(v) + "\"";
    return *this;
}

JsonEvent &
JsonEvent::num(const char *key, int64_t v)
{
    body_ += ",\"";
    body_ += key;
    body_ += "\":" + std::to_string(v);
    return *this;
}

JsonEvent &
JsonEvent::real(const char *key, double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    body_ += ",\"";
    body_ += key;
    body_ += "\":";
    body_ += buf;
    return *this;
}

JsonEvent &
JsonEvent::boolean(const char *key, bool v)
{
    body_ += ",\"";
    body_ += key;
    body_ += v ? "\":true" : "\":false";
    return *this;
}

// ------------------------------------------------------------------
// RotatingLogSink
// ------------------------------------------------------------------

RotatingLogSink::RotatingLogSink(const std::string &path,
                                 size_t maxBytes, int maxFiles)
    : path_(path), maxBytes_(maxBytes),
      maxFiles_(maxFiles < 1 ? 1 : maxFiles)
{
    openLive();
}

RotatingLogSink::~RotatingLogSink()
{
    if (f_) {
        sync();
        std::fclose(f_);
    }
}

void
RotatingLogSink::openLive()
{
    f_ = std::fopen(path_.c_str(), "ab");
    if (!f_)
        throw std::runtime_error("cannot open event log '" + path_ +
                                 "'");
    struct stat st {};
    bytes_ = ::fstat(::fileno(f_), &st) == 0
                 ? static_cast<size_t>(st.st_size)
                 : 0;
}

void
RotatingLogSink::rotate()
{
    // Durable handoff: the closing generation is synced before any
    // rename touches it, so every rotated file is complete.
    std::fflush(f_);
    ::fsync(::fileno(f_));
    std::fclose(f_);
    f_ = nullptr;

    std::remove((path_ + "." + std::to_string(maxFiles_)).c_str());
    for (int i = maxFiles_ - 1; i >= 1; --i) {
        const std::string from = path_ + "." + std::to_string(i);
        const std::string to = path_ + "." + std::to_string(i + 1);
        std::rename(from.c_str(), to.c_str()); // missing is fine
    }
    std::rename(path_.c_str(), (path_ + ".1").c_str());
    ++rotations_;
    openLive();
}

void
RotatingLogSink::write(const std::string &line)
{
    const size_t n = line.size() + 1;
    // Line-aligned rotation: rotate *before* a line that would push
    // the live file past the cap, never mid-line.  A single line
    // larger than the cap still goes out whole (into a fresh file).
    if (bytes_ > 0 && bytes_ + n > maxBytes_)
        rotate();
    std::fwrite(line.data(), 1, line.size(), f_);
    std::fputc('\n', f_);
    std::fflush(f_);
    bytes_ += n;
}

void
RotatingLogSink::sync()
{
    if (!f_)
        return;
    std::fflush(f_);
    ::fsync(::fileno(f_));
}

void
EventLog::emit(const JsonEvent &e)
{
    // Cross-process correlation: when a batch/daemon trace id is set
    // (obs::setTraceId), every event line carries it, so the logs of
    // a supervisor and its forked workers join on one key.  Appended
    // at the closing brace.
    std::string line = e.line();
    const std::string trace_id = obs::traceId();
    if (!trace_id.empty() && !line.empty() && line.back() == '}') {
        line.pop_back();
        line += ",\"trace_id\":\"" + support::jsonEscaped(trace_id) + "\"}";
    }
    ++counts_[e.type()];
    if (lines_.size() == kRetainedLines)
        lines_.pop_front();
    lines_.push_back(std::move(line));
    if (os_) {
        *os_ << lines_.back() << '\n';
        os_->flush();
    }
    if (rot_)
        rot_->write(lines_.back());
    // Mirror into the observability stream (the EventLog is one sink
    // of it): the full event object rides along as the args payload.
    if (obs::tracingEnabled())
        obs::instant("service", "event." + e.type(), lines_.back());
    static obs::Counter &eventsC = obs::counter("service.events");
    eventsC.add();
}

int
EventLog::count(const std::string &type) const
{
    const auto it = counts_.find(type);
    return it == counts_.end() ? 0 : it->second;
}

} // namespace m4ps::service
