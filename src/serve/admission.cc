#include "serve/admission.hh"

#include <algorithm>

namespace m4ps::serve
{

// ------------------------------------------------------------------
// AdmissionController
// ------------------------------------------------------------------

AdmissionController::AdmissionController(const AdmissionConfig &cfg)
    : cfg_(cfg)
{}

service::CircuitBreaker &
AdmissionController::breakerFor(const std::string &cls)
{
    auto it = breakers_.find(cls);
    if (it == breakers_.end())
        it = breakers_
                 .try_emplace(cls, cfg_.breakerThreshold,
                              cfg_.breakerCooldownMs)
                 .first;
    return it->second;
}

AdmitDecision
AdmissionController::tryAdmit(int64_t nowMs)
{
    (void)nowMs;
    std::lock_guard<std::mutex> lock(mu_);
    AdmitDecision d;
    if (draining_) {
        d.shedStatus = Status::Draining;
        ++shed_;
        return d;
    }
    if (active_ >= cfg_.maxSessions) {
        d.shedStatus = Status::Overloaded;
        ++shed_;
        return d;
    }
    ++active_;
    ++admitted_;
    d.admitted = true;
    return d;
}

AdmitDecision
AdmissionController::checkClass(const std::string &cls, int64_t nowMs)
{
    std::lock_guard<std::mutex> lock(mu_);
    AdmitDecision d;
    service::CircuitBreaker &b = breakerFor(cls);
    const bool wasHalfOpen =
        b.state(nowMs) == service::CircuitBreaker::State::HalfOpen;
    if (!b.allow(nowMs)) {
        d.shedStatus = Status::BreakerOpen;
        ++shed_;
        return d;
    }
    d.admitted = true;
    d.isProbe = wasHalfOpen;
    return d;
}

void
AdmissionController::reportOutcome(const std::string &cls,
                                   bool wasProbe, SessionEnd end,
                                   int64_t nowMs)
{
    std::lock_guard<std::mutex> lock(mu_);
    service::CircuitBreaker &b = breakerFor(cls);
    switch (end) {
      case SessionEnd::Success:
        b.recordSuccess();
        break;
      case SessionEnd::PermanentFailure:
        b.recordPermanentFailure(nowMs);
        break;
      case SessionEnd::NoVerdict:
        if (wasProbe)
            b.probeAborted();
        break;
    }
}

void
AdmissionController::release()
{
    std::lock_guard<std::mutex> lock(mu_);
    active_ = std::max(0, active_ - 1);
}

void
AdmissionController::beginDrain()
{
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
}

bool
AdmissionController::draining() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return draining_;
}

int
AdmissionController::active() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return active_;
}

uint64_t
AdmissionController::admitted() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return admitted_;
}

uint64_t
AdmissionController::shed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return shed_;
}

double
AdmissionController::sessionLoad() const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (cfg_.maxSessions <= 0)
        return 0.0;
    return static_cast<double>(active_) / cfg_.maxSessions;
}

// ------------------------------------------------------------------
// DegradationLadder
// ------------------------------------------------------------------

DegradationLadder::DegradationLadder(const LadderConfig &cfg)
    : cfg_(cfg),
      occupancyMs_(static_cast<size_t>(cfg.maxLevel) + 1, 0)
{}

void
DegradationLadder::accumulate(int64_t nowMs)
{
    if (anchored_ && nowMs > lastSampleMs_)
        occupancyMs_[static_cast<size_t>(level_)] +=
            nowMs - lastSampleMs_;
    lastSampleMs_ = nowMs;
}

int
DegradationLadder::observe(double load, int64_t nowMs)
{
    accumulate(nowMs);
    if (!anchored_) {
        anchored_ = true;
        lastChangeMs_ = nowMs;
        return level_;
    }
    const bool dwelt = nowMs - lastChangeMs_ >= cfg_.dwellMs;
    if (load >= cfg_.stepUpLoad && level_ < cfg_.maxLevel && dwelt) {
        ++level_;
        lastChangeMs_ = nowMs;
    } else if (load <= cfg_.stepDownLoad && level_ > 0 && dwelt) {
        --level_;
        lastChangeMs_ = nowMs;
    }
    return level_;
}

int64_t
DegradationLadder::occupancyMs(int level) const
{
    if (level < 0 || level >= static_cast<int>(occupancyMs_.size()))
        return 0;
    return occupancyMs_[static_cast<size_t>(level)];
}

void
DegradationLadder::finish(int64_t nowMs)
{
    accumulate(nowMs);
}

void
DegradationLadder::applyToSpec(service::JobSpec &spec, int level)
{
    core::Workload &w = spec.workload;
    if (level >= 1) {
        // Frame-rate tier: half the frames at half the rate keeps
        // the media duration while halving the encode work.
        w.frames = std::max(1, w.frames / 2);
        w.frameRate = std::max(1.0, w.frameRate / 2.0);
        // The GOP must stay legal (intraPeriod a positive multiple
        // of bFrames + 1); clamping frames alone never breaks that.
    }
    if (level >= 2) {
        // Resolution tier: halve each axis, snapped to macroblocks.
        w.width = std::max(16, (w.width / 2) / 16 * 16);
        w.height = std::max(16, (w.height / 2) / 16 * 16);
    }
    if (level >= 3) {
        if (spec.fecEnabled()) {
            // Step down the punctured rate ladder: less redundancy,
            // cheaper wire and Viterbi work per delivered byte.
            if (spec.fecRate == "1/2")
                spec.fecRate = "2/3";
            else if (spec.fecRate == "2/3")
                spec.fecRate = "3/4";
        } else {
            w.initialQp = 31; // coarsest legal quantizer
        }
    }
}

} // namespace m4ps::serve
