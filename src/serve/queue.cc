#include "serve/queue.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>

namespace m4ps::serve
{

namespace
{

/** Wait-slice bound so every block re-checks closed/drain flags. */
constexpr int64_t kWaitSliceMs = 20;

} // namespace

// ------------------------------------------------------------------
// ByteBudget
// ------------------------------------------------------------------

ByteBudget::ByteBudget(size_t watermarkBytes)
    : watermark_(watermarkBytes)
{}

bool
ByteBudget::tryReserve(size_t n)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (used_ + n > watermark_)
        return false;
    used_ += n;
    maxUsed_ = std::max(maxUsed_, used_);
    return true;
}

void
ByteBudget::release(size_t n)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        used_ = n > used_ ? 0 : used_ - n;
    }
    cv_.notify_all();
}

bool
ByteBudget::reserveFor(size_t n, int64_t timeoutMs)
{
    std::unique_lock<std::mutex> lock(mu_);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeoutMs);
    while (used_ + n > watermark_) {
        if (cv_.wait_until(lock, deadline) == std::cv_status::timeout &&
            used_ + n > watermark_)
            return false;
    }
    used_ += n;
    maxUsed_ = std::max(maxUsed_, used_);
    return true;
}

size_t
ByteBudget::used() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return used_;
}

size_t
ByteBudget::highWatermarkSeen() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return maxUsed_;
}

// ------------------------------------------------------------------
// SessionQueue
// ------------------------------------------------------------------

SessionQueue::SessionQueue(size_t highBytes, size_t lowBytes,
                           ByteBudget &global)
    : highBytes_(highBytes),
      lowBytes_(std::min(lowBytes, highBytes)), global_(global)
{}

SessionQueue::~SessionQueue()
{
    closeAll();
}

bool
SessionQueue::push(std::vector<uint8_t> bytes, int64_t timeoutMs)
{
    const size_t n = bytes.size();
    const auto start = std::chrono::steady_clock::now();
    auto elapsedMs = [&start]() {
        return std::chrono::duration_cast<std::chrono::milliseconds>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };

    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        if (closed_ || producerClosed_)
            return false;
        // Hysteresis: once the producer hits the high watermark it
        // stays gated until occupancy falls below the low one, so a
        // slow reader costs one long stall instead of oscillation.
        if (gated_ && bytes_ < lowBytes_)
            gated_ = false;
        // An empty queue always admits one message, so a payload
        // larger than the session watermark degrades to lock-step
        // streaming instead of wedging the producer forever.  The
        // global budget stays strict.
        const bool roomHere =
            !gated_ && (bytes_ + n <= highBytes_ || q_.empty());
        if (roomHere && global_.tryReserve(n))
            break;
        if (!roomHere && bytes_ + n > highBytes_)
            gated_ = true;
        if (elapsedMs() >= timeoutMs)
            return false;
        cvPush_.wait_for(lock, std::chrono::milliseconds(kWaitSliceMs));
    }
    bytes_ += n;
    maxBytes_ = std::max(maxBytes_, bytes_);
    q_.push_back(QueuedMessage{std::move(bytes)});
    cvPop_.notify_one();
    return true;
}

bool
SessionQueue::pop(std::vector<uint8_t> *out, int64_t timeoutMs)
{
    std::unique_lock<std::mutex> lock(mu_);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeoutMs);
    while (q_.empty()) {
        if (closed_ || producerClosed_)
            return false;
        if (cvPop_.wait_until(lock, deadline) ==
                std::cv_status::timeout &&
            q_.empty())
            return false;
    }
    const size_t n = q_.front().bytes.size();
    *out = std::move(q_.front().bytes);
    q_.pop_front();
    bytes_ = n > bytes_ ? 0 : bytes_ - n;
    lock.unlock();
    global_.release(n);
    cvPush_.notify_all();
    return true;
}

void
SessionQueue::closeProducer()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        producerClosed_ = true;
    }
    cvPush_.notify_all();
    cvPop_.notify_all();
}

void
SessionQueue::closeAll()
{
    size_t staged = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        closed_ = true;
        producerClosed_ = true;
        staged = bytes_;
        q_.clear();
        bytes_ = 0;
    }
    if (staged)
        global_.release(staged);
    cvPush_.notify_all();
    cvPop_.notify_all();
}

bool
SessionQueue::closed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
}

bool
SessionQueue::finished() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return (closed_ || producerClosed_) && q_.empty();
}

bool
SessionQueue::aboveHighWater() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return gated_ || bytes_ >= highBytes_;
}

size_t
SessionQueue::bytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
}

size_t
SessionQueue::highWatermarkSeen() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return maxBytes_;
}

// ------------------------------------------------------------------
// SenderState
// ------------------------------------------------------------------

void
SenderState::onSend(int64_t sendMs, int64_t mediaMs)
{
    const int64_t transit = sendMs - mediaMs;
    if (haveLast_) {
        const double d =
            static_cast<double>(std::llabs(transit - lastTransitMs_));
        jitterMs += (d - jitterMs) / 16.0;
    }
    lastTransitMs_ = transit;
    haveLast_ = true;
}

} // namespace m4ps::serve
