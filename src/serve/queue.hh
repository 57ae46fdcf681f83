/**
 * @file
 * Bounded queues and sender accounting for the streaming daemon.
 *
 * The robustness envelope of m4ps_serve is built from three small,
 * independently testable pieces:
 *
 *  - ByteBudget: the daemon-wide queued-bytes watermark.  Every DATA
 *    payload staged for any session reserves against it; a reserve
 *    that would exceed the watermark fails, so the global queue can
 *    never exceed it - overload turns into backpressure and shedding
 *    instead of unbounded memory growth.
 *
 *  - SessionQueue: the bounded per-session staging queue between a
 *    session's encoder (producer) and its socket writer (consumer).
 *    push() blocks while the queue sits above its high watermark or
 *    the global budget is exhausted, which is exactly the
 *    backpressure signal the encoder's rate controller consumes; a
 *    push that stays blocked past its budget returns false and the
 *    session sheds with a structured SlowReader error.
 *
 *  - SenderState: per-session interarrival jitter in the RFC 3550
 *    spirit - an EWMA over send-time-minus-media-time transit
 *    deltas.
 *
 * All blocking is condition-variable based with bounded waits; every
 * wait loop re-checks the closed flag so drain and abort always win.
 */

#ifndef M4PS_SERVE_QUEUE_HH
#define M4PS_SERVE_QUEUE_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

namespace m4ps::serve
{

/** Daemon-wide queued-bytes watermark (strictly enforced). */
class ByteBudget
{
  public:
    explicit ByteBudget(size_t watermarkBytes);

    /** Reserve @p n bytes iff the watermark allows; non-blocking. */
    bool tryReserve(size_t n);

    /** Return @p n reserved bytes and wake blocked reservers. */
    void release(size_t n);

    /** Block up to @p timeoutMs for @p n bytes of room. */
    bool reserveFor(size_t n, int64_t timeoutMs);

    size_t used() const;
    size_t highWatermarkSeen() const; //!< Max used() ever observed.
    size_t watermark() const { return watermark_; }

  private:
    const size_t watermark_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    size_t used_ = 0;
    size_t maxUsed_ = 0;
};

/** One staged outbound message (already wire-encoded). */
struct QueuedMessage
{
    std::vector<uint8_t> bytes;
};

/** Bounded producer/consumer staging queue for one session. */
class SessionQueue
{
  public:
    /**
     * @param highBytes  producer blocks at/above this occupancy.
     * @param lowBytes   blocked producer resumes below this.
     * @param global     daemon-wide budget every byte reserves from.
     */
    SessionQueue(size_t highBytes, size_t lowBytes, ByteBudget &global);
    ~SessionQueue();

    SessionQueue(const SessionQueue &) = delete;
    SessionQueue &operator=(const SessionQueue &) = delete;

    /**
     * Stage @p bytes for sending.  Blocks (in bounded slices) while
     * the queue is at its high watermark or the global budget is
     * full; returns false when @p timeoutMs expires before room
     * appears - the caller's slow-reader budget - or the queue was
     * closed.  A false return means the bytes were NOT staged.
     */
    bool push(std::vector<uint8_t> bytes, int64_t timeoutMs);

    /**
     * Take the oldest staged message.  Blocks up to @p timeoutMs;
     * false on timeout, or immediately when the queue is closed (or
     * producer-closed) and empty.
     */
    bool pop(std::vector<uint8_t> *out, int64_t timeoutMs);

    /** Producer is done: pops drain the remainder, pushes fail. */
    void closeProducer();

    /** Hard close: discard staged messages, unblock everyone. */
    void closeAll();

    bool closed() const;

    /** Nothing staged and no producer left: the consumer is done. */
    bool finished() const;

    /** True while occupancy is at/above the high watermark. */
    bool aboveHighWater() const;

    size_t bytes() const;
    size_t highWatermarkSeen() const;

  private:
    const size_t highBytes_;
    const size_t lowBytes_;
    ByteBudget &global_;

    mutable std::mutex mu_;
    std::condition_variable cvPush_;
    std::condition_variable cvPop_;
    std::deque<QueuedMessage> q_;
    size_t bytes_ = 0;
    size_t maxBytes_ = 0;
    bool producerClosed_ = false;
    bool closed_ = false;
    bool gated_ = false; //!< Producer hit high; stays blocked till low.
};

/** Per-session interarrival jitter of the sent DATA packets. */
struct SenderState
{
    double jitterMs = 0.0; //!< RFC 3550-style EWMA (J += (|D|-J)/16).

    /** Fold one sent packet's transit into the jitter. */
    void onSend(int64_t sendMs, int64_t mediaMs);

  private:
    bool haveLast_ = false;
    int64_t lastTransitMs_ = 0;
};

} // namespace m4ps::serve

#endif // M4PS_SERVE_QUEUE_HH
