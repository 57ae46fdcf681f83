/**
 * @file
 * Thread pool for macroblock-row parallelism.
 *
 * The paper shows MPEG-4 is compute bound on general-purpose cores
 * (DRAM stalls <= 12%, < 4% of bus bandwidth used), exactly the
 * profile where row-level parallelism scales near-linearly.  The
 * codec submits one task per macroblock row; rows at the bottom of a
 * shaped VOP can be much cheaper than rows through the object, so
 * there is no static partition: every thread claims the next
 * unclaimed row from one shared counter as soon as it is free.
 *
 * Design: one atomic counter per parallelFor() hands out task indices
 * in increasing order, so every index below a claimed one has been
 * claimed too.  The thread that calls parallelFor() participates, so
 * a pool configured for N threads uses N-1 background workers, which
 * help the most recently started region.  Re-entrant calls degrade
 * to inline execution, which keeps the pool safe to use from code
 * that does not know whether it is already inside a parallel region.
 */

#ifndef M4PS_SUPPORT_THREADPOOL_HH
#define M4PS_SUPPORT_THREADPOOL_HH

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace m4ps::support
{

/** Fixed-size pool executing integer-indexed tasks in claim order. */
class ThreadPool
{
  public:
    /**
     * Create a pool that runs parallelFor() on @p threads threads
     * total (the caller counts as one; @p threads - 1 workers are
     * spawned).  threads <= 1 spawns nothing and runs inline.
     */
    explicit ThreadPool(int threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total execution width (callers + workers). */
    int threads() const { return nThreads_; }

    /**
     * Run body(i) for every i in [0, n), distributed over the pool.
     * Threads claim indices in increasing order and run each claimed
     * task exactly once.  Blocks until every claimed task has
     * finished.  If a task throws, no further index is claimed, and
     * the exception of the lowest index that threw is rethrown here
     * -- the one a sequential loop would have stopped at.
     */
    void parallelFor(int n, const std::function<void(int)> &body);

    /**
     * The process-wide pool used by the codec.  Sized by the last
     * setGlobalThreads() call, or the M4PS_THREADS environment
     * variable, or 1 (sequential) by default.
     */
    static ThreadPool &global();

    /** Resize the global pool (joins and respawns its workers). */
    static void setGlobalThreads(int threads);

  private:
    /** One parallelFor() in flight. */
    struct Job
    {
        const std::function<void(int)> *body = nullptr;
        int n = 0;
        std::atomic<int> next{0};          //!< Next index; >= n: none.
        std::atomic<int> activeWorkers{0}; //!< Workers inside run().
        std::mutex errorMu;
        int errorIndex = 0;                //!< Lowest index that threw.
        std::exception_ptr error;          //!< Its exception.
    };

    void workerLoop();

    /** Claim and run tasks until none is left to claim. */
    static void run(Job &job);

    int nThreads_;
    std::vector<std::thread> workers_;

    std::mutex mu_;
    std::condition_variable cv_;
    Job *job_ = nullptr;       //!< The region workers join, if any.
    uint64_t generation_ = 0;  //!< Bumped per parallelFor() wake-up.
    bool stop_ = false;
};

} // namespace m4ps::support

#endif // M4PS_SUPPORT_THREADPOOL_HH
