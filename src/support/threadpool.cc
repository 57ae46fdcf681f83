#include "support/threadpool.hh"

#include <cstdlib>

#include "support/logging.hh"
#include "support/obs/obs.hh"

namespace m4ps::support
{

namespace
{

/** True while the current thread is executing inside parallelFor(). */
thread_local bool tlsInParallelRegion = false;

int
envThreads()
{
    const char *env = std::getenv("M4PS_THREADS");
    if (!env || !*env)
        return 1;
    char *end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || v < 1 || v > 256)
        return 1;
    return static_cast<int>(v);
}

} // namespace

ThreadPool::ThreadPool(int threads)
    : nThreads_(threads < 1 ? 1 : threads)
{
    workers_.reserve(nThreads_ - 1);
    for (int w = 1; w < nThreads_; ++w)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::run(Job &job)
{
    static obs::Counter &tasksC = obs::counter("pool.tasks");
    for (;;) {
        const int task = job.next.fetch_add(1);
        if (task >= job.n)
            return;
        tasksC.add();
        obs::Span taskSpan("pool", "pool.task");
        if (taskSpan.active())
            taskSpan.setArgs("{\"task\":" + std::to_string(task) + "}");
        try {
            (*job.body)(task);
        } catch (...) {
            // Every index below this one has been claimed, so the
            // lowest failure is known once the claimed tasks finish.
            std::lock_guard<std::mutex> lock(job.errorMu);
            if (!job.error || task < job.errorIndex) {
                job.error = std::current_exception();
                job.errorIndex = task;
            }
            // Claim nothing more.
            job.next.store(job.n);
        }
    }
}

void
ThreadPool::workerLoop()
{
    uint64_t seen = 0;
    while (true) {
        Job *job = nullptr;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock, [&] {
                return stop_ || (job_ && generation_ != seen);
            });
            if (stop_)
                return;
            job = job_;
            seen = generation_;
            // Register under mu_: once job_ no longer points at the
            // job (changed under mu_ too), no new worker can enter
            // it, so its caller only has to wait for activeWorkers
            // to hit zero before letting the stack-allocated Job die.
            job->activeWorkers.fetch_add(1, std::memory_order_acq_rel);
        }
        tlsInParallelRegion = true;
        run(*job);
        tlsInParallelRegion = false;
        job->activeWorkers.fetch_sub(1, std::memory_order_acq_rel);
    }
}

void
ThreadPool::parallelFor(int n, const std::function<void(int)> &body)
{
    if (n <= 0)
        return;
    // Inline when the pool is sequential, the region is trivial, or
    // we are already inside a region (no nested parallelism).
    if (nThreads_ <= 1 || n == 1 || tlsInParallelRegion) {
        for (int i = 0; i < n; ++i)
            body(i);
        return;
    }

    obs::Span regionSpan("pool", "pool.parallel_for");
    if (regionSpan.active())
        regionSpan.setArgs("{\"tasks\":" + std::to_string(n) +
                           ",\"threads\":" +
                           std::to_string(nThreads_) + "}");
    static obs::Counter &regionsC = obs::counter("pool.regions");
    static obs::Histogram &tasksH =
        obs::histogram("pool.region_tasks", {1, 2, 4, 8, 16, 32, 64});
    regionsC.add();
    tasksH.observe(static_cast<double>(n));

    Job job;
    job.body = &body;
    job.n = n;
    {
        std::lock_guard<std::mutex> lock(mu_);
        job_ = &job;
        ++generation_;
    }
    cv_.notify_all();

    tlsInParallelRegion = true;
    run(job);
    tlsInParallelRegion = false;

    {
        std::lock_guard<std::mutex> lock(mu_);
        // A concurrent caller may have posted its own region since;
        // the workers are its helpers now.
        if (job_ == &job)
            job_ = nullptr;
    }
    // Nothing is left to claim; wait for the workers still running
    // claimed tasks before the stack-allocated Job goes out of scope.
    while (job.activeWorkers.load(std::memory_order_acquire) > 0)
        std::this_thread::yield();
    if (job.error)
        std::rethrow_exception(job.error);
}

namespace
{

std::mutex gGlobalMu;
// Leaked intentionally: a static destructor would join the workers
// at process exit, which is pointless in a normal exit and crashes
// in a fork()ed child (gtest death tests) where the worker threads
// do not exist.  The pool's mutex/condvar must outlive any parked
// worker, so the object is never destroyed at exit.
ThreadPool *gGlobal = nullptr;

} // namespace

ThreadPool &
ThreadPool::global()
{
    std::lock_guard<std::mutex> lock(gGlobalMu);
    if (!gGlobal)
        gGlobal = new ThreadPool(envThreads());
    return *gGlobal;
}

void
ThreadPool::setGlobalThreads(int threads)
{
    M4PS_ASSERT(threads >= 1 && threads <= 256,
                "thread count must be in [1, 256], got ", threads);
    std::lock_guard<std::mutex> lock(gGlobalMu);
    if (gGlobal && gGlobal->threads() == threads)
        return;
    delete gGlobal; // joins the old pool's workers (live parent only)
    gGlobal = new ThreadPool(threads);
}

} // namespace m4ps::support
