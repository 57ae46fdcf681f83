/**
 * @file
 * Two-level data-cache hierarchy with DRAM backing.
 *
 * MemoryHierarchy glues the L1 and L2 Cache models, the CostModel,
 * and the CounterSet together.  The codec drives it with graduated
 * loads/stores (optionally coalesced into row accesses that probe
 * each covered cache line once while still counting one graduated
 * access per element - identical line-granularity behaviour, much
 * faster simulation) and software prefetches.
 *
 * Parallel runs: cache state is inherently order dependent, so
 * worker threads never touch it directly.  orderedParallelFor() gives
 * each task (one macroblock row) its own recording shard: every
 * access the task performs is recorded instead of simulated.  As
 * soon as a task and every task before it have finished, its shard
 * is replayed against the real cache model, one shard at a time in
 * task order, while later tasks are still running.  Because the
 * sequential codec processes rows in exactly that order, the counters
 * are bit-identical to a single-threaded run - no locks, no atomics
 * on the hot path, exact statistics.
 */

#ifndef M4PS_MEMSIM_HIERARCHY_HH
#define M4PS_MEMSIM_HIERARCHY_HH

#include <functional>
#include <string>

#include "memsim/cache.hh"
#include "memsim/cost_model.hh"
#include "memsim/counters.hh"
#include "support/obs/obs.hh"

namespace m4ps::memsim
{

/** L1 + L2 + DRAM model with perfex-style counters. */
class MemoryHierarchy
{
  public:
    MemoryHierarchy(const CacheConfig &l1, const CacheConfig &l2,
                    const CostModel &cost);

    /** One graduated load of @p bytes at @p addr. */
    void load(uint64_t addr, int bytes);

    /** One graduated store of @p bytes at @p addr. */
    void store(uint64_t addr, int bytes);

    /**
     * @p elems graduated loads covering [@p addr, @p addr + @p bytes).
     * Each covered L1 line is probed exactly once.
     */
    void loadRow(uint64_t addr, uint64_t bytes, uint64_t elems);

    /** Store counterpart of loadRow(). */
    void storeRow(uint64_t addr, uint64_t bytes, uint64_t elems);

    /**
     * Software prefetch of the line containing @p addr.  A prefetch
     * whose line already sits in L1 is a nop that wasted issue slots
     * (counted in prefetchL1Hits); otherwise the line is filled
     * without demand-miss accounting or stall.
     */
    void prefetch(uint64_t addr);

    /** Charge @p cycles of pure compute (entropy coding etc.). */
    void tick(double cycles);

    const CounterSet &counters() const { return ctrs_; }
    RegionProfiler &profiler() { return prof_; }
    const RegionProfiler &profiler() const { return prof_; }

    const Cache &l1() const { return l1_; }
    const Cache &l2() const { return l2_; }
    const CostModel &cost() const { return cost_; }

    /** Modelled execution time so far, in seconds. */
    double elapsedSeconds() const
    {
        return cost_.seconds(ctrs_.totalCycles());
    }

    /**
     * RAII counter region (the paper's SpeedShop-style function
     * wrapping).  On destruction the counter delta since construction
     * is accumulated into the named profiler bucket.
     */
    class ScopedRegion
    {
      public:
        ScopedRegion(MemoryHierarchy &mh, std::string name)
            : mh_(mh), name_(std::move(name)), start_(mh.counters())
        {
            if (obs::tracingEnabled())
                obsStartNs_ = obs::nowNs();
        }

        ~ScopedRegion()
        {
            const CounterSet delta = mh_.counters() - start_;
            mh_.profiler().add(name_, delta);
            if (obsStartNs_) {
                // Trace span named after the region, carrying the
                // counter delta (the paper's perfex numbers) as args.
                obs::completeEvent("memsim", "memsim." + name_,
                                   obsStartNs_,
                                   obs::nowNs() - obsStartNs_,
                                   counterArgsJson(delta));
            }
        }

        ScopedRegion(const ScopedRegion &) = delete;
        ScopedRegion &operator=(const ScopedRegion &) = delete;

      private:
        MemoryHierarchy &mh_;
        std::string name_;
        CounterSet start_;
        uint64_t obsStartNs_ = 0;
    };

    /** JSON object of a CounterSet's headline events (span args). */
    static std::string counterArgsJson(const CounterSet &c);

  private:
    /** A task's recorded accesses (hierarchy.cc). */
    friend struct TraceShard;

    /** Demand access to one L1 line: inline MRU hit, else the slow path. */
    void touchLine(uint64_t addr, bool is_write);

    /** touchLine() when the line is not the MRU line of its L1 set. */
    void touchLineSlow(uint64_t addr, bool is_write);

    /** Write a dirty L1 victim down into L2. */
    void writebackToL2(uint64_t addr);

    // Immediate (cache-touching) counterparts of the public API.
    void loadNow(uint64_t addr, int bytes);
    void storeNow(uint64_t addr, int bytes);
    void loadRowNow(uint64_t addr, uint64_t bytes, uint64_t elems);
    void storeRowNow(uint64_t addr, uint64_t bytes, uint64_t elems);
    void prefetchNow(uint64_t addr);

    Cache l1_;
    Cache l2_;
    CostModel cost_;
    CounterSet ctrs_;
    RegionProfiler prof_;
    uint64_t l1LineMask_;
};

/**
 * Run task(i) for every i in [0, n) on the global support::ThreadPool
 * and leave @p mem's counters exactly as if the tasks had run one
 * after another in index order.
 *
 * When @p mem is non-null, the pool has more than one thread and
 * @p n > 1, the pool threads claim tasks in index order, each task
 * records its accesses into a shard of its own, and finished shards
 * are replayed in index order while later tasks still run; each
 * shard is freed once replayed.  Otherwise the tasks simulate
 * directly.  A recording task must not start another recording
 * region, and must not read @p mem's counters.
 *
 * If tasks throw in a recording region, let k be the lowest index
 * that threw: the counters and cache state are exactly those of
 * tasks 0..k-1 run in order, the shards of task k and after are
 * dropped (tasks that had not started never do), every thread is
 * back to simulating directly, and task k's exception is rethrown.
 */
void orderedParallelFor(MemoryHierarchy *mem, int n,
                        const std::function<void(int)> &task);

} // namespace m4ps::memsim

#endif // M4PS_MEMSIM_HIERARCHY_HH
