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
 * access the task performs is recorded instead of simulated, split at
 * record time into one stream of in-order counter increments and one
 * stream of line touches per cache-set partition group.  No two
 * groups share an L1 or an L2 set, so each group's touches evolve its
 * sets exactly as the whole program order would.  As soon as a task
 * and every task before it have finished, each stream of its shard
 * is replayed, in task order, by that stream's lane, while later
 * tasks are still running: the lanes run on different threads at
 * once.  Because the sequential codec processes rows in exactly that
 * order, the counters are bit-identical to a single-threaded run - no
 * locks, no atomics on the hot path, exact statistics.
 */

#ifndef M4PS_MEMSIM_HIERARCHY_HH
#define M4PS_MEMSIM_HIERARCHY_HH

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "memsim/cache.hh"
#include "memsim/cost_model.hh"
#include "memsim/counters.hh"
#include "support/obs/obs.hh"

namespace m4ps::memsim
{

struct TraceShard;
class OrderedRegion;

/** L1 + L2 + DRAM model with perfex-style counters. */
class MemoryHierarchy
{
  public:
    /** L1 lines must be at least 4 bytes, and L2 lines no smaller. */
    MemoryHierarchy(const CacheConfig &l1, const CacheConfig &l2,
                    const CostModel &cost);
    ~MemoryHierarchy();

    MemoryHierarchy(const MemoryHierarchy &) = delete;
    MemoryHierarchy &operator=(const MemoryHierarchy &) = delete;

    /**
     * One graduated load of @p bytes (at least 1) at @p addr: touches
     * the line of its first byte, and of its last byte if that differs.
     */
    void load(uint64_t addr, int bytes);

    /** One graduated store of @p bytes (at least 1) at @p addr. */
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

    /**
     * The counters so far.  Each stall-cycle double is the
     * left-to-right sum of one constant per miss, as if it had been
     * added at every miss.  Not for concurrent calls.
     */
    CounterSet counters() const;

    RegionProfiler &profiler() { return prof_; }
    const RegionProfiler &profiler() const { return prof_; }

    const Cache &l1() const { return l1_; }
    const Cache &l2() const { return l2_; }
    const CostModel &cost() const { return cost_; }

    /** Modelled execution time so far, in seconds. */
    double elapsedSeconds() const
    {
        return cost_.seconds(counters().totalCycles());
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
    /** A task's recorded accesses, and a traced region (hierarchy.cc). */
    friend struct TraceShard;
    friend class OrderedRegion;

    /**
     * n copies of a constant summed left to right, memoized: each call
     * continues from the last, as miss counts never shrink.
     */
    class RepeatedSum
    {
      public:
        explicit RepeatedSum(double value) : value_(value) {}

        double of(uint64_t n);

      private:
        double value_;
        uint64_t n_ = 0;
        double sum_ = 0;
    };

    /** Demand access to one L1 line: inline MRU hit, else the slow path. */
    void touchLine(uint64_t addr, bool is_write, CounterSet &c);

    /** touchLine() when the line is not the MRU line of its L1 set. */
    void touchLineSlow(uint64_t addr, bool is_write, CounterSet &c);

    /** Write a dirty L1 victim down into L2. */
    void writebackToL2(uint64_t addr, CounterSet &c);

    /** The cache side of a software prefetch of @p addr's line. */
    void prefetchLine(uint64_t addr, CounterSet &c);

    /** A spare shard, its streams' capacity kept, or a new one. */
    std::unique_ptr<TraceShard> takeShard();

    /** Keep a replayed @p shard for reuse while fewer than @p bound are. */
    void recycleShard(std::unique_ptr<TraceShard> shard, size_t bound);

    Cache l1_;
    Cache l2_;
    CostModel cost_;
    CounterSet ctrs_; //!< Every counter but the two stall doubles.
    mutable RepeatedSum l2Stall_;
    mutable RepeatedSum dramStall_;
    RegionProfiler prof_;
    uint64_t l1LineMask_;
    /**
     * Address bits [partitionLo_, partitionHi_) lie in both the L1 and
     * the L2 set index; lines that differ there share no set.
     */
    int partitionLo_;
    int partitionHi_;

    std::mutex spareMu_;
    std::vector<std::unique_ptr<TraceShard>> spares_; //!< Under spareMu_.
};

/**
 * Run task(i) for every i in [0, n) on the global support::ThreadPool
 * and leave @p mem's counters exactly as if the tasks had run one
 * after another in index order.
 *
 * When @p mem is non-null, the pool has P > 1 threads and @p n > 1,
 * the pool threads claim tasks in index order, and each task records
 * its accesses into a shard of its own, split into an in-order stream
 * and one line stream per partition group (G groups: the largest
 * power of two no larger than P or the cache geometry's partition
 * count).  G + 1 lanes, each with its own cursor, replay their stream
 * of every finished shard in index order while later tasks still
 * run; the last lane to finish a shard hands it back to @p mem for
 * reuse.  Otherwise the tasks simulate directly.  A recording task
 * must not start another recording region, and must not read
 * @p mem's counters.
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
