#include "memsim/hierarchy.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "support/logging.hh"
#include "support/threadpool.hh"

namespace m4ps::memsim
{

/**
 * The accesses one orderedParallelFor() task made, in program order,
 * waiting to be replayed against the caches.  Single writer (the
 * thread running the task); replayed, once the task has finished, by
 * whichever thread holds the region's replayer role.
 */
struct TraceShard
{
    enum OpKind : uint32_t
    {
        kOpLoad = 0,
        kOpStore,
        kOpLoadRow,
        kOpStoreRow,
        kOpPrefetch,
        kOpTick,
    };

    /** One recorded access; 16 bytes.  Tick stores cycles in addr. */
    struct Op
    {
        uint64_t addr;
        uint32_t bytes;
        uint32_t elemsKind; //!< (elems << 3) | OpKind.
    };

    std::vector<Op> ops;

    /**
     * Record a row op.  Its byte and element counts must fit the
     * 16-byte encoding, or the replay would count a different row
     * than the direct path does.
     */
    void recordRow(uint64_t addr, uint64_t bytes, uint64_t elems,
                   OpKind kind)
    {
        M4PS_ASSERT(bytes <= UINT32_MAX && elems < (uint64_t{1} << 29),
                    "row op too large to record: ", bytes, " bytes, ",
                    elems, " elements");
        ops.push_back({addr, static_cast<uint32_t>(bytes),
                       static_cast<uint32_t>(elems << 3) | kind});
    }

    /**
     * Replay the recorded accesses, in recording order, against
     * @p mh's caches and counters.
     */
    void replayInto(MemoryHierarchy &mh) const;
};

namespace
{

/** Recording target of the current thread (null = simulate now). */
thread_local TraceShard *tlsShard = nullptr;

/** Binds a shard to the current thread for one task, throw or not. */
class RecordInto
{
  public:
    explicit RecordInto(TraceShard &shard) { tlsShard = &shard; }
    ~RecordInto() { tlsShard = nullptr; }

    RecordInto(const RecordInto &) = delete;
    RecordInto &operator=(const RecordInto &) = delete;
};

} // namespace

MemoryHierarchy::MemoryHierarchy(const CacheConfig &l1,
                                 const CacheConfig &l2,
                                 const CostModel &cost)
    : l1_(l1), l2_(l2), cost_(cost),
      l1LineMask_(~static_cast<uint64_t>(l1.lineBytes - 1))
{
    M4PS_ASSERT(l2.lineBytes >= l1.lineBytes,
                "L2 line must not be smaller than L1 line");
}

void
MemoryHierarchy::writebackToL2(uint64_t addr)
{
    ++ctrs_.l1Writebacks;
    // Writebacks retire through write buffers: no stall, and a
    // writeback that misses L2 is not a demand miss.  Its own dirty
    // victim still produces DRAM traffic.
    AccessResult wb = l2_.access(addr, true);
    if (!wb.hit && wb.evictedDirty)
        ++ctrs_.l2Writebacks;
}

inline void
MemoryHierarchy::touchLine(uint64_t addr, bool is_write)
{
    if (!l1_.hitMru(addr, is_write))
        touchLineSlow(addr, is_write);
}

void
MemoryHierarchy::touchLineSlow(uint64_t addr, bool is_write)
{
    AccessResult r1 = l1_.access(addr, is_write);
    if (r1.hit)
        return;

    ++ctrs_.l1Misses;
    ctrs_.stallL2Cycles += cost_.l2HitLatency * cost_.l2Exposure;

    AccessResult r2 = l2_.access(addr, false);
    if (!r2.hit) {
        ++ctrs_.l2Misses;
        ctrs_.stallDramCycles += cost_.dramLatency * cost_.dramExposure;
        if (r2.evictedDirty)
            ++ctrs_.l2Writebacks;
    }

    if (r1.evictedDirty)
        writebackToL2(r1.evictedAddr);
}

void
MemoryHierarchy::loadNow(uint64_t addr, int bytes)
{
    ++ctrs_.gradLoads;
    ctrs_.computeCycles += cost_.cyclesPerAccess;
    touchLine(addr, false);
    const uint64_t last = addr + bytes - 1;
    if ((last & l1LineMask_) != (addr & l1LineMask_))
        touchLine(last, false);
}

void
MemoryHierarchy::storeNow(uint64_t addr, int bytes)
{
    ++ctrs_.gradStores;
    ctrs_.computeCycles += cost_.cyclesPerAccess;
    touchLine(addr, true);
    const uint64_t last = addr + bytes - 1;
    if ((last & l1LineMask_) != (addr & l1LineMask_))
        touchLine(last, true);
}

void
MemoryHierarchy::loadRowNow(uint64_t addr, uint64_t bytes,
                            uint64_t elems)
{
    if (bytes == 0)
        return;
    ctrs_.gradLoads += elems;
    ctrs_.computeCycles += cost_.cyclesPerAccess * elems;
    const uint64_t line = l1_.config().lineBytes;
    const uint64_t end = addr + bytes;
    for (uint64_t a = addr & l1LineMask_; a < end; a += line)
        touchLine(a, false);
}

void
MemoryHierarchy::storeRowNow(uint64_t addr, uint64_t bytes,
                             uint64_t elems)
{
    if (bytes == 0)
        return;
    ctrs_.gradStores += elems;
    ctrs_.computeCycles += cost_.cyclesPerAccess * elems;
    const uint64_t line = l1_.config().lineBytes;
    const uint64_t end = addr + bytes;
    for (uint64_t a = addr & l1LineMask_; a < end; a += line)
        touchLine(a, true);
}

void
MemoryHierarchy::prefetchNow(uint64_t addr)
{
    ++ctrs_.prefetches;
    // A prefetch instruction still occupies an issue slot.
    ctrs_.computeCycles += 1.0;
    if (l1_.probe(addr)) {
        ++ctrs_.prefetchL1Hits;
        return;
    }
    ++ctrs_.prefetchFills;
    AccessResult r1 = l1_.fill(addr, false);
    AccessResult r2 = l2_.fill(addr, false);
    if (!r2.hit && r2.evictedDirty)
        ++ctrs_.l2Writebacks;
    if (r1.evictedDirty)
        writebackToL2(r1.evictedAddr);
}

void
MemoryHierarchy::load(uint64_t addr, int bytes)
{
    if (TraceShard *s = tlsShard) {
        s->ops.push_back({addr, static_cast<uint32_t>(bytes),
                          (1u << 3) | TraceShard::kOpLoad});
        return;
    }
    loadNow(addr, bytes);
}

void
MemoryHierarchy::store(uint64_t addr, int bytes)
{
    if (TraceShard *s = tlsShard) {
        s->ops.push_back({addr, static_cast<uint32_t>(bytes),
                          (1u << 3) | TraceShard::kOpStore});
        return;
    }
    storeNow(addr, bytes);
}

void
MemoryHierarchy::loadRow(uint64_t addr, uint64_t bytes, uint64_t elems)
{
    if (TraceShard *s = tlsShard) {
        s->recordRow(addr, bytes, elems, TraceShard::kOpLoadRow);
        return;
    }
    loadRowNow(addr, bytes, elems);
}

void
MemoryHierarchy::storeRow(uint64_t addr, uint64_t bytes, uint64_t elems)
{
    if (TraceShard *s = tlsShard) {
        s->recordRow(addr, bytes, elems, TraceShard::kOpStoreRow);
        return;
    }
    storeRowNow(addr, bytes, elems);
}

void
MemoryHierarchy::prefetch(uint64_t addr)
{
    if (TraceShard *s = tlsShard) {
        s->ops.push_back({addr, 0, (1u << 3) | TraceShard::kOpPrefetch});
        return;
    }
    prefetchNow(addr);
}

void
MemoryHierarchy::tick(double cycles)
{
    if (TraceShard *s = tlsShard) {
        s->ops.push_back({std::bit_cast<uint64_t>(cycles), 0,
                          TraceShard::kOpTick});
        return;
    }
    ctrs_.computeCycles += cycles;
}

std::string
MemoryHierarchy::counterArgsJson(const CounterSet &c)
{
    return "{\"gradLoads\":" + std::to_string(c.gradLoads) +
           ",\"gradStores\":" + std::to_string(c.gradStores) +
           ",\"l1Misses\":" + std::to_string(c.l1Misses) +
           ",\"l2Misses\":" + std::to_string(c.l2Misses) +
           ",\"l1Writebacks\":" + std::to_string(c.l1Writebacks) +
           ",\"l2Writebacks\":" + std::to_string(c.l2Writebacks) +
           ",\"prefetches\":" + std::to_string(c.prefetches) +
           ",\"computeCycles\":" +
           std::to_string(static_cast<uint64_t>(c.computeCycles)) +
           ",\"stallL2Cycles\":" +
           std::to_string(static_cast<uint64_t>(c.stallL2Cycles)) +
           ",\"stallDramCycles\":" +
           std::to_string(static_cast<uint64_t>(c.stallDramCycles)) +
           "}";
}

void
TraceShard::replayInto(MemoryHierarchy &mh) const
{
    obs::Span span("memsim", "memsim.merge");
    if (span.active())
        span.setArgs("{\"ops\":" + std::to_string(ops.size()) + "}");
    const CounterSet before = span.active() ? mh.ctrs_ : CounterSet{};
    for (const Op &op : ops) {
        const uint64_t elems = op.elemsKind >> 3;
        switch (op.elemsKind & 7u) {
          case kOpLoad:
            mh.loadNow(op.addr, static_cast<int>(op.bytes));
            break;
          case kOpStore:
            mh.storeNow(op.addr, static_cast<int>(op.bytes));
            break;
          case kOpLoadRow:
            mh.loadRowNow(op.addr, op.bytes, elems);
            break;
          case kOpStoreRow:
            mh.storeRowNow(op.addr, op.bytes, elems);
            break;
          case kOpPrefetch:
            mh.prefetchNow(op.addr);
            break;
          case kOpTick:
            mh.ctrs_.computeCycles += std::bit_cast<double>(op.addr);
            break;
        }
    }
    if (span.active()) {
        std::string args =
            MemoryHierarchy::counterArgsJson(mh.ctrs_ - before);
        args.back() = ',';
        args += "\"ops\":" + std::to_string(ops.size()) + "}";
        span.setArgs(std::move(args));
    }
}

namespace
{

/**
 * One recording orderedParallelFor() region; run(i) is the pool task
 * for task i.  The pool claims tasks in index order.  Each records
 * into a shard of its own and publishes the shard when it ends.
 * Whichever thread then finds the next unreplayed shard finished
 * takes the single replayer role and replays every consecutive
 * finished shard, freeing each as it goes, so the replay streams in
 * index order while later tasks are still running.
 *
 * The single replayer is the region's bottleneck, so a task claimed
 * a window or more past the replay helps the replay until it is
 * inside the window: shards recorded further ahead would finish no
 * sooner and only hold memory.
 */
class OrderedRegion
{
  public:
    OrderedRegion(MemoryHierarchy &mem, int n,
                  const std::function<void(int)> &task, int window)
        : mem_(mem), task_(task), shards_(n), done_(n),
          window_(window), failed_(n)
    {
    }

    /** Wait for the window, then record, publish and replay task i. */
    void run(int i)
    {
        while (i - replayed_.load() >= window_) {
            // Only a failure below i lets it skip: the replay stops
            // there, so task i would never be replayed.
            if (failed_.load() < i)
                return;
            replayFinished();
            std::this_thread::yield();
        }
        // Record on this thread's stack: the vector headers in
        // shards_ sit next to the ones other threads publish to.
        TraceShard shard;
        try {
            const RecordInto recording(shard);
            task_(i);
        } catch (...) {
            int f = failed_.load();
            while (i < f && !failed_.compare_exchange_weak(f, i)) {
            }
            throw;
        }
        shards_[i] = std::move(shard);
        done_[i].store(true);
        replayFinished();
    }

    /** After a region in which no task threw: all were replayed. */
    void finish() const
    {
        M4PS_ASSERT(replayed_.load() == static_cast<int>(shards_.size()),
                    "finished shards were left unreplayed");
    }

  private:
    /** True when the next shard to replay has finished recording. */
    bool headFinished() const
    {
        const int r = replayed_.load();
        return r < static_cast<int>(shards_.size()) && done_[r].load();
    }

    /**
     * Replay finished shards in index order, if no other thread is.
     * The role holder re-checks the head after letting go: a shard
     * published while it held the role, by a thread that therefore
     * backed off, is never stranded.  (Sequentially consistent
     * accesses make the publisher's store and the holder's re-check
     * see each other.)
     */
    void replayFinished()
    {
        while (headFinished() && !replaying_.exchange(true)) {
            int r = replayed_.load();
            while (r < static_cast<int>(shards_.size()) &&
                   done_[r].load()) {
                shards_[r].replayInto(mem_);
                shards_[r] = {};
                replayed_.store(++r);
            }
            replaying_.store(false);
        }
    }

    MemoryHierarchy &mem_;
    const std::function<void(int)> &task_;
    std::vector<TraceShard> shards_;
    std::vector<std::atomic<bool>> done_; //!< Shard published, per task.
    const int window_;                 //!< Most tasks recorded past replay.
    std::atomic<int> failed_;          //!< Lowest task that threw, or n.
    std::atomic<int> replayed_{0};     //!< Shards replayed so far.
    std::atomic<bool> replaying_{false}; //!< The replayer role is held.
};

} // namespace

void
orderedParallelFor(MemoryHierarchy *mem, int n,
                   const std::function<void(int)> &task)
{
    support::ThreadPool &pool = support::ThreadPool::global();
    if (!mem || pool.threads() <= 1 || n <= 1) {
        pool.parallelFor(n, task);
        return;
    }
    M4PS_ASSERT(tlsShard == nullptr,
                "orderedParallelFor() called from a recording task");
    OrderedRegion region(*mem, n, task, 2 * std::min(n, pool.threads()));
    pool.parallelFor(n, [&region](int i) { region.run(i); });
    region.finish();
}

} // namespace m4ps::memsim
