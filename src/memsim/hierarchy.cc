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

/**
 * The L1 lines an element access of @p bytes at @p addr touches: its
 * first byte's, and its last byte's if that differs.  @p lineMask
 * clears the offset within a line.
 */
template <typename Touch>
inline void
forElementLines(uint64_t addr, int bytes, uint64_t lineMask, Touch touch)
{
    const uint64_t first = addr & lineMask;
    const uint64_t last = (addr + bytes - 1) & lineMask;
    touch(first);
    if (last != first)
        touch(last);
}

/** Every L1 line of the row [@p addr, @p addr + @p bytes). */
template <typename Touch>
inline void
forRowLines(uint64_t addr, uint64_t bytes, uint64_t lineMask, Touch touch)
{
    const uint64_t end = addr + bytes;
    const uint64_t lineBytes = ~lineMask + 1;
    for (uint64_t a = addr & lineMask; a < end; a += lineBytes)
        touch(a);
}

} // namespace

/**
 * The accesses one orderedParallelFor() task made, split at record
 * time into one in-order stream of counter increments and one stream
 * of L1 line touches per partition group.  Single writer (the thread
 * running the task); once the task has finished, each stream is
 * replayed by whichever thread holds that stream's lane.
 */
struct TraceShard
{
    enum Kind : uint32_t
    {
        kLoad = 0,
        kStore,
        kPrefetch,
        kTick,
    };

    /**
     * Which stream a line goes to.  A group is a contiguous block of
     * partitions: address bits [groupShift, groupShift + log2 G) name
     * it.
     */
    struct Split
    {
        uint64_t lineMask = 0; //!< Clears the offset within an L1 line.
        int groupShift = 0;
        uint64_t groupMask = 0; //!< Groups - 1.

        int groups() const { return static_cast<int>(groupMask) + 1; }
    };

    std::vector<uint32_t> ops; //!< (elems << 3) | Kind; elems < 2^29.
    std::vector<double> ticks; //!< tick() cycles, in op order.
    /**
     * Line touches per group, in op order: the line's address, whose
     * low two bits (L1 lines are at least 4 bytes) hold its Kind.
     */
    std::vector<std::vector<uint64_t>> groups;
    Split split;
    std::atomic<int> lanesLeft{0}; //!< Lanes yet to replay it.

    /** Empty streams for @p s, keeping every stream's capacity. */
    void reset(const Split &s)
    {
        split = s;
        ops.clear();
        ticks.clear();
        groups.resize(s.groups());
        for (std::vector<uint64_t> &g : groups)
            g.clear();
    }

    void recordElement(uint64_t addr, int bytes, Kind kind)
    {
        ops.push_back((1u << 3) | kind);
        forElementLines(addr, bytes, split.lineMask,
                        [&](uint64_t line) { touch(line, kind); });
    }

    /**
     * Record a row op.  Its byte and element counts must fit what the
     * direct path can count the same way, or the replay would count a
     * different row.
     */
    void recordRow(uint64_t addr, uint64_t bytes, uint64_t elems,
                   Kind kind)
    {
        M4PS_ASSERT(bytes <= UINT32_MAX && elems < (uint64_t{1} << 29),
                    "row op too large to record: ", bytes, " bytes, ",
                    elems, " elements");
        if (bytes == 0)
            return;
        ops.push_back(static_cast<uint32_t>(elems << 3) | kind);
        forRowLines(addr, bytes, split.lineMask,
                    [&](uint64_t line) { touch(line, kind); });
    }

    void recordPrefetch(uint64_t addr)
    {
        ops.push_back((1u << 3) | kPrefetch);
        touch(addr & split.lineMask, kPrefetch);
    }

    void recordTick(double cycles)
    {
        ops.push_back(kTick);
        ticks.push_back(cycles);
    }

    /** Lane 0: the in-order counters, in op order, into @p c. */
    void replayInOrder(double cyclesPerAccess, CounterSet &c) const;

    /** Lane 1 + @p group: that group's line touches, into @p c. */
    void replayLines(MemoryHierarchy &mh, int group, CounterSet &c) const;

  private:
    void touch(uint64_t line, Kind kind)
    {
        groups[(line >> split.groupShift) & split.groupMask].push_back(
            line | kind);
    }
};

MemoryHierarchy::MemoryHierarchy(const CacheConfig &l1,
                                 const CacheConfig &l2,
                                 const CostModel &cost)
    : l1_(l1), l2_(l2), cost_(cost),
      l2Stall_(cost.l2HitLatency * cost.l2Exposure),
      dramStall_(cost.dramLatency * cost.dramExposure),
      l1LineMask_(~static_cast<uint64_t>(l1.lineBytes - 1))
{
    M4PS_ASSERT(l2.lineBytes >= l1.lineBytes,
                "L2 line must not be smaller than L1 line");
    // A recorded line touch keeps its kind in the two low bits.
    M4PS_ASSERT(l1.lineBytes >= 4, "L1 line must be at least 4 bytes");
    const int l1LineShift =
        std::countr_zero(static_cast<uint64_t>(l1.lineBytes));
    const int l2LineShift =
        std::countr_zero(static_cast<uint64_t>(l2.lineBytes));
    partitionLo_ = l2LineShift;
    partitionHi_ = std::max(
        partitionLo_,
        std::min(l1LineShift + std::countr_zero(l1.numSets()),
                 l2LineShift + std::countr_zero(l2.numSets())));
}

MemoryHierarchy::~MemoryHierarchy() = default;

double
MemoryHierarchy::RepeatedSum::of(uint64_t n)
{
    M4PS_ASSERT(n >= n_, "a miss count shrank: ", n_, " -> ", n);
    for (; n_ < n; ++n_)
        sum_ += value_;
    return sum_;
}

CounterSet
MemoryHierarchy::counters() const
{
    CounterSet c = ctrs_;
    c.stallL2Cycles = l2Stall_.of(c.l1Misses);
    c.stallDramCycles = dramStall_.of(c.l2Misses);
    return c;
}

void
MemoryHierarchy::writebackToL2(uint64_t addr, CounterSet &c)
{
    ++c.l1Writebacks;
    // Writebacks retire through write buffers: no stall, and a
    // writeback that misses L2 is not a demand miss.  Its own dirty
    // victim still produces DRAM traffic.
    AccessResult wb = l2_.access(addr, true);
    if (!wb.hit && wb.evictedDirty)
        ++c.l2Writebacks;
}

inline void
MemoryHierarchy::touchLine(uint64_t addr, bool is_write, CounterSet &c)
{
    if (!l1_.hitMru(addr, is_write))
        touchLineSlow(addr, is_write, c);
}

void
MemoryHierarchy::touchLineSlow(uint64_t addr, bool is_write,
                               CounterSet &c)
{
    AccessResult r1 = l1_.access(addr, is_write);
    if (r1.hit)
        return;

    // The stall cycles follow from the miss counts (counters()).
    ++c.l1Misses;
    AccessResult r2 = l2_.access(addr, false);
    if (!r2.hit) {
        ++c.l2Misses;
        if (r2.evictedDirty)
            ++c.l2Writebacks;
    }

    if (r1.evictedDirty)
        writebackToL2(r1.evictedAddr, c);
}

void
MemoryHierarchy::prefetchLine(uint64_t addr, CounterSet &c)
{
    if (l1_.probe(addr)) {
        ++c.prefetchL1Hits;
        return;
    }
    ++c.prefetchFills;
    AccessResult r1 = l1_.fill(addr, false);
    AccessResult r2 = l2_.fill(addr, false);
    if (!r2.hit && r2.evictedDirty)
        ++c.l2Writebacks;
    if (r1.evictedDirty)
        writebackToL2(r1.evictedAddr, c);
}

void
MemoryHierarchy::load(uint64_t addr, int bytes)
{
    M4PS_ASSERT(bytes >= 1, "element access of less than one byte: ",
                bytes, " bytes at ", addr);
    if (TraceShard *s = tlsShard) {
        s->recordElement(addr, bytes, TraceShard::kLoad);
        return;
    }
    ++ctrs_.gradLoads;
    ctrs_.computeCycles += cost_.cyclesPerAccess;
    forElementLines(addr, bytes, l1LineMask_,
                    [this](uint64_t line) { touchLine(line, false, ctrs_); });
}

void
MemoryHierarchy::store(uint64_t addr, int bytes)
{
    M4PS_ASSERT(bytes >= 1, "element access of less than one byte: ",
                bytes, " bytes at ", addr);
    if (TraceShard *s = tlsShard) {
        s->recordElement(addr, bytes, TraceShard::kStore);
        return;
    }
    ++ctrs_.gradStores;
    ctrs_.computeCycles += cost_.cyclesPerAccess;
    forElementLines(addr, bytes, l1LineMask_,
                    [this](uint64_t line) { touchLine(line, true, ctrs_); });
}

void
MemoryHierarchy::loadRow(uint64_t addr, uint64_t bytes, uint64_t elems)
{
    if (TraceShard *s = tlsShard) {
        s->recordRow(addr, bytes, elems, TraceShard::kLoad);
        return;
    }
    if (bytes == 0)
        return;
    ctrs_.gradLoads += elems;
    ctrs_.computeCycles += cost_.cyclesPerAccess * elems;
    forRowLines(addr, bytes, l1LineMask_,
                [this](uint64_t line) { touchLine(line, false, ctrs_); });
}

void
MemoryHierarchy::storeRow(uint64_t addr, uint64_t bytes, uint64_t elems)
{
    if (TraceShard *s = tlsShard) {
        s->recordRow(addr, bytes, elems, TraceShard::kStore);
        return;
    }
    if (bytes == 0)
        return;
    ctrs_.gradStores += elems;
    ctrs_.computeCycles += cost_.cyclesPerAccess * elems;
    forRowLines(addr, bytes, l1LineMask_,
                [this](uint64_t line) { touchLine(line, true, ctrs_); });
}

void
MemoryHierarchy::prefetch(uint64_t addr)
{
    if (TraceShard *s = tlsShard) {
        s->recordPrefetch(addr);
        return;
    }
    ++ctrs_.prefetches;
    // A prefetch instruction still occupies an issue slot.
    ctrs_.computeCycles += 1.0;
    prefetchLine(addr, ctrs_);
}

void
MemoryHierarchy::tick(double cycles)
{
    if (TraceShard *s = tlsShard) {
        s->recordTick(cycles);
        return;
    }
    ctrs_.computeCycles += cycles;
}

std::unique_ptr<TraceShard>
MemoryHierarchy::takeShard()
{
    {
        const std::lock_guard<std::mutex> lock(spareMu_);
        if (!spares_.empty()) {
            std::unique_ptr<TraceShard> shard = std::move(spares_.back());
            spares_.pop_back();
            return shard;
        }
    }
    return std::make_unique<TraceShard>();
}

void
MemoryHierarchy::recycleShard(std::unique_ptr<TraceShard> shard,
                              size_t bound)
{
    const std::lock_guard<std::mutex> lock(spareMu_);
    if (spares_.size() < bound)
        spares_.push_back(std::move(shard));
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
TraceShard::replayInOrder(double cyclesPerAccess, CounterSet &c) const
{
    // Locals keep the sums in registers, and only the rare tick
    // branches.  A prefetch records one element, and a tick none.
    const double cyclesPer[4] = {cyclesPerAccess, cyclesPerAccess, 1.0, 0.0};
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t prefetches = 0;
    double cycles = c.computeCycles;
    const double *tick = ticks.data();
    for (const uint32_t op : ops) {
        const uint32_t kind = op & 3u;
        const uint32_t elems = op >> 3;
        loads += kind == kLoad ? elems : 0;
        stores += kind == kStore ? elems : 0;
        prefetches += kind == kPrefetch;
        double add = cyclesPer[kind] * elems;
        if (kind == kTick)
            add = *tick++;
        cycles += add;
    }
    c.gradLoads += loads;
    c.gradStores += stores;
    c.prefetches += prefetches;
    c.computeCycles = cycles;
}

void
TraceShard::replayLines(MemoryHierarchy &mh, int group,
                        CounterSet &c) const
{
    for (const uint64_t touch : groups[group]) {
        const uint64_t line = touch & ~uint64_t{3};
        if ((touch & 3u) == kPrefetch)
            mh.prefetchLine(line, c);
        else
            mh.touchLine(line, (touch & 3u) == kStore, c);
    }
}

/**
 * One recording orderedParallelFor() region; run(i) is the pool task
 * for task i.  The pool claims tasks in index order.  Each records
 * into a shard of its own, split into G + 1 streams (TraceShard), and
 * publishes the shard when it ends.  Each stream has a lane: a
 * cursor, a replayer role and lane-local counters.  Whichever thread
 * finds a lane's next shard finished takes that lane's role and
 * replays the lane's stream of every consecutive finished shard, so
 * up to G + 1 threads replay at once while later tasks still run.
 * The lane that finishes a shard last hands it back to the hierarchy
 * for reuse.  The lanes' counts land in the hierarchy when the
 * region ends, whether or not a task threw.
 *
 * The replay is the region's bottleneck, so a task claimed a window
 * or more past the slowest lane helps the replay until it is inside
 * the window: shards recorded further ahead would finish no sooner
 * and only hold memory.
 */
class OrderedRegion
{
  public:
    OrderedRegion(MemoryHierarchy &mem, int n,
                  const std::function<void(int)> &task, int threads)
        : mem_(mem), task_(task), split_(splitFor(mem, threads)),
          window_(2 * std::min(n, threads)), shards_(n), done_(n),
          lanes_(split_.groups() + 1), failed_(n)
    {
        // Lane 0 adds onto the hierarchy's in-order counters, so its
        // cycle sum rounds as the direct path's would; the line lanes
        // count misses from zero.
        lanes_[0].ctrs = mem.ctrs_;
        // Recycling a shard then never allocates.
        const std::lock_guard<std::mutex> lock(mem.spareMu_);
        mem.spares_.reserve(spareBound());
    }

    /** Shards published past a failed task are dropped here. */
    ~OrderedRegion()
    {
        // The line lanes' cycle fields are zero, so adding them is
        // exact.
        CounterSet total = lanes_[0].ctrs;
        for (size_t j = 1; j < lanes_.size(); ++j)
            total += lanes_[j].ctrs;
        mem_.ctrs_ = total;
    }

    OrderedRegion(const OrderedRegion &) = delete;
    OrderedRegion &operator=(const OrderedRegion &) = delete;

    /** Wait for the window, then record, publish and replay task i. */
    void run(int i)
    {
        while (i - slowestLane() >= window_) {
            // Only a failure below i lets it skip: the replay stops
            // there, so task i would never be replayed.
            if (failed_.load() < i)
                return;
            replayFinished(i);
            std::this_thread::yield();
        }
        std::unique_ptr<TraceShard> shard;
        try {
            shard = mem_.takeShard();
            shard->reset(split_);
            const RecordInto recording(*shard);
            task_(i);
        } catch (...) {
            int f = failed_.load();
            while (i < f && !failed_.compare_exchange_weak(f, i)) {
            }
            throw;
        }
        shard->lanesLeft.store(static_cast<int>(lanes_.size()));
        shards_[i] = std::move(shard);
        done_[i].store(true);
        replayFinished(i);
    }

    /** After a region in which no task threw: all were replayed. */
    void finish() const
    {
        M4PS_ASSERT(slowestLane() == static_cast<int>(shards_.size()),
                    "finished shards were left unreplayed");
    }

  private:
    /** A stream's replayer: cursor, role and counts. */
    struct alignas(64) Lane
    {
        std::atomic<int> replayed{0};      //!< Shards replayed so far.
        std::atomic<bool> replaying{false}; //!< The role is held.
        CounterSet ctrs;
    };

    /**
     * G groups: the largest power of two no larger than @p threads or
     * the partition count, each a contiguous block of partitions.
     */
    static TraceShard::Split splitFor(const MemoryHierarchy &mem,
                                      int threads)
    {
        const int bits = mem.partitionHi_ - mem.partitionLo_;
        int log2Groups = 0;
        while (log2Groups < bits && (2 << log2Groups) <= threads)
            ++log2Groups;
        TraceShard::Split s;
        s.lineMask = mem.l1LineMask_;
        s.groupShift = mem.partitionHi_ - log2Groups;
        s.groupMask = (uint64_t{1} << log2Groups) - 1;
        return s;
    }

    /** Spare shards kept: as many as the window holds, and one more. */
    size_t spareBound() const { return static_cast<size_t>(window_) + 1; }

    int slowestLane() const
    {
        int r = static_cast<int>(shards_.size());
        for (const Lane &lane : lanes_)
            r = std::min(r, lane.replayed.load());
        return r;
    }

    /** Offer every lane a replay, starting at a task-dependent one. */
    void replayFinished(int i)
    {
        const int nLanes = static_cast<int>(lanes_.size());
        for (int k = 0; k < nLanes; ++k)
            replayLane((i + k) % nLanes);
    }

    /** True when @p lane's next shard has finished recording. */
    bool headFinished(const Lane &lane) const
    {
        const int r = lane.replayed.load();
        return r < static_cast<int>(shards_.size()) && done_[r].load();
    }

    /**
     * Replay lane @p j's stream of finished shards in index order, if
     * no other thread holds the lane.  The role holder re-checks the
     * head after letting go: a shard published while it held the
     * role, by a thread that therefore backed off, is never stranded.
     * (Sequentially consistent accesses make the publisher's store
     * and the holder's re-check see each other.)
     */
    void replayLane(int j)
    {
        Lane &lane = lanes_[j];
        while (headFinished(lane) && !lane.replaying.exchange(true)) {
            int r = lane.replayed.load();
            while (r < static_cast<int>(shards_.size()) &&
                   done_[r].load()) {
                replay(*shards_[r], j, lane.ctrs);
                if (shards_[r]->lanesLeft.fetch_sub(1) == 1)
                    mem_.recycleShard(std::move(shards_[r]), spareBound());
                lane.replayed.store(++r);
            }
            lane.replaying.store(false);
        }
    }

    /** Lane @p j's stream of @p shard, in one memsim.merge span. */
    void replay(const TraceShard &shard, int j, CounterSet &c)
    {
        obs::Span span("memsim", "memsim.merge");
        const CounterSet before = span.active() ? c : CounterSet{};
        if (j == 0)
            shard.replayInOrder(mem_.cost_.cyclesPerAccess, c);
        else
            shard.replayLines(mem_, j - 1, c);
        if (span.active()) {
            const size_t ops =
                j == 0 ? shard.ops.size() : shard.groups[j - 1].size();
            std::string args = MemoryHierarchy::counterArgsJson(c - before);
            args.back() = ',';
            args += "\"lane\":" + std::to_string(j) +
                    ",\"ops\":" + std::to_string(ops) + "}";
            span.setArgs(std::move(args));
        }
    }

    MemoryHierarchy &mem_;
    const std::function<void(int)> &task_;
    const TraceShard::Split split_;
    const int window_;                 //!< Most tasks recorded past replay.
    std::vector<std::unique_ptr<TraceShard>> shards_; //!< Until recycled.
    std::vector<std::atomic<bool>> done_; //!< Shard published, per task.
    std::vector<Lane> lanes_;          //!< In-order lane, then one per group.
    std::atomic<int> failed_;          //!< Lowest task that threw, or n.
};

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
    OrderedRegion region(*mem, n, task, pool.threads());
    pool.parallelFor(n, [&region](int i) { region.run(i); });
    region.finish();
}

} // namespace m4ps::memsim
