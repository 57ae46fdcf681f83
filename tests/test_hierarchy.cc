/**
 * @file
 * Tests for the two-level hierarchy: counter semantics, row
 * coalescing, writeback propagation, prefetch modelling, regions,
 * and the ordered replay behind orderedParallelFor().
 */

#include <algorithm>
#include <bit>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "memsim/hierarchy.hh"
#include "support/random.hh"
#include "support/threadpool.hh"

namespace m4ps::memsim
{
namespace
{

CacheConfig kL1{1024, 2, 32};          // 16 sets
CacheConfig kL2{16 * 1024, 2, 128};    // 64 sets

CostModel
unitCost()
{
    CostModel c;
    c.clockMhz = 100.0;
    c.cyclesPerAccess = 1.0;
    c.l2HitLatency = 10.0;
    c.dramLatency = 100.0;
    c.l2Exposure = 1.0;
    c.dramExposure = 1.0;
    return c;
}

TEST(Hierarchy, ColdLoadMissesBothLevels)
{
    MemoryHierarchy mh(kL1, kL2, unitCost());
    mh.load(0x1000, 1);
    const CounterSet &c = mh.counters();
    EXPECT_EQ(c.gradLoads, 1u);
    EXPECT_EQ(c.l1Misses, 1u);
    EXPECT_EQ(c.l2Misses, 1u);
    EXPECT_DOUBLE_EQ(c.stallL2Cycles, 10.0);
    EXPECT_DOUBLE_EQ(c.stallDramCycles, 100.0);
    EXPECT_DOUBLE_EQ(c.computeCycles, 1.0);
}

TEST(Hierarchy, SecondLoadHitsL1)
{
    MemoryHierarchy mh(kL1, kL2, unitCost());
    mh.load(0x1000, 1);
    mh.load(0x1004, 4);
    const CounterSet &c = mh.counters();
    EXPECT_EQ(c.gradLoads, 2u);
    EXPECT_EQ(c.l1Misses, 1u);
    EXPECT_EQ(c.l2Misses, 1u);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    MemoryHierarchy mh(kL1, kL2, unitCost());
    // L1 set: 16 sets * 32B; addresses 0, 512, 1024 share L1 set 0.
    // L2: 64 sets * 128B; 0, 8192, ... share L2 set 0.
    mh.load(0, 1);
    mh.load(512, 1);
    mh.load(1024, 1); // evicts line 0 from L1; L2 keeps all three
    mh.load(0, 1);    // L1 miss, L2 hit
    const CounterSet &c = mh.counters();
    EXPECT_EQ(c.l1Misses, 4u);
    EXPECT_EQ(c.l2Misses, 3u);
}

TEST(Hierarchy, LineCrossingLoadTouchesBothLines)
{
    MemoryHierarchy mh(kL1, kL2, unitCost());
    mh.load(31, 2); // crosses 32B boundary
    EXPECT_EQ(mh.counters().gradLoads, 1u);
    EXPECT_EQ(mh.counters().l1Misses, 2u);
}

TEST(Hierarchy, RowLoadCoalescesLineProbes)
{
    MemoryHierarchy mh(kL1, kL2, unitCost());
    mh.loadRow(0, 256, 256); // 256 byte-elements over 8 lines
    const CounterSet &c = mh.counters();
    EXPECT_EQ(c.gradLoads, 256u);
    EXPECT_EQ(c.l1Misses, 8u);
    EXPECT_DOUBLE_EQ(c.computeCycles, 256.0);
}

TEST(Hierarchy, RowLoadUnalignedCoversPartialLines)
{
    MemoryHierarchy mh(kL1, kL2, unitCost());
    mh.loadRow(30, 4, 4); // bytes 30..33: two lines
    EXPECT_EQ(mh.counters().l1Misses, 2u);
}

TEST(Hierarchy, EmptyRowIsFree)
{
    MemoryHierarchy mh(kL1, kL2, unitCost());
    mh.loadRow(0, 0, 0);
    mh.storeRow(0, 0, 0);
    EXPECT_EQ(mh.counters().accesses(), 0u);
}

TEST(Hierarchy, DirtyL1EvictionWritesBackToL2)
{
    MemoryHierarchy mh(kL1, kL2, unitCost());
    mh.store(0, 1);    // dirty line 0
    mh.load(512, 1);
    mh.load(1024, 1);  // evicts dirty line 0
    const CounterSet &c = mh.counters();
    EXPECT_EQ(c.l1Writebacks, 1u);
    EXPECT_EQ(c.gradStores, 1u);
}

TEST(Hierarchy, DirtyL2EvictionCountsDramWriteback)
{
    MemoryHierarchy mh(kL1, kL2, unitCost());
    // Dirty a line, then stream enough distinct L2 sets to evict it.
    mh.store(0, 1);
    // L2 is 16KB, 2-way, 128B lines, 64 sets; lines at stride 8192
    // land in set 0.
    mh.load(8192, 1);
    mh.load(16384, 1); // evicts L2 line 0 (dirty via L1 writeback? no:
                       // dirty bit lives in L1 until evicted)
    // Force the L1 writeback first so L2 holds the dirty data:
    MemoryHierarchy mh2(kL1, kL2, unitCost());
    mh2.store(0, 1);
    mh2.load(512, 1);
    mh2.load(1024, 1);       // L1 evicts dirty 0 -> L2 line 0 dirty
    EXPECT_EQ(mh2.counters().l1Writebacks, 1u);
    mh2.load(8192, 1);
    mh2.load(16384, 1);      // L2 set 0 full: evicts dirty line 0
    EXPECT_EQ(mh2.counters().l2Writebacks, 1u);
}

TEST(Hierarchy, PrefetchHitIsNop)
{
    MemoryHierarchy mh(kL1, kL2, unitCost());
    mh.load(0x2000, 1);
    mh.prefetch(0x2000);
    const CounterSet &c = mh.counters();
    EXPECT_EQ(c.prefetches, 1u);
    EXPECT_EQ(c.prefetchL1Hits, 1u);
    EXPECT_EQ(c.prefetchFills, 0u);
}

TEST(Hierarchy, PrefetchMissFillsWithoutDemandCounters)
{
    MemoryHierarchy mh(kL1, kL2, unitCost());
    mh.prefetch(0x3000);
    const CounterSet &c = mh.counters();
    EXPECT_EQ(c.prefetches, 1u);
    EXPECT_EQ(c.prefetchL1Hits, 0u);
    EXPECT_EQ(c.prefetchFills, 1u);
    EXPECT_EQ(c.l1Misses, 0u);
    EXPECT_EQ(c.l2Misses, 0u);
    EXPECT_DOUBLE_EQ(c.stallDramCycles, 0.0);
    // The prefetched line now hits on demand.
    mh.load(0x3000, 1);
    EXPECT_EQ(mh.counters().l1Misses, 0u);
}

TEST(Hierarchy, TickAccumulatesComputeCycles)
{
    MemoryHierarchy mh(kL1, kL2, unitCost());
    mh.tick(123.5);
    EXPECT_DOUBLE_EQ(mh.counters().computeCycles, 123.5);
    EXPECT_DOUBLE_EQ(mh.counters().totalCycles(), 123.5);
}

TEST(Hierarchy, ElapsedSecondsUsesClock)
{
    MemoryHierarchy mh(kL1, kL2, unitCost()); // 100 MHz
    mh.tick(1e8);
    EXPECT_NEAR(mh.elapsedSeconds(), 1.0, 1e-9);
}

TEST(Hierarchy, ExposureScalesStalls)
{
    CostModel cm = unitCost();
    cm.l2Exposure = 0.5;
    cm.dramExposure = 0.25;
    MemoryHierarchy mh(kL1, kL2, cm);
    mh.load(0, 1);
    EXPECT_DOUBLE_EQ(mh.counters().stallL2Cycles, 5.0);
    EXPECT_DOUBLE_EQ(mh.counters().stallDramCycles, 25.0);
}

/** @p n copies of @p value added one at a time, left to right. */
double
addedPerMiss(double value, uint64_t n)
{
    double sum = 0;
    for (uint64_t i = 0; i < n; ++i)
        sum += value;
    return sum;
}

TEST(Hierarchy, StallCyclesAreTheRepeatedSumOfTheirConstant)
{
    CostModel cm = unitCost();
    cm.l2HitLatency = 12.0;
    cm.l2Exposure = 0.35; // 12 x 0.35 is not exact in binary
    cm.dramLatency = 90.0;
    cm.dramExposure = 0.65;
    const double l2Stall = cm.l2HitLatency * cm.l2Exposure;
    const double dramStall = cm.dramLatency * cm.dramExposure;
    MemoryHierarchy mh(kL1, kL2, cm);

    Rng rng(25);
    for (int i = 0; i < 400; ++i)
        mh.load(rng.next() % 65536, 1 + static_cast<int>(rng.next() % 4));
    const CounterSet mid = mh.counters();
    ASSERT_GT(mid.l2Misses, 100u);
    // A product would round differently, so the comparison below can
    // tell a repeated sum from n times the constant.
    ASSERT_NE(addedPerMiss(l2Stall, mid.l1Misses),
              l2Stall * static_cast<double>(mid.l1Misses));
    EXPECT_EQ(mid.stallL2Cycles, addedPerMiss(l2Stall, mid.l1Misses));
    EXPECT_EQ(mid.stallDramCycles, addedPerMiss(dramStall, mid.l2Misses));
    EXPECT_TRUE(mh.counters() == mid);

    {
        MemoryHierarchy::ScopedRegion region(mh, "stores");
        for (int i = 0; i < 400; ++i)
            mh.store(rng.next() % 65536, 2);
    }
    const CounterSet end = mh.counters();
    ASSERT_GT(end.l1Misses, mid.l1Misses);
    EXPECT_EQ(end.stallL2Cycles, addedPerMiss(l2Stall, end.l1Misses));
    EXPECT_EQ(end.stallDramCycles, addedPerMiss(dramStall, end.l2Misses));

    // The region's delta is what a per-miss accumulator read before
    // and after it would give.
    const CounterSet delta = mh.profiler().get("stores");
    EXPECT_EQ(delta.stallL2Cycles, addedPerMiss(l2Stall, end.l1Misses) -
                                       addedPerMiss(l2Stall, mid.l1Misses));
    EXPECT_EQ(delta.stallDramCycles,
              addedPerMiss(dramStall, end.l2Misses) -
                  addedPerMiss(dramStall, mid.l2Misses));
}

TEST(Hierarchy, ScopedRegionCapturesDelta)
{
    MemoryHierarchy mh(kL1, kL2, unitCost());
    mh.load(0, 1);
    {
        MemoryHierarchy::ScopedRegion r(mh, "inner");
        mh.load(4096, 1);
        mh.load(4100, 1);
    }
    mh.load(8192, 1);
    const CounterSet inner = mh.profiler().get("inner");
    EXPECT_EQ(inner.gradLoads, 2u);
    EXPECT_EQ(inner.l1Misses, 1u);
    EXPECT_EQ(mh.counters().gradLoads, 4u);
}

TEST(Hierarchy, NestedRegionsAccumulateIndependently)
{
    MemoryHierarchy mh(kL1, kL2, unitCost());
    for (int i = 0; i < 3; ++i) {
        MemoryHierarchy::ScopedRegion r(mh, "outer");
        mh.load(static_cast<uint64_t>(i) * 4096, 1);
        MemoryHierarchy::ScopedRegion r2(mh, "inner");
        mh.load(static_cast<uint64_t>(i) * 4096 + 64, 1);
    }
    EXPECT_EQ(mh.profiler().get("outer").gradLoads, 6u);
    EXPECT_EQ(mh.profiler().get("inner").gradLoads, 3u);
    EXPECT_TRUE(mh.profiler().has("outer"));
    EXPECT_FALSE(mh.profiler().has("absent"));
}

TEST(CounterSet, ArithmeticOperators)
{
    CounterSet a;
    a.gradLoads = 10;
    a.l1Misses = 2;
    a.computeCycles = 5.0;
    CounterSet b;
    b.gradLoads = 3;
    b.l1Misses = 1;
    b.computeCycles = 1.5;
    CounterSet d = a - b;
    EXPECT_EQ(d.gradLoads, 7u);
    EXPECT_EQ(d.l1Misses, 1u);
    EXPECT_DOUBLE_EQ(d.computeCycles, 3.5);
    d += b;
    EXPECT_EQ(d.gradLoads, 10u);
    EXPECT_FALSE(a.str().empty());
}

// ---------------------------------------------------------------------
// orderedParallelFor(): counters as if the tasks ran in index order.
// ---------------------------------------------------------------------

/** Resizes the global pool for one test, then restores it. */
class GlobalThreads
{
  public:
    explicit GlobalThreads(int threads)
        : saved_(support::ThreadPool::global().threads())
    {
        support::ThreadPool::setGlobalThreads(threads);
    }

    ~GlobalThreads() { support::ThreadPool::setGlobalThreads(saved_); }

    GlobalThreads(const GlobalThreads &) = delete;
    GlobalThreads &operator=(const GlobalThreads &) = delete;

  private:
    int saved_;
};

constexpr int kTasks = 12;

/**
 * Task @p task's seeded mix of every access kind.  Addresses stay in
 * 8 KB, eight times the L1, so tasks evict each other's lines and
 * the counters depend on the order the tasks ran in.
 */
void
runAccessMix(MemoryHierarchy &mh, int task)
{
    Rng rng(1000 + static_cast<uint64_t>(task));
    for (int op = 0; op < 300; ++op) {
        const uint64_t addr = rng.next() % 8192;
        switch (rng.next() % 6) {
          case 0:
            mh.load(addr, 1 + static_cast<int>(rng.next() % 8));
            break;
          case 1:
            mh.store(addr, 1 + static_cast<int>(rng.next() % 8));
            break;
          case 2: {
            const uint64_t elems = 1 + rng.next() % 64;
            mh.loadRow(addr, elems * 2, elems);
            break;
          }
          case 3: {
            const uint64_t elems = 1 + rng.next() % 64;
            mh.storeRow(addr, elems, elems);
            break;
          }
          case 4:
            mh.prefetch(addr);
            break;
          default:
            mh.tick(rng.uniformReal(0.0, 50.0));
            break;
        }
    }
}

/** The tasks run one after another on this thread, in @p order. */
CounterSet
sequentialCounters(const std::vector<int> &order)
{
    MemoryHierarchy mh(kL1, kL2, unitCost());
    for (const int task : order)
        runAccessMix(mh, task);
    return mh.counters();
}

std::vector<int>
indexOrder()
{
    std::vector<int> order(kTasks);
    for (int i = 0; i < kTasks; ++i)
        order[i] = i;
    return order;
}

TEST(OrderedParallelFor, CountersEqualASequentialRunInIndexOrder)
{
    const CounterSet expected = sequentialCounters(indexOrder());
    // The mix is order-sensitive, so a replay in any other order
    // would be caught.
    std::vector<int> reversed = indexOrder();
    std::reverse(reversed.begin(), reversed.end());
    ASSERT_FALSE(sequentialCounters(reversed) == expected);

    for (const int threads : {1, 4}) {
        const GlobalThreads pool(threads);
        MemoryHierarchy mh(kL1, kL2, unitCost());
        orderedParallelFor(&mh, kTasks,
                           [&](int i) { runAccessMix(mh, i); });
        EXPECT_TRUE(mh.counters() == expected)
            << threads << " threads:\n"
            << mh.counters().str() << "\nexpected:\n"
            << expected.str();
    }
}

TEST(OrderedParallelFor, ScopedRegionSeesTheReplayedAccesses)
{
    MemoryHierarchy seq(kL1, kL2, unitCost());
    seq.load(0x100, 4);
    {
        MemoryHierarchy::ScopedRegion region(seq, "tasks");
        for (int i = 0; i < kTasks; ++i)
            runAccessMix(seq, i);
    }

    for (const int threads : {1, 4}) {
        const GlobalThreads pool(threads);
        MemoryHierarchy mh(kL1, kL2, unitCost());
        mh.load(0x100, 4);
        {
            MemoryHierarchy::ScopedRegion region(mh, "tasks");
            orderedParallelFor(&mh, kTasks,
                               [&](int i) { runAccessMix(mh, i); });
        }
        EXPECT_TRUE(mh.profiler().get("tasks") ==
                    seq.profiler().get("tasks"))
            << threads << " threads";
        EXPECT_TRUE(mh.counters() == seq.counters())
            << threads << " threads";
    }
}

TEST(OrderedParallelFor, LaterTasksFinishingFirstStillReplayInIndexOrder)
{
    constexpr int kMany = 48;
    std::vector<int> order(kMany);
    for (int i = 0; i < kMany; ++i)
        order[i] = i;
    const CounterSet expected = sequentialCounters(order);

    const GlobalThreads pool(4);
    MemoryHierarchy mh(kL1, kL2, unitCost());
    // Cost falls as the index rises, so each thread's later task
    // overtakes the earlier ones still running elsewhere and its
    // shard waits for theirs before it is replayed.
    orderedParallelFor(&mh, kMany, [&](int i) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(50 * (kMany - i)));
        runAccessMix(mh, i);
    });
    EXPECT_TRUE(mh.counters() == expected)
        << mh.counters().str() << "\nexpected:\n" << expected.str();
}

TEST(OrderedParallelFor, ThrowingTaskLeavesEveryThreadSimulatingDirectly)
{
    const GlobalThreads pool(4);
    MemoryHierarchy mh(kL1, kL2, unitCost());
    // Tasks 5 and 8 throw; 5 is the lowest, so its exception is the
    // one rethrown, whichever failed first.
    try {
        orderedParallelFor(&mh, kTasks, [&](int i) {
            runAccessMix(mh, i);
            if (i == 5 || i == 8)
                throw std::runtime_error("task " + std::to_string(i));
        });
        ADD_FAILURE() << "the task failures were not rethrown";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "task 5");
    }
    // Tasks 0..4 were replayed in order; task 5's shard and every
    // later one were dropped.
    MemoryHierarchy ref(kL1, kL2, unitCost());
    for (int i = 0; i < 5; ++i)
        runAccessMix(ref, i);
    EXPECT_TRUE(mh.counters() == ref.counters())
        << mh.counters().str() << "\nexpected:\n" << ref.counters().str();

    // The calling thread simulates directly again, from the cache
    // state that reference run left behind...
    mh.load(0x40, 1);
    ref.load(0x40, 1);
    EXPECT_TRUE(mh.counters() == ref.counters());

    // ...and so does every pool thread: in a plain region, each
    // task's access lands in its own hierarchy before the task ends.
    std::vector<std::unique_ptr<MemoryHierarchy>> own;
    for (int i = 0; i < kTasks; ++i)
        own.push_back(
            std::make_unique<MemoryHierarchy>(kL1, kL2, unitCost()));
    std::vector<uint64_t> seen(kTasks, 0);
    support::ThreadPool::global().parallelFor(kTasks, [&](int i) {
        own[i]->load(0x40, 1);
        seen[i] = own[i]->counters().gradLoads;
    });
    for (int i = 0; i < kTasks; ++i)
        EXPECT_EQ(seen[i], 1u) << "task " << i;
}

/** An L1 and an L2 whose set indices share some address bits. */
struct Geometry
{
    CacheConfig l1;
    CacheConfig l2;
};

/**
 * Seeded random geometry whose L1 and L2 set indices share exactly
 * @p bits address bits, so its lines fall into 2^bits partitions.
 */
Geometry
randomGeometry(Rng &rng, int bits)
{
    const int l1Line = static_cast<int>(rng.uniformInt(4, 6));
    const int l2Line = l1Line + static_cast<int>(rng.uniformInt(0, 2));
    int l1SetBits = 0;
    int l2SetBits = static_cast<int>(rng.uniformInt(2, 6));
    if (bits == 0) {
        // The L1 set index ends at or below the L2 line offset.
        l1SetBits = static_cast<int>(rng.uniformInt(0, l2Line - l1Line));
    } else {
        // One set index ends `bits` above the L2 line offset, the
        // other there or higher.
        const int slack = static_cast<int>(rng.uniformInt(0, 1));
        const bool l1Binds = rng.next() % 2 == 0;
        l1SetBits = l2Line + bits + (l1Binds ? 0 : slack) - l1Line;
        l2SetBits = bits + (l1Binds ? slack : 0);
    }
    const int l1Assoc = 1 << rng.uniformInt(0, 2);
    const int l2Assoc = 1 << rng.uniformInt(0, 2);
    return {{(uint64_t{1} << (l1Line + l1SetBits)) * l1Assoc, l1Assoc,
             1 << l1Line},
            {(uint64_t{1} << (l2Line + l2SetBits)) * l2Assoc, l2Assoc,
             1 << l2Line}};
}

/** Address bits both set indices contain (the partition bits). */
int
sharedSetBits(const Geometry &g)
{
    const int l1Lo = std::countr_zero(static_cast<uint64_t>(g.l1.lineBytes));
    const int l2Lo = std::countr_zero(static_cast<uint64_t>(g.l2.lineBytes));
    const int hi = std::min(l1Lo + std::countr_zero(g.l1.numSets()),
                            l2Lo + std::countr_zero(g.l2.numSets()));
    return std::max(0, hi - std::max(l1Lo, l2Lo));
}

/**
 * Task @p task's seeded mix of every access kind over @p span bytes,
 * with rows long enough to cross several partition blocks.
 */
void
runGeometryMix(MemoryHierarchy &mh, int task, uint64_t span)
{
    Rng rng(7000 + static_cast<uint64_t>(task));
    for (int op = 0; op < 400; ++op) {
        const uint64_t addr = rng.next() % span;
        switch (rng.next() % 7) {
          case 0:
            mh.load(addr, 1 + static_cast<int>(rng.next() % 8));
            break;
          case 1:
            mh.store(addr, 1 + static_cast<int>(rng.next() % 8));
            break;
          case 2: {
            // Consecutive elements: the same line again and again.
            for (uint64_t k = 0; k < 16; ++k)
                mh.store(addr + 2 * k, 2);
            break;
          }
          case 3: {
            const uint64_t bytes = 1 + rng.next() % (span / 32);
            mh.loadRow(addr, bytes, bytes);
            break;
          }
          case 4: {
            const uint64_t elems = rng.next() % 64;
            mh.storeRow(addr, elems, elems);
            break;
          }
          case 5:
            mh.prefetch(addr);
            break;
          default:
            mh.tick(rng.uniformReal(0.0, 50.0));
            break;
        }
    }
}

TEST(OrderedParallelFor, PartitionedReplayMatchesSequentialOnRandomGeometries)
{
    CostModel cm = unitCost();
    cm.cyclesPerAccess = 0.7; // inexact, so cycle sums depend on order
    cm.l2Exposure = 0.35;
    Rng rng(2025);
    for (const int bits : {0, 2, 7}) {
        for (int trial = 0; trial < 3; ++trial) {
            const Geometry g = randomGeometry(rng, bits);
            ASSERT_EQ(sharedSetBits(g), bits)
                << g.l1.str() << " / " << g.l2.str();
            const uint64_t span = 2 * std::max(g.l1.sizeBytes, g.l2.sizeBytes);

            MemoryHierarchy seq(g.l1, g.l2, cm);
            seq.load(0x40, 4);
            {
                MemoryHierarchy::ScopedRegion region(seq, "tasks");
                for (int i = 0; i < kTasks; ++i)
                    runGeometryMix(seq, i, span);
            }
            ASSERT_GT(seq.counters().l1Writebacks, 0u);
            ASSERT_GT(seq.counters().prefetchFills, 0u);

            for (const int threads : {2, 3, 4, 8}) {
                const GlobalThreads pool(threads);
                MemoryHierarchy mh(g.l1, g.l2, cm);
                mh.load(0x40, 4);
                {
                    MemoryHierarchy::ScopedRegion region(mh, "tasks");
                    orderedParallelFor(&mh, kTasks, [&](int i) {
                        runGeometryMix(mh, i, span);
                    });
                }
                EXPECT_TRUE(mh.counters() == seq.counters())
                    << g.l1.str() << " / " << g.l2.str() << ", "
                    << threads << " threads:\n"
                    << mh.counters().str() << "\nexpected:\n"
                    << seq.counters().str();
                EXPECT_TRUE(mh.profiler().get("tasks") ==
                            seq.profiler().get("tasks"))
                    << g.l1.str() << " / " << g.l2.str() << ", "
                    << threads << " threads";
            }
        }
    }
}

TEST(HierarchyDeathTest, L2LineSmallerThanL1Rejected)
{
    CacheConfig l2small{16 * 1024, 2, 16};
    EXPECT_DEATH(MemoryHierarchy(kL1, l2small, unitCost()),
                 "L2 line must not be smaller");
}

/**
 * A recorded row op keeps 32 bits of byte count and 29 of element
 * count; a row past either would replay as a different row than the
 * direct path counts, so recording it must panic instead.
 */
TEST(HierarchyDeathTest, RecordedRowTooLargeRejected)
{
    // The child re-runs this test from the top, so its pool has live
    // worker threads and the rows really are recorded.
    const std::string style = ::testing::GTEST_FLAG(death_test_style);
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const GlobalThreads pool(4);
    MemoryHierarchy mh(kL1, kL2, unitCost());
    EXPECT_DEATH(orderedParallelFor(&mh, 2,
                                    [&](int) {
                                        mh.loadRow(0, uint64_t{1} << 32,
                                                   1);
                                    }),
                 "row op too large to record");
    EXPECT_DEATH(orderedParallelFor(&mh, 2,
                                    [&](int) {
                                        mh.storeRow(0, 64,
                                                    uint64_t{1} << 29);
                                    }),
                 "row op too large to record");
    ::testing::GTEST_FLAG(death_test_style) = style;
}

/**
 * An element access touches the lines of its first and last byte, so
 * it needs at least one byte: a 0-byte load used to count two misses.
 */
TEST(HierarchyDeathTest, ElementAccessOfLessThanOneByteRejected)
{
    MemoryHierarchy mh(kL1, kL2, unitCost());
    EXPECT_DEATH(mh.load(64, 0), "element access of less than one byte");
    EXPECT_DEATH(mh.store(64, -8), "element access of less than one byte");
}

} // namespace
} // namespace m4ps::memsim
