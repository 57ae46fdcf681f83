/**
 * @file
 * Thread pool correctness (one in-order claim counter, the lowest
 * failing index rethrown) plus the parallel-coding contract:
 * bitstreams and merged memsim counters are identical for any thread
 * count (docs/THREADING.md).
 *
 * The determinism tests resize the global pool; each TEST runs as its
 * own ctest process (gtest_discover_tests), so that never leaks into
 * other tests.
 */

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "codec/faultinject.hh"
#include "core/runner.hh"
#include "support/threadpool.hh"

namespace m4ps
{
namespace
{

// ---------------------------------------------------------------------
// Pool mechanics.
// ---------------------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    support::ThreadPool pool(4);
    constexpr int kN = 257; // deliberately not a multiple of 4
    std::vector<std::atomic<int>> hits(kN);
    pool.parallelFor(kN, [&](int i) { hits[i].fetch_add(1); });
    for (int i = 0; i < kN; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, SingleThreadPoolRunsInlineInOrder)
{
    support::ThreadPool pool(1);
    EXPECT_EQ(pool.threads(), 1);
    std::vector<int> order;
    const auto caller = std::this_thread::get_id();
    pool.parallelFor(10, [&](int i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 10u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, PropagatesTaskException)
{
    // Tasks 7 and 20 throw.  Whichever fails first, task 7's exception
    // is the one rethrown -- the one a sequential loop stops at -- and
    // every task up to it runs.
    for (const int threads : {1, 2, 4}) {
        SCOPED_TRACE(threads);
        support::ThreadPool pool(threads);
        constexpr int kN = 32;
        std::vector<std::atomic<int>> runs(kN);
        try {
            pool.parallelFor(kN, [&](int i) {
                runs[i].fetch_add(1);
                if (i == 7 || i == 20)
                    throw std::runtime_error("task " + std::to_string(i));
            });
            ADD_FAILURE() << "the task failure was not rethrown";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "task 7");
        }
        for (int i = 0; i < kN; ++i) {
            if (i <= 7)
                EXPECT_EQ(runs[i].load(), 1) << "task " << i;
            else
                EXPECT_LE(runs[i].load(), 1) << "task " << i;
        }
    }
}

TEST(ThreadPool, NestedParallelForDegradesInline)
{
    support::ThreadPool pool(4);
    std::atomic<int> inner{0};
    pool.parallelFor(4, [&](int) {
        const auto outer_tid = std::this_thread::get_id();
        pool.parallelFor(8, [&](int) {
            EXPECT_EQ(std::this_thread::get_id(), outer_tid);
            inner.fetch_add(1);
        });
    });
    EXPECT_EQ(inner.load(), 32);
}

TEST(ThreadPool, IdleThreadsStealQueuedWork)
{
    // Task 0 blocks until the other 63 have finished, which they can
    // only do if the threads task 0 does not hold go on claiming the
    // rest of the region: a slow row never holds up the rows after it.
    support::ThreadPool pool(4);
    constexpr int kN = 64;
    std::atomic<int> others{0};
    std::atomic<bool> timedOut{false};

    pool.parallelFor(kN, [&](int i) {
        if (i != 0) {
            others.fetch_add(1);
            return;
        }
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (others.load() < kN - 1) {
            if (std::chrono::steady_clock::now() > deadline) {
                timedOut.store(true);
                return;
            }
            std::this_thread::yield();
        }
    });

    ASSERT_FALSE(timedOut.load()) << "a blocked task held up the rest";
    EXPECT_EQ(others.load(), kN - 1);
}

TEST(ThreadPool, ConcurrentCallersEachRunTheirWholeRegion)
{
    // Serve sessions share the global pool, so regions started on
    // different threads overlap: whichever region the workers help,
    // every caller's region runs whole, each index exactly once.
    support::ThreadPool pool(4);
    constexpr int kCallers = 3;
    constexpr int kRegions = 200;
    constexpr int kN = 257;
    std::vector<std::vector<std::atomic<int>>> hits(kCallers);
    for (auto &h : hits)
        h = std::vector<std::atomic<int>>(kRegions * kN);

    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] {
            for (int r = 0; r < kRegions; ++r)
                pool.parallelFor(kN, [&](int i) {
                    hits[c][r * kN + i].fetch_add(1);
                });
        });
    }
    for (std::thread &t : callers)
        t.join();

    for (int c = 0; c < kCallers; ++c)
        for (int k = 0; k < kRegions * kN; ++k)
            ASSERT_EQ(hits[c][k].load(), 1)
                << "caller " << c << " region " << k / kN << " index "
                << k % kN;
}

// ---------------------------------------------------------------------
// Codec determinism: the whole point of the slice design.
// ---------------------------------------------------------------------

core::Workload
dualLayerWorkload()
{
    // The acceptance workload: 3 VOs x 2 VOLs, small frames so the
    // traced runs stay fast.
    core::Workload w = core::paperWorkload(96, 96, 3, 2);
    w.frames = 5;
    w.gop = {6, 2};
    w.searchRange = 4;
    w.searchRangeB = 2;
    w.targetBps = 1.0e6;
    w.name = "threadpool-determinism";
    return w;
}

/**
 * One input to the determinism tests: a workload, and the bit error
 * rate of the channel its stream crosses before it is decoded.
 */
struct DeterminismCase
{
    core::Workload w;
    double ber = 0.0;      //!< 0: the clean stream, decoded strictly.
    uint64_t faultSeed = 0;
};

std::vector<DeterminismCase>
determinismCases()
{
    DeterminismCase clean{dualLayerWorkload()};
    // Packetized and data-partitioned, one row per video packet, then
    // damaged so the tolerant decoder rejects packets and conceals
    // rows: parsePackets, the packetized row loop and concealRow all
    // run under the thread pool.
    DeterminismCase damaged{dualLayerWorkload()};
    damaged.w.name = "threadpool-determinism-damaged";
    damaged.w.resyncInterval = 1;
    damaged.w.dataPartitioning = true;
    damaged.ber = 2e-4;
    damaged.faultSeed = 3;
    return {clean, damaged};
}

/** The case's stream as the decoder receives it. */
std::vector<uint8_t>
receivedStream(const DeterminismCase &c)
{
    std::vector<uint8_t> stream =
        core::ExperimentRunner::encodeUntraced(c.w);
    if (c.ber > 0) {
        const size_t headers = codec::protectableHeaderBytes(stream);
        stream = codec::flipBits(std::move(stream), c.ber, c.faultSeed,
                                 headers);
    }
    return stream;
}

TEST(ParallelDeterminism, EncodeBitstreamAndCountersMatchSequential)
{
    const core::MachineConfig machine = core::o2R12k1MB();
    for (const DeterminismCase &c : determinismCases()) {
        SCOPED_TRACE(c.w.name);
        support::ThreadPool::setGlobalThreads(1);
        std::vector<uint8_t> seqStream;
        const core::RunResult seq =
            core::ExperimentRunner::runEncode(c.w, machine, &seqStream);
        EXPECT_EQ(seq.threads, 1);

        for (const int threads : {3, 4}) {
            support::ThreadPool::setGlobalThreads(threads);
            std::vector<uint8_t> parStream;
            const core::RunResult par = core::ExperimentRunner::runEncode(
                c.w, machine, &parStream);
            EXPECT_EQ(par.threads, threads);
            // Bit-identical streams...
            ASSERT_EQ(seqStream.size(), parStream.size());
            EXPECT_TRUE(seqStream == parStream) << threads << " threads";
            // ...and exactly matching merged memory-simulation
            // counters, including the double-valued cycle accumulators
            // (the shard replay preserves accumulation order).
            EXPECT_TRUE(seq.whole.ctrs == par.whole.ctrs)
                << threads << " threads";
            EXPECT_EQ(seq.whole.ctrs.l1Misses, par.whole.ctrs.l1Misses);
            EXPECT_EQ(seq.whole.ctrs.l2Misses, par.whole.ctrs.l2Misses);
        }
    }
}

TEST(ParallelDeterminism, DecodeCountersAndQualityMatchSequential)
{
    const core::MachineConfig machine = core::onyxR10k2MB();
    for (const DeterminismCase &c : determinismCases()) {
        SCOPED_TRACE(c.w.name);
        const std::vector<uint8_t> stream = receivedStream(c);
        codec::DecodeOptions opts;
        opts.tolerant = c.ber > 0;

        support::ThreadPool::setGlobalThreads(1);
        const core::RunResult seq =
            core::ExperimentRunner::runDecode(c.w, machine, stream, opts);
        if (c.ber > 0) {
            ASSERT_GT(seq.dec.mb.concealedMbs, 0)
                << "the channel must force concealment";
        }

        for (const int threads : {3, 4}) {
            support::ThreadPool::setGlobalThreads(threads);
            const core::RunResult par = core::ExperimentRunner::runDecode(
                c.w, machine, stream, opts);
            EXPECT_TRUE(seq.whole.ctrs == par.whole.ctrs)
                << threads << " threads";
            EXPECT_EQ(seq.meanPsnrY, par.meanPsnrY);
            EXPECT_EQ(seq.displayedFrames, par.displayedFrames);
            EXPECT_EQ(seq.dec.vops, par.dec.vops);
            EXPECT_EQ(seq.dec.corruptedVops, par.dec.corruptedVops);
            EXPECT_EQ(seq.dec.mb.concealedMbs, par.dec.mb.concealedMbs);
            EXPECT_EQ(seq.dec.mb.corruptPackets,
                      par.dec.mb.corruptPackets);
        }
    }
}

TEST(ParallelDeterminism, OddThreadCountAlsoMatches)
{
    // Three threads against five macroblock rows exercises uneven
    // row-to-worker assignment.
    for (const DeterminismCase &c : determinismCases()) {
        SCOPED_TRACE(c.w.name);
        support::ThreadPool::setGlobalThreads(1);
        const std::vector<uint8_t> seqStream =
            core::ExperimentRunner::encodeUntraced(c.w);

        support::ThreadPool::setGlobalThreads(3);
        const std::vector<uint8_t> parStream =
            core::ExperimentRunner::encodeUntraced(c.w);

        EXPECT_TRUE(seqStream == parStream);
    }
}

} // namespace
} // namespace m4ps
