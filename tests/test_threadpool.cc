/**
 * @file
 * Work-stealing pool correctness plus the parallel-coding contract:
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
    support::ThreadPool pool(4);
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.parallelFor(32,
                                  [&](int i) {
                                      ran.fetch_add(1);
                                      if (i == 7)
                                          throw std::runtime_error(
                                              "task failure");
                                  }),
                 std::runtime_error);
    // One failing task does not abandon the rest of the region: the
    // pool drains every queued index before rethrowing.
    EXPECT_EQ(ran.load(), 32);
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
    // Two slots, four tasks seeded round-robin: slot 0 owns {0, 2},
    // slot 1 owns {1, 3}.  Owners pop their own queue LIFO, so the
    // worker takes task 3 first and blocks in it until task 1 -- the
    // one left sitting in its own queue -- has completed.  Tasks 0
    // and 2 hold the caller on its own queue until task 3 has
    // started.  The only way task 1 can run is for the caller to
    // steal it, so completion of this test proves stealing works.
    support::ThreadPool pool(2);
    std::atomic<bool> started3{false};
    std::atomic<bool> done1{false};
    std::atomic<bool> timedOut{false};
    std::thread::id tid[4];

    const auto waitFor = [&](const std::atomic<bool> &flag) {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(30);
        while (!flag.load()) {
            if (std::chrono::steady_clock::now() > deadline) {
                timedOut.store(true);
                return;
            }
            std::this_thread::yield();
        }
    };

    pool.parallelFor(4, [&](int i) {
        tid[i] = std::this_thread::get_id();
        if (i == 0 || i == 2)
            waitFor(started3);
        if (i == 3) {
            started3.store(true);
            waitFor(done1);
        }
        if (i == 1)
            done1.store(true);
    });

    ASSERT_FALSE(timedOut.load()) << "work was never stolen";
    EXPECT_NE(tid[1], tid[3]); // task 1 ran on the thief, not the owner
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
