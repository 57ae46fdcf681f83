/**
 * @file
 * Checkpoint/resume correctness: encoder state serialization must be
 * complete enough that a restored encoder finishes with a bitstream
 * byte-identical to an uninterrupted run, and the sidecar format must
 * reject anything it cannot vouch for.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "core/runner.hh"
#include "service/checkpoint.hh"
#include "service/jobspec.hh"
#include "support/fileio.hh"
#include "support/serialize.hh"

namespace m4ps::service
{
namespace
{

core::Workload
tinyWorkload(int num_vos = 1, int layers = 1, int b_frames = 2)
{
    core::Workload w = core::paperWorkload(96, 96, num_vos, layers);
    w.frames = 8;
    w.gop = {6, b_frames};
    w.searchRange = 4;
    w.searchRangeB = 2;
    w.targetBps = 1e6;
    return w;
}

/** Encode all frames in one go. */
std::vector<uint8_t>
encodeStraight(const core::Workload &w)
{
    return core::ExperimentRunner::encodeUntraced(w);
}

/**
 * Encode @p w but serialize + restore into a brand-new encoder after
 * frame @p splitAt, as a resumed worker would.
 */
std::vector<uint8_t>
encodeWithHandover(const core::Workload &w, int splitAt)
{
    std::vector<uint8_t> blob;
    {
        memsim::SimContext ctx;
        core::SceneFeeder feeder(ctx, w);
        codec::Mpeg4Encoder enc(ctx, w.encoderConfig());
        for (int t = 0; t < splitAt; ++t)
            enc.encodeFrame(feeder.inputs(t), t);
        support::StateWriter sw;
        enc.saveState(sw);
        blob = sw.take();
        // First encoder is dropped here, mid-GOP, like a killed
        // worker.
    }
    memsim::SimContext ctx;
    core::SceneFeeder feeder(ctx, w);
    codec::Mpeg4Encoder enc(ctx, w.encoderConfig());
    support::StateReader sr(blob);
    enc.restoreState(sr);
    for (int t = splitAt; t < w.frames; ++t)
        enc.encodeFrame(feeder.inputs(t), t);
    return enc.finish();
}

TEST(Checkpoint, ResumeIsBitIdenticalAtEverySplitPoint)
{
    const core::Workload w = tinyWorkload();
    const std::vector<uint8_t> reference = encodeStraight(w);
    ASSERT_FALSE(reference.empty());
    // Every split point exercises a different GOP phase: mid-B-run,
    // at an anchor, right before the flush.
    for (int split = 1; split < w.frames; ++split) {
        SCOPED_TRACE("split at frame " + std::to_string(split));
        EXPECT_EQ(reference, encodeWithHandover(w, split));
    }
}

TEST(Checkpoint, ResumeIsBitIdenticalMultiVo)
{
    const core::Workload w = tinyWorkload(3, 1);
    const std::vector<uint8_t> reference = encodeStraight(w);
    for (int split : {2, 5})
        EXPECT_EQ(reference, encodeWithHandover(w, split))
            << "split at " << split;
}

TEST(Checkpoint, ResumeIsBitIdenticalScalable)
{
    const core::Workload w = tinyWorkload(1, 2, 0);
    const std::vector<uint8_t> reference = encodeStraight(w);
    for (int split : {1, 4})
        EXPECT_EQ(reference, encodeWithHandover(w, split))
            << "split at " << split;
}

TEST(Checkpoint, RestoreRejectsTruncatedBlob)
{
    const core::Workload w = tinyWorkload();
    memsim::SimContext ctx;
    core::SceneFeeder feeder(ctx, w);
    codec::Mpeg4Encoder enc(ctx, w.encoderConfig());
    enc.encodeFrame(feeder.inputs(0), 0);
    support::StateWriter sw;
    enc.saveState(sw);
    std::vector<uint8_t> blob = sw.take();
    blob.resize(blob.size() / 2);

    codec::Mpeg4Encoder fresh(ctx, w.encoderConfig());
    support::StateReader sr(blob);
    EXPECT_THROW(fresh.restoreState(sr), support::SerializeError);
}

TEST(Checkpoint, RestoreRejectsMismatchedConfig)
{
    const core::Workload w = tinyWorkload();
    memsim::SimContext ctx;
    core::SceneFeeder feeder(ctx, w);
    codec::Mpeg4Encoder enc(ctx, w.encoderConfig());
    enc.encodeFrame(feeder.inputs(0), 0);
    support::StateWriter sw;
    enc.saveState(sw);
    const std::vector<uint8_t> blob = sw.buffer();

    core::Workload other = tinyWorkload(3, 1); // different VO count
    codec::Mpeg4Encoder fresh(ctx, other.encoderConfig());
    support::StateReader sr(blob);
    EXPECT_THROW(fresh.restoreState(sr), support::SerializeError);
}

class CheckpointFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // One file per test and process: tests run in parallel.
        path_ = testing::TempDir() + "m4ps_ckpt_" +
                testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                "_" + std::to_string(::getpid()) + ".bin";
        std::remove(path_.c_str());
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
};

TEST_F(CheckpointFileTest, SaveLoadRoundTrip)
{
    Checkpoint c;
    c.configHash = 0xfeedfacecafebeefull;
    c.nextFrame = 17;
    c.state = {1, 2, 3, 4, 5};
    saveCheckpoint(path_, c);

    Checkpoint back;
    ASSERT_TRUE(loadCheckpoint(path_, c.configHash, &back));
    EXPECT_EQ(back.configHash, c.configHash);
    EXPECT_EQ(back.nextFrame, 17);
    EXPECT_EQ(back.state, c.state);

    uint64_t hash = 0;
    int next = 0;
    ASSERT_TRUE(peekCheckpoint(path_, &hash, &next));
    EXPECT_EQ(hash, c.configHash);
    EXPECT_EQ(next, 17);
}

TEST_F(CheckpointFileTest, StaleHashIsRejectedAndRemoved)
{
    Checkpoint c;
    c.configHash = 1;
    c.nextFrame = 3;
    c.state = {9, 9};
    saveCheckpoint(path_, c);

    Checkpoint back;
    // A degraded retry has a different hash: the checkpoint must not
    // load, and must be deleted so it cannot shadow a fresh one.
    EXPECT_FALSE(loadCheckpoint(path_, 2, &back));
    EXPECT_FALSE(peekCheckpoint(path_, nullptr, nullptr));
}

TEST_F(CheckpointFileTest, CorruptPayloadIsRejected)
{
    Checkpoint c;
    c.configHash = 7;
    c.nextFrame = 2;
    c.state.assign(64, 0xab);
    saveCheckpoint(path_, c);
    {
        std::fstream f(path_,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(30); // inside the state blob
        f.put('\x00');
    }
    Checkpoint back;
    EXPECT_FALSE(loadCheckpoint(path_, 7, &back));
}

/**
 * Overwrite @p path three times through @p write(i) and check that no
 * temp file is left behind: a crash between writes can never leave a
 * torn file under the final name.
 */
template <typename Write>
void
expectAtomicOverwrites(const std::string &path, Write write)
{
    for (int i = 1; i <= 3; ++i)
        write(i);
    std::ifstream residue(path + ".tmp", std::ios::binary);
    EXPECT_FALSE(residue.good()) << "temp file left behind";
}

bool
exists(const std::string &path)
{
    struct stat st {};
    return ::stat(path.c_str(), &st) == 0;
}

TEST_F(CheckpointFileTest, SaveIsAtomicAndLeavesNoTempResidue)
{
    // saveCheckpoint writes through support::writeFileAtomic: after
    // any number of overwrites the durable file is the newest
    // complete checkpoint.
    expectAtomicOverwrites(path_, [this](int i) {
        Checkpoint c;
        c.configHash = 42;
        c.nextFrame = i;
        c.state.assign(static_cast<size_t>(i) * 100,
                       static_cast<uint8_t>(i));
        saveCheckpoint(path_, c);
    });
    Checkpoint back;
    ASSERT_TRUE(loadCheckpoint(path_, 42, &back));
    EXPECT_EQ(back.nextFrame, 3);
    EXPECT_EQ(back.state.size(), 300u);
}

TEST_F(CheckpointFileTest, WriteFileAtomicOverwritesWithoutTempResidue)
{
    expectAtomicOverwrites(path_, [this](int i) {
        support::writeFileAtomic(path_, std::string(4 - i, 'a' + i));
    });
    std::vector<uint8_t> back;
    ASSERT_TRUE(support::readRegularFile(path_, back));
    EXPECT_EQ(std::string(back.begin(), back.end()), "d");
}

TEST_F(CheckpointFileTest, WriteFileAtomicFailureThrowsAndLeavesNoTemp)
{
    // A directory that cannot take the temp file.  (A missing one:
    // file modes do not stop root, under which CI may run.)
    const std::string missingDir = path_ + ".no_such_dir/out.bin";
    EXPECT_THROW(support::writeFileAtomic(missingDir, "x"),
                 std::runtime_error);
    EXPECT_FALSE(exists(missingDir + ".tmp"));

    // The rename fails after the temp file was written: a directory
    // sits under the target name.  Nothing of the attempt remains.
    ASSERT_EQ(::mkdir(path_.c_str(), 0755), 0);
    EXPECT_THROW(support::writeFileAtomic(path_, "x"),
                 std::runtime_error);
    EXPECT_FALSE(exists(path_ + ".tmp"));
    ::rmdir(path_.c_str());
}

TEST_F(CheckpointFileTest, MissingFileLoadsNothing)
{
    Checkpoint back;
    EXPECT_FALSE(loadCheckpoint(path_, 1, &back));
    EXPECT_FALSE(peekCheckpoint(path_, nullptr, nullptr));
}

TEST(CheckpointHash, DegradationChangesConfigHash)
{
    JobSpec spec;
    spec.id = "enc";
    spec.output = "x.m4v";
    const uint64_t before = spec.configHash();
    JobSpec degraded = spec;
    degraded.workload.searchRange /= 2;
    EXPECT_NE(before, degraded.configHash());
    // Supervision-only fields must NOT change the hash.
    JobSpec retuned = spec;
    retuned.deadlineMs = 12345;
    retuned.retries = 9;
    retuned.crashAtVop = 4;
    EXPECT_EQ(before, retuned.configHash());
}

} // namespace
} // namespace m4ps::service
