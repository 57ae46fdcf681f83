/**
 * @file
 * One job, every front end: the worker (service::runJob in-process),
 * a serve session and direct calls of the pipeline steps
 * (service/pipeline.hh) must produce the same bitstream and the same
 * decode report, for a clear, a hard-framed and a soft-framed spec.
 * Also pins the channel dispatch (fec::transmit) to the channel
 * functions it replaces, and the regular-file rule for job inputs.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/runner.hh"
#include "fec/frame.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "service/pipeline.hh"
#include "service/worker.hh"
#include "support/fileio.hh"

namespace m4ps::service
{
namespace
{

struct SpecCase
{
    const char *name;
    const char *fecKeys;
};

const SpecCase kCases[] = {
    {"clear", "fec=off"},
    {"hard", "fec=hard fec-rate=2/3 interleave-depth=8"},
    {"soft", "fec=soft fec-rate=1/2"},
};

const char *kBase =
    "width=64 height=64 frames=4 resync-interval=1 checkpoint=0";

std::string
body(const SpecCase &c, const std::string &typeAndFiles)
{
    return typeAndFiles + " " + kBase + " " + c.fecKeys;
}

std::vector<uint8_t>
readBytes(const std::string &path)
{
    std::vector<uint8_t> out;
    EXPECT_TRUE(support::readRegularFile(path, out)) << path;
    return out;
}

std::string
readText(const std::string &path)
{
    const std::vector<uint8_t> b = readBytes(path);
    return std::string(b.begin(), b.end());
}

/** The elementary stream under a job's (possibly framed) output. */
std::vector<uint8_t>
recovered(const JobSpec &spec, const std::vector<uint8_t> &out)
{
    if (!spec.fecEnabled())
        return out;
    const fec::RecoverResult rec = fec::recover(out);
    EXPECT_EQ(rec.stats.blocksUncorrectable, 0u);
    EXPECT_EQ(rec.stats.framingErrors, 0u);
    return rec.stream;
}

/** A temp path of this process's own, so concurrent runs never clash. */
std::string
scratchPath(const std::string &name)
{
    return testing::TempDir() + "m4ps_pipeline_" +
           std::to_string(::getpid()) + "_" + name;
}

serve::ServerConfig
serverConfig()
{
    serve::ServerConfig cfg;
    cfg.listen = "tcp:0";
    cfg.checkpointDir = testing::TempDir();
    cfg.tickMs = 10;
    return cfg;
}

TEST(Pipeline, WorkerServeAndDirectCallsAgree)
{
    serve::Server server(serverConfig());
    server.start();
    const std::string dir = scratchPath("");
    for (const SpecCase &c : kCases) {
        SCOPED_TRACE(c.name);
        const std::string enc = dir + c.name + ".m4v";
        const std::string tr = dir + c.name + "_tr.m4v";
        const std::string dmg = dir + c.name + "_dmg.m4v";
        const JobSpec encSpec =
            parseSpecLine("enc", body(c, "type=encode out=" + enc));
        const std::vector<uint8_t> reference =
            core::ExperimentRunner::encodeUntraced(encSpec.workload);

        // Worker: encode and transcode write the same framed stream,
        // whose framing peels off to the untraced encode.
        ASSERT_EQ(runJob(encSpec), kWorkerOk);
        ASSERT_EQ(runJob(parseSpecLine(
                      "tr", body(c, "type=transcode out=" + tr))),
                  kWorkerOk);
        const std::vector<uint8_t> wire = readBytes(enc);
        EXPECT_EQ(readBytes(tr), wire);
        EXPECT_EQ(recovered(encSpec, wire), reference);
        if (encSpec.fecEnabled()) {
            EXPECT_EQ(wire,
                      fec::protect(reference, encSpec.fecConfig()));
        }

        // Serve: the client recovers each packet; the stream it
        // reassembles is the untraced encode too, and a transcode
        // session passes its verify decode.
        for (const char *type : {"type=encode", "type=transcode"}) {
            const serve::ClientResult s =
                serve::runClientSession(server.endpoint(), body(c, type));
            ASSERT_TRUE(s.gotFinal) << s.error;
            EXPECT_EQ(s.finalStatus, serve::Status::Ok) << s.statusJson;
            EXPECT_EQ(s.stream, reference);
        }

        // Decode the intact stream and a channel-damaged copy through
        // all three front ends.
        fec::ChannelSpec channel;
        channel.faults.ber = 2e-3;
        channel.faults.truncateFraction = 0.9;
        channel.faults.seed = 11;
        const fec::FecConfig cfg = encSpec.fecConfig();
        const std::vector<uint8_t> noisy = fec::transmit(
            wire, channel, encSpec.fecEnabled() ? &cfg : nullptr);
        support::writeFileAtomic(dmg, noisy.data(), noisy.size());
        for (const std::string &in : {enc, dmg}) {
            SCOPED_TRACE(in);
            const std::string report = in + ".report";
            const JobSpec decSpec = parseSpecLine(
                "dec",
                body(c, "type=decode input=" + in + " out=" + report));
            ASSERT_EQ(runJob(decSpec), kWorkerOk);
            const std::string workerReport = readText(report);

            const serve::ClientResult d = serve::runClientSession(
                server.endpoint(), body(c, "type=decode input=" + in));
            ASSERT_TRUE(d.gotFinal) << d.error;
            EXPECT_EQ(d.finalStatus, serve::Status::Ok) << d.statusJson;
            const std::string serveReport(d.stream.begin(),
                                          d.stream.end());

            const DecodeOutcome direct =
                decodeStream(decSpec, readInput(decSpec));
            EXPECT_EQ(direct.fec.has_value(), decSpec.fecEnabled());
            EXPECT_EQ(serveReport, decodeReport(direct, false));
            EXPECT_EQ(workerReport, decodeReport(direct, true));
            EXPECT_EQ(workerReport.compare(0, serveReport.size(),
                                           serveReport),
                      0)
                << "serve:\n" << serveReport << "worker:\n"
                << workerReport;
            std::remove(report.c_str());
        }
        std::remove(enc.c_str());
        std::remove(tr.c_str());
        std::remove(dmg.c_str());
    }
    server.stop();
    EXPECT_EQ(server.stats().failed, 0u);
}

TEST(Pipeline, DecodeReportRendersSummaryThenFecDetail)
{
    DecodeOutcome d;
    d.stats.vops = 4;
    d.stats.displayed = 3;
    d.stats.corruptedVops = 1;
    d.stats.headerErrors = 2;
    d.stats.totalBits = 12345;
    const std::string clear = "vops 4\ndisplayed 3\ncorrupted_vops 1\n"
                              "header_errors 2\ntotal_bits 12345\n";
    EXPECT_EQ(decodeReport(d, false), clear);
    EXPECT_EQ(decodeReport(d, true), clear);

    fec::FecStats f;
    f.blocks = 5;
    f.blocksCorrected = 2;
    f.blocksUncorrectable = 1;
    f.framingErrors = 3;
    f.correctedBits = 40;
    f.perVop = {{-1, 1, 0, 0}, {0, 2, 1, 0}, {1, 2, 1, 1}};
    d.fec = f;
    const std::string summary =
        clear + "fec_blocks 5\nfec_blocks_corrected 2\n";
    EXPECT_EQ(decodeReport(d, false), summary);
    EXPECT_EQ(decodeReport(d, true),
              summary + "fec_blocks_uncorrectable 1\n"
                        "fec_framing_errors 3\n"
                        "fec_corrected_bits 40\n"
                        "fec_vop0 2 1 0\n"
                        "fec_vop1 2 1 1\n");
}

TEST(Pipeline, TransmitReproducesTheChannelFunctions)
{
    const JobSpec spec =
        parseSpecLine("ch", body(kCases[0], "type=encode"));
    const std::vector<uint8_t> clear =
        core::ExperimentRunner::encodeUntraced(spec.workload);
    fec::FecConfig hard;
    hard.rate = fec::Rate::R2_3;
    hard.interleaveDepth = 8;
    fec::FecConfig soft;
    soft.decision = fec::Decision::Soft;
    const std::vector<uint8_t> hardWire = fec::protect(clear, hard);
    const std::vector<uint8_t> softWire = fec::protect(clear, soft);

    fec::ChannelSpec ch;
    ch.faults.ber = 3e-3;
    ch.faults.bursts = 2;
    ch.faults.burstBytes = 8;
    ch.faults.truncateFraction = 0.8;
    ch.faults.seed = 42;

    // Clear wire: the session headers ride the protected transport.
    codec::FaultSpec exposed = ch.faults;
    exposed.protectPrefixBytes = codec::protectableHeaderBytes(clear);
    const std::vector<uint8_t> noisy = fec::transmit(clear, ch, nullptr);
    EXPECT_NE(noisy, clear);
    EXPECT_EQ(noisy, codec::injectFaults(clear, exposed));
    EXPECT_EQ(fec::transmit(hardWire, ch, &hard),
              fec::channelHard(hardWire, ch.faults));
    // A soft wire without an Es/N0 sees the hard channel.
    EXPECT_EQ(fec::transmit(softWire, ch, &soft),
              fec::channelHard(softWire, ch.faults));

    // With an Es/N0 the soft wire takes AWGN (truncation and seed
    // still apply); every other wire sees the hard-equivalent BER.
    ch.esN0Db = 4.0;
    codec::FaultSpec awgnHard = ch.faults;
    awgnHard.ber = fec::hardBerAtEsN0Db(4.0);
    EXPECT_EQ(fec::transmit(softWire, ch, &soft),
              fec::channelSoft(softWire, 4.0, 42, 0.8));
    EXPECT_EQ(fec::transmit(hardWire, ch, &hard),
              fec::channelHard(hardWire, awgnHard));
    awgnHard.protectPrefixBytes = exposed.protectPrefixBytes;
    EXPECT_EQ(fec::transmit(clear, ch, nullptr),
              codec::injectFaults(clear, awgnHard));

    // A channel with nothing set leaves every wire intact.
    const fec::ChannelSpec quiet;
    EXPECT_EQ(fec::transmit(clear, quiet, nullptr), clear);
    EXPECT_EQ(fec::transmit(hardWire, quiet, &hard), hardWire);
    EXPECT_EQ(fec::transmit(softWire, quiet, &soft), softWire);
}

TEST(Pipeline, NonRegularInputsFailLikeAMissingOne)
{
    // /dev/zero never ends and a FIFO blocks its reader in open():
    // both must fail at once, with a missing file's verdict, instead
    // of holding a worker or a serve session past its deadline.
    const std::string fifo = scratchPath("fifo");
    std::remove(fifo.c_str());
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
    const std::string missing = scratchPath("no_such_input.m4v");

    serve::ServerConfig cfg = serverConfig();
    cfg.admission.breakerThreshold = 100; // every attempt reaches I/O
    serve::Server server(cfg);
    server.start();
    for (const std::string &in : {missing, std::string("/dev/zero"),
                                  fifo}) {
        SCOPED_TRACE(in);
        std::vector<uint8_t> bytes;
        EXPECT_FALSE(support::readRegularFile(in, bytes));
        const std::string decode =
            body(kCases[0], "type=decode input=" + in);
        EXPECT_EQ(runJob(parseSpecLine("dec", decode)), kWorkerPermanent);
        const serve::ClientResult r =
            serve::runClientSession(server.endpoint(), decode);
        ASSERT_TRUE(r.gotFinal) << r.error;
        EXPECT_EQ(r.finalStatus, serve::Status::InternalError);
        EXPECT_NE(r.statusJson.find("not a regular file"),
                  std::string::npos)
            << r.statusJson;
    }
    server.stop(); // returns: no session is stuck in open()
    EXPECT_EQ(server.stats().failed, 3u);
    std::remove(fifo.c_str());
}

} // namespace
} // namespace m4ps::service
