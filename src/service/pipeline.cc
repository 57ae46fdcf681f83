#include "service/pipeline.hh"

#include <stdexcept>

#include "service/checkpoint.hh"
#include "support/fileio.hh"
#include "support/serialize.hh"

namespace m4ps::service
{

std::vector<uint8_t>
readInput(const JobSpec &spec)
{
    std::vector<uint8_t> stream;
    if (!support::readRegularFile(spec.input, stream))
        throw std::runtime_error("unreadable input '" + spec.input +
                                 "' (missing or not a regular file)");
    return stream;
}

int
restoreEncoder(const std::string &path, const JobSpec &spec,
               codec::Mpeg4Encoder &enc)
{
    Checkpoint c;
    if (!loadCheckpoint(path, spec.configHash(), &c))
        return 0;
    support::StateReader sr(c.state);
    enc.restoreState(sr);
    return c.nextFrame;
}

void
checkpointEncoder(const std::string &path, const JobSpec &spec,
                  int nextFrame, const codec::Mpeg4Encoder &enc)
{
    Checkpoint c;
    c.configHash = spec.configHash();
    c.nextFrame = nextFrame;
    support::StateWriter sw;
    enc.saveState(sw);
    c.state = sw.take();
    saveCheckpoint(path, c);
}

DecodeOutcome
decodeStream(const JobSpec &spec, const std::vector<uint8_t> &stream,
             const codec::Mpeg4Decoder::Sink &sink)
{
    memsim::SimContext ctx; // untraced: jobs run for output
    codec::Mpeg4Decoder dec(ctx);
    DecodeOutcome d;
    if (!spec.fecEnabled()) {
        d.stats = dec.decode(stream, sink, spec.tolerant);
        return d;
    }
    fec::RecoverResult rec = fec::recover(stream);
    d.fec = std::move(rec.stats);
    d.stats = dec.decode(rec.stream, sink, spec.tolerant);
    return d;
}

void
verifyTranscode(const JobSpec &spec, const std::vector<uint8_t> &stream)
{
    if (decodeStream(spec, stream).stats.vops == 0)
        throw std::runtime_error("transcode verify decoded no VOPs");
}

std::string
decodeReport(const DecodeOutcome &d, bool fecDetail)
{
    std::string r;
    auto line = [&r](const std::string &key, auto... values) {
        r += key;
        ((r += " " + std::to_string(values)), ...);
        r += "\n";
    };
    line("vops", d.stats.vops);
    line("displayed", d.stats.displayed);
    line("corrupted_vops", d.stats.corruptedVops);
    line("header_errors", d.stats.headerErrors);
    line("total_bits", d.stats.totalBits);
    if (!d.fec)
        return r;
    line("fec_blocks", d.fec->blocks);
    line("fec_blocks_corrected", d.fec->blocksCorrected);
    if (!fecDetail)
        return r;
    line("fec_blocks_uncorrectable", d.fec->blocksUncorrectable);
    line("fec_framing_errors", d.fec->framingErrors);
    line("fec_corrected_bits", d.fec->correctedBits);
    for (const fec::VopFecCounts &v : d.fec->perVop) {
        if (v.vop >= 0)
            line("fec_vop" + std::to_string(v.vop), v.blocks,
                 v.corrected, v.uncorrectable);
    }
    return r;
}

} // namespace m4ps::service
