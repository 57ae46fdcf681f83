#include "service/checkpoint.hh"

#include <cstdio>
#include <fstream>

#include "support/fileio.hh"
#include "support/serialize.hh"

namespace m4ps::service
{

namespace
{

constexpr uint32_t kMagic = 0x4d34434b;  // "M4CK"
constexpr uint32_t kVersion = 1;

} // namespace

std::string
checkpointPath(const std::string &output)
{
    return output + ".ckpt";
}

void
saveCheckpoint(const std::string &path, const Checkpoint &c)
{
    support::StateWriter sw;
    sw.u32(kMagic);
    sw.u32(kVersion);
    sw.u64(c.configHash);
    sw.i32(c.nextFrame);
    sw.bytes(c.state.data(), c.state.size());
    sw.u32(support::crc32(c.state.data(), c.state.size()));

    support::writeFileAtomic(path, sw.buffer().data(),
                             sw.buffer().size());
}

bool
loadCheckpoint(const std::string &path, uint64_t configHash,
               Checkpoint *out)
{
    std::vector<uint8_t> raw;
    if (!support::readRegularFile(path, raw))
        return false;
    try {
        support::StateReader sr(raw);
        if (sr.u32() != kMagic || sr.u32() != kVersion)
            throw support::SerializeError("bad checkpoint header");
        Checkpoint c;
        c.configHash = sr.u64();
        c.nextFrame = sr.i32();
        sr.bytes(c.state);
        const uint32_t crc = sr.u32();
        if (crc != support::crc32(c.state.data(), c.state.size()))
            throw support::SerializeError("checkpoint CRC mismatch");
        if (c.configHash != configHash || c.nextFrame < 0)
            throw support::SerializeError("stale checkpoint");
        *out = std::move(c);
        return true;
    } catch (const support::SerializeError &) {
        // Unusable: truncated, corrupt, or written for a different
        // job configuration.  Drop it so the next save starts clean.
        std::remove(path.c_str());
        return false;
    }
}

bool
peekCheckpoint(const std::string &path, uint64_t *configHash,
               int *nextFrame)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    uint8_t hdr[20];
    in.read(reinterpret_cast<char *>(hdr), sizeof(hdr));
    if (in.gcount() != sizeof(hdr))
        return false;
    support::StateReader sr(hdr, sizeof(hdr));
    if (sr.u32() != kMagic || sr.u32() != kVersion)
        return false;
    const uint64_t hash = sr.u64();
    const int next = sr.i32();
    if (configHash)
        *configHash = hash;
    if (nextFrame)
        *nextFrame = next;
    return true;
}

void
removeCheckpoint(const std::string &path)
{
    std::remove(path.c_str());
}

void
markDone(const std::string &output)
{
    if (!output.empty())
        support::writeFileAtomic(output + ".done", "");
}

bool
takeDone(const std::string &output)
{
    return !output.empty() &&
           std::remove((output + ".done").c_str()) == 0;
}

} // namespace m4ps::service
