#include "serve/client.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include "fec/frame.hh"
#include "serve/net.hh"

namespace m4ps::serve
{

namespace
{

int64_t
monoMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
sleepMs(int64_t ms)
{
    if (ms > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

} // namespace

ClientResult
runClientSession(const std::string &endpoint, const std::string &spec,
                 const ClientBehavior &behavior)
{
    ClientResult res;
    const int64_t start = monoMs();
    std::string err;
    const int fd = connectTo(endpoint, &err, behavior.rcvbufBytes);
    if (fd < 0) {
        res.error = "connect: " + err;
        return res;
    }
    res.connected = true;

    if (!behavior.omitRequest) {
        std::vector<uint8_t> wire;
        if (behavior.malformedRequest) {
            // Looks nothing like the magic: the daemon must classify
            // it as Bad and answer BadRequest, not hang or die.
            const char junk[] = "GET / HTTP/1.1\r\n\r\n";
            wire.assign(junk, junk + sizeof(junk) - 1);
        } else {
            Request req;
            req.spec = spec;
            wire = encodeRequest(req);
        }
        if (!sendAll(fd, wire.data(), wire.size(), 1000,
                     [] { return true; })) {
            res.error = "request send failed";
            shutdownAndClose(fd);
            res.latencyMs = monoMs() - start;
            return res;
        }
    }

    std::vector<uint8_t> buf;
    uint32_t expectSeq = 0;
    bool stalled = behavior.stallAfterPackets == 0;
    bool stallSpent = stalled;
    const int64_t deadline = start + behavior.overallTimeoutMs;
    uint8_t tmp[8192];
    while (monoMs() < deadline) {
        if (stalled) {
            sleepMs(behavior.stallMs);
            stalled = false;
        }
        const size_t want =
            behavior.readChunkBytes > 0
                ? std::min(behavior.readChunkBytes, sizeof(tmp))
                : sizeof(tmp);
        const long r = recvSome(fd, tmp, want, 200);
        if (r == 0) {
            res.error = res.gotFinal ? "" : "eof before status";
            break;
        }
        if (r == -2) {
            res.error = "recv error";
            break;
        }
        if (r > 0) {
            buf.insert(buf.end(), tmp, tmp + r);
            if (behavior.readIntervalMs > 0)
                sleepMs(behavior.readIntervalMs);
        }

        // Drain every whole message currently buffered.
        bool sawFinal = false;
        for (;;) {
            MessageHeader h;
            const ParseResult pr =
                parseMessageHeader(buf.data(), buf.size(), &h);
            if (pr == ParseResult::Bad) {
                res.error = "bad message from server";
                sawFinal = true;
                break;
            }
            if (pr != ParseResult::Ok ||
                buf.size() < kMessageHeaderSize + h.payloadLen)
                break;
            const uint8_t *payload = buf.data() + kMessageHeaderSize;
            if (h.type == MsgType::Status) {
                res.gotFinal = true;
                res.finalStatus = h.status;
                res.statusJson.assign(
                    reinterpret_cast<const char *>(payload),
                    h.payloadLen);
                sawFinal = true;
            } else {
                if (h.seq != expectSeq)
                    ++res.seqGaps;
                expectSeq = h.seq + 1;
                ++res.packets;
                if ((h.flags & kFlagFecFramed) != 0) {
                    const fec::RecoverResult rec =
                        fec::recover({payload, h.payloadLen});
                    res.stream.insert(res.stream.end(),
                                      rec.stream.begin(),
                                      rec.stream.end());
                    res.payloadBytes += rec.stream.size();
                } else {
                    res.stream.insert(res.stream.end(), payload,
                                      payload + h.payloadLen);
                    res.payloadBytes += h.payloadLen;
                }
                if (behavior.disconnectAfterPackets >= 0 &&
                    res.packets >= static_cast<uint64_t>(
                                       behavior.disconnectAfterPackets))
                {
                    res.error = "scripted disconnect";
                    sawFinal = true;
                }
                if (behavior.stallAfterPackets > 0 && !stallSpent &&
                    res.packets >= static_cast<uint64_t>(
                                       behavior.stallAfterPackets)) {
                    stalled = true;
                    stallSpent = true;
                }
            }
            buf.erase(buf.begin(),
                      buf.begin() + kMessageHeaderSize + h.payloadLen);
            if (sawFinal)
                break;
        }
        if (sawFinal)
            break;
    }
    shutdownAndClose(fd);
    res.latencyMs = monoMs() - start;
    return res;
}

std::string
queryServerStats(const std::string &endpoint, std::string *err,
                 int64_t timeoutMs)
{
    const int64_t deadline = monoMs() + timeoutMs;
    std::string connErr;
    const int fd = connectTo(endpoint, &connErr, 0);
    if (fd < 0) {
        if (err)
            *err = "connect: " + connErr;
        return {};
    }
    const std::vector<uint8_t> reqWire = encodeStatsRequest();
    if (!sendAll(fd, reqWire.data(), reqWire.size(), 500,
                 [] { return true; })) {
        shutdownAndClose(fd);
        if (err)
            *err = "stats request send failed";
        return {};
    }
    std::vector<uint8_t> buf;
    uint8_t tmp[8192];
    while (monoMs() < deadline) {
        const long r = recvSome(fd, tmp, sizeof(tmp), 200);
        if (r == 0)
            break;
        if (r == -2) {
            shutdownAndClose(fd);
            if (err)
                *err = "recv error";
            return {};
        }
        if (r > 0)
            buf.insert(buf.end(), tmp, tmp + r);
        MessageHeader h;
        const ParseResult pr =
            parseMessageHeader(buf.data(), buf.size(), &h);
        if (pr == ParseResult::Bad) {
            shutdownAndClose(fd);
            if (err)
                *err = "bad stats reply";
            return {};
        }
        if (pr == ParseResult::Ok &&
            buf.size() >= kMessageHeaderSize + h.payloadLen) {
            shutdownAndClose(fd);
            if (h.type != MsgType::Stats) {
                if (err)
                    *err = "unexpected reply type";
                return {};
            }
            return std::string(
                reinterpret_cast<const char *>(buf.data() +
                                               kMessageHeaderSize),
                h.payloadLen);
        }
    }
    shutdownAndClose(fd);
    if (err)
        *err = "stats reply timed out";
    return {};
}

} // namespace m4ps::serve
