#include "serve/protocol.hh"

#include <cstring>

namespace m4ps::serve
{

namespace
{

void
putLe16(uint8_t *p, uint16_t v)
{
    p[0] = static_cast<uint8_t>(v);
    p[1] = static_cast<uint8_t>(v >> 8);
}

void
putLe32(uint8_t *p, uint32_t v)
{
    p[0] = static_cast<uint8_t>(v);
    p[1] = static_cast<uint8_t>(v >> 8);
    p[2] = static_cast<uint8_t>(v >> 16);
    p[3] = static_cast<uint8_t>(v >> 24);
}

uint16_t
getLe16(const uint8_t *p)
{
    return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t
getLe32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
           (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
}

/**
 * Classify the prefix of a frame with 4-byte @p magic and a
 * @p header-byte fixed header.  The magic bytes present are checked
 * before asking for more: four bad magic bytes must classify as Bad
 * immediately, not after a slow-loris dribbles a whole header.  An
 * empty buffer (whose data pointer may be null) is NeedMore.  Ok
 * means the whole header is present.
 */
ParseResult
checkPrefix(const uint8_t *data, size_t n, const uint8_t (&magic)[4],
            size_t header)
{
    if (n == 0)
        return ParseResult::NeedMore;
    if (std::memcmp(data, magic, n < 4 ? n : size_t{4}) != 0)
        return ParseResult::Bad;
    return n < header ? ParseResult::NeedMore : ParseResult::Ok;
}

} // namespace

const char *
statusName(Status s)
{
    switch (s) {
      case Status::Ok:               return "ok";
      case Status::Overloaded:       return "overloaded";
      case Status::Draining:         return "draining";
      case Status::BadRequest:       return "bad-request";
      case Status::InternalError:    return "internal-error";
      case Status::DeadlineExceeded: return "deadline-exceeded";
      case Status::IdleTimeout:      return "idle-timeout";
      case Status::SlowReader:       return "slow-reader";
      case Status::BreakerOpen:      return "breaker-open";
      case Status::Checkpointed:     return "checkpointed";
      case Status::Canceled:         return "canceled";
    }
    return "unknown";
}

bool
statusIsShed(Status s)
{
    return s == Status::Overloaded || s == Status::Draining ||
           s == Status::BreakerOpen;
}

std::vector<uint8_t>
encodeRequest(const Request &req)
{
    std::vector<uint8_t> out(kRequestHeaderSize + req.spec.size());
    std::memcpy(out.data(), kRequestMagic, 4);
    putLe16(out.data() + 4, req.version);
    putLe16(out.data() + 6, 0);
    putLe32(out.data() + 8, static_cast<uint32_t>(req.spec.size()));
    std::memcpy(out.data() + kRequestHeaderSize, req.spec.data(),
                req.spec.size());
    return out;
}

ParseResult
parseRequest(const uint8_t *data, size_t n, Request *out,
             size_t *consumed)
{
    if (const ParseResult r =
            checkPrefix(data, n, kRequestMagic, kRequestHeaderSize);
        r != ParseResult::Ok)
        return r;
    const uint16_t version = getLe16(data + 4);
    if (version != kProtocolVersion)
        return ParseResult::Bad;
    const uint32_t specLen = getLe32(data + 8);
    if (specLen > kMaxSpecBytes)
        return ParseResult::Bad;
    if (n < kRequestHeaderSize + specLen)
        return ParseResult::NeedMore;
    out->version = version;
    out->spec.assign(
        reinterpret_cast<const char *>(data + kRequestHeaderSize),
        specLen);
    *consumed = kRequestHeaderSize + specLen;
    return ParseResult::Ok;
}

void
encodeMessageHeader(const MessageHeader &h, uint8_t *out)
{
    std::memcpy(out, kMessageMagic, 4);
    out[4] = static_cast<uint8_t>(h.type);
    out[5] = static_cast<uint8_t>(h.status);
    out[6] = h.flags;
    out[7] = 0;
    putLe32(out + 8, h.seq);
    putLe32(out + 12, h.mediaTsMs);
    putLe32(out + 16, h.payloadLen);
}

ParseResult
parseMessageHeader(const uint8_t *data, size_t n, MessageHeader *out)
{
    if (const ParseResult r =
            checkPrefix(data, n, kMessageMagic, kMessageHeaderSize);
        r != ParseResult::Ok)
        return r;
    if (data[4] > static_cast<uint8_t>(MsgType::Stats))
        return ParseResult::Bad;
    if (data[5] > static_cast<uint8_t>(Status::Canceled))
        return ParseResult::Bad;
    out->type = static_cast<MsgType>(data[4]);
    out->status = static_cast<Status>(data[5]);
    out->flags = data[6];
    out->seq = getLe32(data + 8);
    out->mediaTsMs = getLe32(data + 12);
    out->payloadLen = getLe32(data + 16);
    if (out->payloadLen > kMaxPayloadBytes)
        return ParseResult::Bad;
    return ParseResult::Ok;
}

std::vector<uint8_t>
encodeStatsRequest()
{
    std::vector<uint8_t> out(kRequestHeaderSize);
    std::memcpy(out.data(), kStatsMagic, 4);
    putLe16(out.data() + 4, kProtocolVersion);
    putLe16(out.data() + 6, 0);
    putLe32(out.data() + 8, 0);
    return out;
}

ParseResult
parseStatsRequest(const uint8_t *data, size_t n, size_t *consumed)
{
    if (const ParseResult r =
            checkPrefix(data, n, kStatsMagic, kRequestHeaderSize);
        r != ParseResult::Ok)
        return r;
    if (getLe16(data + 4) != kProtocolVersion)
        return ParseResult::Bad;
    if (getLe32(data + 8) != 0)
        return ParseResult::Bad;
    *consumed = kRequestHeaderSize;
    return ParseResult::Ok;
}

std::vector<uint8_t>
encodeMessage(const MessageHeader &h, const uint8_t *payload, size_t n)
{
    MessageHeader hdr = h;
    hdr.payloadLen = static_cast<uint32_t>(n);
    std::vector<uint8_t> out(kMessageHeaderSize + n);
    encodeMessageHeader(hdr, out.data());
    if (n)
        std::memcpy(out.data() + kMessageHeaderSize, payload, n);
    return out;
}

} // namespace m4ps::serve
