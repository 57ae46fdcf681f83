/**
 * @file
 * Blocking test/bench client for the m4ps_serve protocol.
 *
 * runClientSession() opens a connection, sends one framed request,
 * and reads DATA messages until the terminal STATUS arrives,
 * reassembling the elementary stream (running fec::recover() on each
 * payload the server flagged as FEC-framed).  The ClientBehavior
 * knobs turn the same code into a misbehaving client for the load
 * generator's robustness drills: slow-loris reads, mid-session
 * disconnects, stalls, malformed or absent requests.  Every drill the
 * daemon is supposed to survive is expressed here so tests, bench,
 * and m4ps_loadgen share one implementation.
 */

#ifndef M4PS_SERVE_CLIENT_HH
#define M4PS_SERVE_CLIENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hh"

namespace m4ps::serve
{

/** Scripted client (mis)behavior. */
struct ClientBehavior
{
    /** Stall (stop reading) for stallMs once, after this many
     *  packets.  One-shot: a single scripted wedge, not a slow
     *  reader - use readChunkBytes/readIntervalMs for slow-loris. */
    int stallAfterPackets = -1;
    int64_t stallMs = 0;

    /** Cap SO_RCVBUF before connecting (0 = kernel default).  Pins
     *  the receive window so a scripted stall backs pressure up into
     *  the daemon instead of vanishing into buffer autotuning. */
    int rcvbufBytes = 0;

    /** Hard-close the socket after this many packets (< 0 = never). */
    int disconnectAfterPackets = -1;

    /** Send garbage bytes instead of a framed request. */
    bool malformedRequest = false;

    /** Send nothing at all (drills the idle timeout). */
    bool omitRequest = false;

    /** Slow-loris: read at most this many bytes per interval. */
    size_t readChunkBytes = 0; //!< 0 = read freely.
    int64_t readIntervalMs = 0;

    /** Give up entirely after this long (safety net). */
    int64_t overallTimeoutMs = 60000;
};

/** What one session observed. */
struct ClientResult
{
    bool connected = false;
    bool gotFinal = false;        //!< A STATUS message arrived.
    Status finalStatus = Status::InternalError;
    std::string statusJson;       //!< STATUS payload (JSON text).
    uint64_t packets = 0;         //!< DATA messages received.
    uint64_t payloadBytes = 0;    //!< Recovered payload bytes.
    uint64_t seqGaps = 0;         //!< Non-dense sequence numbers.
    int64_t latencyMs = 0;        //!< Connect to final/close.
    std::vector<uint8_t> stream;  //!< Reassembled elementary stream.
    std::string error;            //!< Transport-level failure, if any.
};

/** Run one session against @p endpoint with spec body @p spec. */
ClientResult runClientSession(const std::string &endpoint,
                              const std::string &spec,
                              const ClientBehavior &behavior = {});

/**
 * Ask a running daemon for its live ServiceSnapshot: connect, send
 * one M4SS STATS frame, read the Stats reply.  Returns the
 * m4ps-stats-v1 JSON text, or empty with @p err set on any failure.
 * STATS bypasses admission, so this works against a saturated or
 * draining daemon (m4ps_top and the CI scrape ride on it).
 */
std::string queryServerStats(const std::string &endpoint,
                             std::string *err,
                             int64_t timeoutMs = 2000);

} // namespace m4ps::serve

#endif // M4PS_SERVE_CLIENT_HH
