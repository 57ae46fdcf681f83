/**
 * @file
 * Minimal blocking-socket helpers shared by the m4ps_serve daemon,
 * the client library, and the load generator.
 *
 * Endpoints are strings: "unix:/path/to.sock" for an AF_UNIX stream
 * socket, "tcp:PORT" or "tcp:HOST:PORT" for IPv4 loopback TCP
 * ("tcp:0" binds an ephemeral port; the daemon reports the actual
 * one).  All I/O helpers are poll()-bounded so no caller ever blocks
 * without a deadline - the building block both the slow-loris
 * defenses and the drain logic rely on - and writes use MSG_NOSIGNAL
 * so a vanished peer surfaces as EPIPE, never SIGPIPE.
 */

#ifndef M4PS_SERVE_NET_HH
#define M4PS_SERVE_NET_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

namespace m4ps::serve
{

/** A listening or connected endpoint that cannot be honored. */
class NetError : public std::runtime_error
{
  public:
    explicit NetError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** Bind + listen on @p endpoint; returns the fd.  Throws NetError. */
int listenOn(const std::string &endpoint, int backlog);

/** Close a listenOn() fd; a unix: endpoint's socket file goes too. */
void closeListener(int listenFd, const std::string &endpoint);

/** The canonical endpoint string of a bound listener fd. */
std::string boundEndpoint(int listenFd, const std::string &requested);

/**
 * Connect to @p endpoint; returns fd or -1 (sets @p err if given).
 * A positive @p rcvbufBytes caps SO_RCVBUF before connecting, pinning
 * the advertised receive window: robustness drills use it so a
 * scripted slow reader exerts real transport backpressure instead of
 * hiding behind kernel buffer autotuning.
 */
int connectTo(const std::string &endpoint, std::string *err = nullptr,
              int rcvbufBytes = 0);

/**
 * Send all @p n bytes.  Each stall polls up to @p pollTimeoutMs and
 * then calls @p keepGoing(); a false return (or a peer error) stops
 * the write.  Returns true when every byte went out.
 */
bool sendAll(int fd, const uint8_t *data, size_t n, int pollTimeoutMs,
             const std::function<bool()> &keepGoing);

/**
 * Receive up to @p cap bytes after waiting at most @p timeoutMs for
 * readability.  Returns bytes read, 0 on orderly EOF, -1 on timeout,
 * -2 on error.
 */
long recvSome(int fd, uint8_t *buf, size_t cap, int timeoutMs);

/** Close both directions (wakes blocked peers) then the fd. */
void shutdownAndClose(int fd);

} // namespace m4ps::serve

#endif // M4PS_SERVE_NET_HH
