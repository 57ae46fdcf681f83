#include "serve/net.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <netinet/in.h>
#include <poll.h>
#include <string_view>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace m4ps::serve
{

namespace
{

constexpr std::string_view kUnixPrefix = "unix:";
constexpr std::string_view kTcpPrefix = "tcp:";

/** An endpoint string resolved to the socket address it names. */
struct Resolved
{
    int family = AF_UNSPEC; //!< AF_UNSPEC when error is set.
    union
    {
        sockaddr_un un;
        sockaddr_in in;
    } addr{};
    socklen_t len = 0;
    std::string error; //!< Why the endpoint is unusable.

    const sockaddr *sa() const
    {
        return reinterpret_cast<const sockaddr *>(&addr);
    }
};

/**
 * Parse "unix:PATH", "tcp:PORT" or "tcp:HOST:PORT" (HOST a dotted
 * IPv4 address, 127.0.0.1 when absent).  Allocates only on failure.
 */
Resolved
resolve(const std::string &endpoint)
{
    Resolved r;
    auto fail = [&r, &endpoint](const char *why) {
        r.error = std::string(why) + ": " + endpoint;
        return r;
    };
    const std::string_view ep = endpoint;
    if (ep.starts_with(kUnixPrefix)) {
        const std::string_view path = ep.substr(kUnixPrefix.size());
        sockaddr_un &un = r.addr.un;
        if (path.size() + 1 > sizeof(un.sun_path))
            return fail("unix socket path too long");
        un.sun_family = AF_UNIX;
        path.copy(un.sun_path, path.size()); // NUL from zero-init
        r.family = AF_UNIX;
        r.len = sizeof(un);
        return r;
    }
    if (!ep.starts_with(kTcpPrefix))
        return fail("endpoint must start with unix: or tcp:");
    std::string_view host = "127.0.0.1";
    size_t portAt = kTcpPrefix.size();
    const size_t colon = ep.rfind(':');
    if (colon >= portAt) {
        host = ep.substr(portAt, colon - portAt);
        portAt = colon + 1;
    }
    if (portAt == ep.size())
        return fail("bad tcp endpoint");
    char *end = nullptr;
    const long port = std::strtol(endpoint.c_str() + portAt, &end, 10);
    if (*end != '\0' || port < 0 || port > 65535)
        return fail("bad tcp endpoint");
    char hostText[INET_ADDRSTRLEN] = {};
    if (host.size() >= sizeof(hostText))
        return fail("bad tcp host");
    host.copy(hostText, host.size());
    sockaddr_in in{};
    if (::inet_pton(AF_INET, hostText, &in.sin_addr) != 1)
        return fail("bad tcp host");
    in.sin_family = AF_INET;
    in.sin_port = htons(static_cast<uint16_t>(port));
    r.addr.in = in;
    r.family = AF_INET;
    r.len = sizeof(in);
    return r;
}

} // namespace

int
listenOn(const std::string &endpoint, int backlog)
{
    const Resolved r = resolve(endpoint);
    if (!r.error.empty())
        throw NetError(r.error);
    const int fd = ::socket(r.family, SOCK_STREAM, 0);
    if (fd < 0)
        throw NetError(std::string("socket: ") + std::strerror(errno));
    if (r.family == AF_UNIX) {
        ::unlink(r.addr.un.sun_path); // stale socket from a prior run
    } else {
        const int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    }
    if (::bind(fd, r.sa(), r.len) != 0 || ::listen(fd, backlog) != 0) {
        const int e = errno;
        ::close(fd);
        throw NetError("bind/listen " + endpoint + ": " +
                       std::strerror(e));
    }
    return fd;
}

void
closeListener(int listenFd, const std::string &endpoint)
{
    shutdownAndClose(listenFd);
    const Resolved r = resolve(endpoint);
    if (r.family == AF_UNIX)
        ::unlink(r.addr.un.sun_path);
}

std::string
boundEndpoint(int listenFd, const std::string &requested)
{
    if (!requested.starts_with(kTcpPrefix))
        return requested;
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (::getsockname(listenFd, reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0)
        return requested;
    char host[INET_ADDRSTRLEN] = "127.0.0.1";
    ::inet_ntop(AF_INET, &addr.sin_addr, host, sizeof(host));
    return std::string(kTcpPrefix) + host + ":" +
           std::to_string(ntohs(addr.sin_port));
}

int
connectTo(const std::string &endpoint, std::string *err,
          int rcvbufBytes)
{
    auto fail = [err](const std::string &what) {
        if (err != nullptr)
            *err = what;
        return -1;
    };
    const Resolved r = resolve(endpoint);
    if (!r.error.empty())
        return fail(r.error);
    const int fd = ::socket(r.family, SOCK_STREAM, 0);
    if (fd < 0)
        return fail(std::strerror(errno));
    if (rcvbufBytes > 0)
        ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbufBytes,
                     sizeof(rcvbufBytes));
    if (::connect(fd, r.sa(), r.len) != 0) {
        const int e = errno;
        ::close(fd);
        return fail(std::strerror(e));
    }
    return fd;
}

bool
sendAll(int fd, const uint8_t *data, size_t n, int pollTimeoutMs,
        const std::function<bool()> &keepGoing)
{
    size_t sent = 0;
    while (sent < n) {
        pollfd pfd{fd, POLLOUT, 0};
        const int r = ::poll(&pfd, 1, pollTimeoutMs);
        if (r < 0 && errno != EINTR)
            return false;
        if (r <= 0) {
            if (keepGoing && !keepGoing())
                return false;
            continue;
        }
        if ((pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0)
            return false;
        const ssize_t w =
            ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR || errno == EAGAIN ||
                errno == EWOULDBLOCK)
                continue;
            return false;
        }
        sent += static_cast<size_t>(w);
    }
    return true;
}

long
recvSome(int fd, uint8_t *buf, size_t cap, int timeoutMs)
{
    pollfd pfd{fd, POLLIN, 0};
    const int r = ::poll(&pfd, 1, timeoutMs);
    if (r < 0)
        return errno == EINTR ? -1 : -2;
    if (r == 0)
        return -1;
    const ssize_t n = ::recv(fd, buf, cap, 0);
    if (n < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
            return -1;
        return -2;
    }
    return n;
}

void
shutdownAndClose(int fd)
{
    if (fd < 0)
        return;
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
}

} // namespace m4ps::serve
