#include "support/fileio.hh"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace m4ps::support
{

void
writeFileAtomic(const std::string &path, const void *data, size_t n)
{
    // Sync before the rename: a rename alone orders the *name* change,
    // not the data, so after a power cut the new name could point at
    // zero-length or partial content on many filesystems.
    const std::string tmp = path + ".tmp";
    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
               0644);
    if (fd < 0)
        throw std::runtime_error("cannot write '" + tmp + "'");
    const auto *p = static_cast<const uint8_t *>(data);
    size_t off = 0;
    while (off < n) {
        const ssize_t w = ::write(fd, p + off, n - off);
        if (w <= 0)
            break;
        off += static_cast<size_t>(w);
    }
    const bool ok = off == n && ::fsync(fd) == 0;
    if (::close(fd) != 0 || !ok ||
        std::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        throw std::runtime_error("cannot write '" + path + "'");
    }
}

bool
readRegularFile(const std::string &path, std::vector<uint8_t> &out)
{
    const int fd =
        ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
    if (fd < 0)
        return false;
    struct stat st {};
    bool ok = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
    const size_t size = ok ? static_cast<size_t>(st.st_size) : 0;
    // 8 KiB reads through a heap buffer, bytes appended one at a time
    // so the vector grows by doubling from empty, as a stream-iterator
    // read does.  Exact-size, power-of-two and 64 KiB-chunk buffers
    // each raised serve's peak RSS (by 12% up to half, perfbench
    // serve_fec): glibc's per-thread arenas keep what they grew to.
    std::vector<uint8_t> buf(8192);
    out.clear();
    while (ok && out.size() < size) {
        const ssize_t r = ::read(
            fd, buf.data(), std::min(buf.size(), size - out.size()));
        ok = r >= 0;
        if (r <= 0)
            break; // a file that shrank under us keeps what was there
        for (ssize_t i = 0; i < r; ++i)
            out.push_back(buf[i]);
    }
    ::close(fd);
    return ok;
}

} // namespace m4ps::support
