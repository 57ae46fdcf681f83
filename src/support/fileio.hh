/**
 * @file
 * Whole-file I/O for job inputs and for files published to other
 * processes (streams, reports, checkpoints, trace shards, metrics).
 */

#ifndef M4PS_SUPPORT_FILEIO_HH
#define M4PS_SUPPORT_FILEIO_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace m4ps::support
{

/**
 * Write @p n bytes to @p path durably: write `<path>.tmp`, fsync it,
 * rename it over @p path.  A reader, or a restart after a crash or
 * power cut, sees the old or the new content, never a torn file.
 * Throws std::runtime_error on failure and leaves no temp file.
 */
void writeFileAtomic(const std::string &path, const void *data,
                     size_t n);

inline void
writeFileAtomic(const std::string &path, std::string_view text)
{
    writeFileAtomic(path, text.data(), text.size());
}

/**
 * Read all of @p path into @p out.  Returns false, without blocking,
 * unless @p path is a readable regular file: a FIFO would block the
 * open until a writer appears, and a device such as /dev/zero never
 * ends.
 */
bool readRegularFile(const std::string &path, std::vector<uint8_t> &out);

} // namespace m4ps::support

#endif // M4PS_SUPPORT_FILEIO_HH
