#include "fec/interleave.hh"

#include <algorithm>

namespace m4ps::fec
{

namespace
{

/**
 * Column-major walk over a depth x cols matrix filled row-major with
 * n elements; calls fn(rowMajorIndex) for each present cell in read
 * order.
 */
template <typename Fn>
void
walkColumns(size_t n, int depth, Fn &&fn)
{
    const size_t rows = static_cast<size_t>(depth);
    const size_t cols = (n + rows - 1) / rows;
    for (size_t c = 0; c < cols; ++c) {
        for (size_t r = 0; r < rows; ++r) {
            const size_t idx = r * cols + c;
            if (idx < n)
                fn(idx);
        }
    }
}

} // namespace

std::vector<uint8_t>
interleave(const std::vector<uint8_t> &in, int depth)
{
    if (depth <= 1 || in.size() <= 1)
        return in;
    std::vector<uint8_t> out;
    out.reserve(in.size());
    walkColumns(in.size(), depth,
                [&](size_t idx) { out.push_back(in[idx]); });
    return out;
}

void
deinterleave(const uint8_t *in, size_t n, int depth, uint8_t *out)
{
    if (depth <= 1 || n <= 1) {
        std::copy(in, in + n, out);
        return;
    }
    size_t pos = 0;
    walkColumns(n, depth, [&](size_t idx) { out[idx] = in[pos++]; });
}

std::vector<uint8_t>
deinterleave(const std::vector<uint8_t> &in, int depth)
{
    std::vector<uint8_t> out(in.size());
    deinterleave(in.data(), in.size(), depth, out.data());
    return out;
}

int
interleaveDepthForBurst(int burst_bytes)
{
    // A burst of B bytes corrupts 8B consecutive wire symbols; depth
    // 8B spreads them one per row, i.e. isolated errors a column
    // apart after deinterleaving.
    return burst_bytes <= 0 ? 1 : 8 * burst_bytes;
}

} // namespace m4ps::fec
