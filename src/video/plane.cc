#include "video/plane.hh"

#include <cstring>

#include "support/logging.hh"

namespace m4ps::video
{

void
Plane::fill(uint8_t v)
{
    if (!empty())
        fillRows(0, h_, v);
}

void
Plane::fillRows(int y0, int y1, uint8_t v)
{
    M4PS_ASSERT(0 <= y0 && y0 <= y1 && y1 <= h_, "fillRows [", y0, ", ",
                y1, ") outside ", h_, " rows");
    if (y0 < y1)
        std::memset(rowPtr(y0), v, static_cast<size_t>(stride_) * (y1 - y0));
}

void
Plane::copyFrom(const Plane &src)
{
    M4PS_ASSERT(src.w_ == w_ && src.h_ == h_,
                "copyFrom size mismatch: ", src.w_, "x", src.h_,
                " vs ", w_, "x", h_);
    for (int y = 0; y < h_; ++y)
        std::memcpy(rowPtr(y), src.rowPtr(y), static_cast<size_t>(w_));
}

} // namespace m4ps::video
