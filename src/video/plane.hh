/**
 * @file
 * 2-D sample planes backed by simulated memory.
 *
 * A Plane is one component (luminance, chrominance, or alpha) stored
 * row-major with a padded stride, exactly like the reference codec's
 * frame stores.  Element accessors are traced; raw accessors exist
 * for content generation and verification, which stand for file I/O
 * rather than codec work.
 */

#ifndef M4PS_VIDEO_PLANE_HH
#define M4PS_VIDEO_PLANE_HH

#include <algorithm>
#include <cstdint>

#include "memsim/buffer.hh"

namespace m4ps::video
{

/** Integer rectangle (x, y, w, h). */
struct Rect
{
    int x = 0;
    int y = 0;
    int w = 0;
    int h = 0;

    bool contains(int px, int py) const
    {
        return px >= x && px < x + w && py >= y && py < y + h;
    }

    bool operator==(const Rect &o) const = default;
};

/** One 8-bit sample plane with simulated addressing. */
class Plane
{
  public:
    Plane() = default;

    /**
     * Allocate a @p w x @p h plane from @p ctx.  The stride adds a
     * 16-sample border and rounds to a multiple of 16, matching the
     * reference software's padded frame stores.  The border also
     * keeps power-of-two widths (1024) from aliasing rows onto the
     * same cache sets.
     */
    Plane(memsim::SimContext &ctx, int w, int h)
        : w_(w), h_(h), stride_((w + 16 + 15) & ~15),
          buf_(ctx, static_cast<size_t>(stride_) * h)
    {}

    int width() const { return w_; }
    int height() const { return h_; }
    int stride() const { return stride_; }
    bool empty() const { return w_ == 0 || h_ == 0; }

    /** Traced single-pixel load. */
    uint8_t loadPx(int x, int y) const { return buf_.load(index(x, y)); }

    /** Traced single-pixel store. */
    void storePx(int x, int y, uint8_t v) { buf_.store(index(x, y), v); }

    /** Trace @p n pixel loads along row @p y starting at @p x. */
    void
    traceLoadRow(int x, int y, int n) const
    {
        buf_.traceLoadRow(index(x, y), n);
    }

    /** Trace @p n pixel stores along row @p y starting at @p x. */
    void
    traceStoreRow(int x, int y, int n)
    {
        buf_.traceStoreRow(index(x, y), n);
    }

    /** Software prefetch of the line holding (@p x, @p y). */
    void prefetch(int x, int y) const { buf_.prefetch(index(x, y)); }

    /** Untraced accessors. */
    uint8_t rawAt(int x, int y) const { return buf_.raw(index(x, y)); }
    uint8_t &rawAt(int x, int y) { return buf_.raw(index(x, y)); }

    /** Untraced access clamped to the plane borders (edge padding). */
    uint8_t
    rawClamped(int x, int y) const
    {
        return rawAt(std::clamp(x, 0, w_ - 1), std::clamp(y, 0, h_ - 1));
    }

    const uint8_t *rowPtr(int y) const
    {
        return buf_.data() + static_cast<size_t>(y) * stride_;
    }

    uint8_t *rowPtr(int y)
    {
        return buf_.data() + static_cast<size_t>(y) * stride_;
    }

    /** Untraced constant fill. */
    void fill(uint8_t v);

    /** Untraced constant fill of rows [@p y0, @p y1), padding included. */
    void fillRows(int y0, int y1, uint8_t v);

    /** Untraced pixel copy from a same-sized plane. */
    void copyFrom(const Plane &src);

    memsim::MemoryHierarchy *mem() const { return buf_.mem(); }

  private:
    size_t
    index(int x, int y) const
    {
        return static_cast<size_t>(y) * stride_ + x;
    }

    int w_ = 0;
    int h_ = 0;
    int stride_ = 0;
    memsim::SimBuffer<uint8_t> buf_;
};

} // namespace m4ps::video

#endif // M4PS_VIDEO_PLANE_HH
