#include "video/scene.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "support/logging.hh"
#include "support/obs/obs.hh"
#include "support/random.hh"
#include "support/threadpool.hh"

namespace m4ps::video
{

namespace
{

/** 2-D integer hash -> [0, 255]. */
uint32_t
hash2(uint32_t seed, int x, int y)
{
    uint32_t h = seed;
    h ^= static_cast<uint32_t>(x) * 0x85ebca6bu;
    h = (h << 13) | (h >> 19);
    h ^= static_cast<uint32_t>(y) * 0xc2b2ae35u;
    h *= 0x27d4eb2fu;
    h ^= h >> 15;
    return h;
}

/** The fine-grain dither, indexed by five hash bits of the pixel. */
constexpr std::array<double, 32> kGrain = [] {
    std::array<double, 32> g{};
    for (int k = 0; k < 32; ++k)
        g[k] = (k - 15.5) * 0.4;
    return g;
}();

/** Luma rows per band: one macroblock row. */
constexpr int kBandRows = 16;

/**
 * Run body(y0, y1) for bands of luma rows [y0, y1) tiling [0, h), one
 * pool task per band.  Bands are kBandRows rows, the last up to twice
 * that, and start on even rows, so each owns the chroma rows
 * [y0 / 2, y1 / 2) of a 4:2:0 frame.
 */
template <typename Body>
void
forEachBand(int h, const Body &body)
{
    const int bands = std::max(h / kBandRows, 1);
    support::ThreadPool::global().parallelFor(bands, [&](int b) {
        // On a worker a band is otherwise a bare pool.task, and its
        // time would count against the pool, not the video layer.
        obs::Span span("video", "video.band");
        body(b * kBandRows, b + 1 == bands ? h : (b + 1) * kBandRows);
    });
}

bool
insideObject(const ObjectSpec &o, double cx, double cy, int x, int y)
{
    const double dx = (x - cx) / o.rx;
    const double dy = (y - cy) / o.ry;
    return dx * dx + dy * dy <= 1.0;
}

} // namespace

int
TextureRow::column(int cx) const
{
    return static_cast<int>(hash2(seed_, cx, y0_) & 0xff) * (8 - fy_) +
           static_cast<int>(hash2(seed_, cx, y0_ + 1) & 0xff) * fy_;
}

void
TextureRow::run(int x, int n, uint8_t *out)
{
    // Locals, not members: stores through out may alias any object,
    // and would make every member a reload.
    const uint32_t grainSeed = seed_ ^ 0xabcd;
    const int y = y_;
    int cell = cell_, left = left_, right = right_;
    for (int i = 0; i < n; ++i, ++x) {
        const int c = x >> 3;
        if (c != cell) {
            // Walking right, the old right column is the new left one.
            left = c == cell + 1 ? right : column(c);
            right = column(c + 1);
            cell = c;
        }
        const int fx = x & 7;
        // s is 64 times the bilinear blend v of the corners, so
        // v * 0.75 + 32, the texture before dither, is
        // (3 s + 8192) / 256.  Both are exact: the corners are
        // integers and fx, fy count eighths.  Only adding the dither
        // rounds.
        const int s = left * (8 - fx) + right * fx;
        const double v = (3 * s + 8192) / 256.0 +
                         kGrain[hash2(grainSeed, x, y) & 0x1f];
        out[i] = static_cast<uint8_t>(std::clamp(v, 0.0, 255.0));
    }
    cell_ = cell;
    left_ = left;
    right_ = right;
}

uint8_t
textureSample(uint32_t seed, int x, int y)
{
    return TextureRow(seed, y).at(x);
}

SceneGenerator::SceneGenerator(int w, int h, int num_objects,
                               uint64_t seed)
    : w_(w), h_(h), seed_(seed)
{
    M4PS_ASSERT(w > 0 && h > 0, "bad scene size ", w, "x", h);
    M4PS_ASSERT(num_objects >= 0 && num_objects <= 16,
                "unsupported object count ", num_objects);
    Rng rng(seed);
    for (int i = 0; i < num_objects; ++i) {
        ObjectSpec o;
        o.rx = w * rng.uniformReal(0.06, 0.12);
        o.ry = h * rng.uniformReal(0.08, 0.16);
        o.cx = rng.uniformReal(o.rx + 8, w - o.rx - 8);
        o.cy = rng.uniformReal(o.ry + 8, h - o.ry - 8);
        // A few pixels per frame: realistic inter-frame motion.
        o.vx = rng.uniformReal(1.0, 4.0) * (rng.chance(0.5) ? 1 : -1);
        o.vy = rng.uniformReal(0.5, 3.0) * (rng.chance(0.5) ? 1 : -1);
        o.textureSeed = static_cast<uint32_t>(rng.next());
        o.chromaU = static_cast<uint8_t>(rng.uniformInt(64, 192));
        o.chromaV = static_cast<uint8_t>(rng.uniformInt(64, 192));
        objects_.push_back(o);
    }
}

void
SceneGenerator::objectCenter(int t, int obj, double &cx, double &cy) const
{
    const ObjectSpec &o = objects_[obj];
    // Advance with elastic reflection off the frame borders.
    auto bounce = [](double p, double v, double t_, double lo, double hi) {
        const double span = hi - lo;
        if (span <= 0)
            return lo;
        double q = std::fmod(p - lo + v * t_, 2 * span);
        if (q < 0)
            q += 2 * span;
        return lo + (q <= span ? q : 2 * span - q);
    };
    cx = bounce(o.cx, o.vx, t, o.rx, w_ - o.rx);
    cy = bounce(o.cy, o.vy, t, o.ry, h_ - o.ry);
}

void
SceneGenerator::backgroundRows(int t, int y0, int y1,
                               Yuv420Image &out) const
{
    const uint32_t seed = static_cast<uint32_t>(seed_);
    // Slow horizontal pan (half a pixel per frame) over a large
    // texture plus a gentle vertical gradient.
    // Each row takes its texture samples first, then maps them in
    // place.
    for (int y = y0; y < y1; ++y) {
        const int grad = (y * 48) / h_;
        uint8_t *row = out.y().rowPtr(y);
        TextureRow(seed, y).run(t / 2, w_, row);
        for (int x = 0; x < w_; ++x)
            row[x] = static_cast<uint8_t>(
                std::clamp(row[x] / 2 + 64 + grad, 0, 255));
    }
    // Mild chroma texture derived from luma lattice.
    for (int y = y0 / 2; y < y1 / 2; ++y) {
        uint8_t *ru = out.u().rowPtr(y);
        uint8_t *rv = out.v().rowPtr(y);
        TextureRow(seed ^ 0x11, y).run(t / 4, w_ / 2, ru);
        TextureRow(seed ^ 0x22, y).run(0, w_ / 2, rv);
        for (int x = 0; x < w_ / 2; ++x) {
            ru[x] = static_cast<uint8_t>(120 + (ru[x] >> 4));
            rv[x] = static_cast<uint8_t>(124 + (rv[x] >> 4));
        }
    }
}

void
SceneGenerator::objectRows(int t, int obj, int y0, int y1,
                           Yuv420Image &out, Plane *alpha) const
{
    const ObjectSpec &o = objects_[obj];
    double cx, cy;
    objectCenter(t, obj, cx, cy);
    const Rect bb = objectBBox(t, obj);
    for (int y = std::max(bb.y, y0); y < std::min(bb.y + bb.h, y1); ++y) {
        // Texture moves with the object so motion estimation can
        // track it.
        TextureRow tex(o.textureSeed,
                       static_cast<int>(std::lround(y - cy)) + 4096);
        uint8_t *row = out.y().rowPtr(y);
        uint8_t *arow = alpha ? alpha->rowPtr(y) : nullptr;
        for (int x = bb.x; x < bb.x + bb.w; ++x) {
            if (!insideObject(o, cx, cy, x, y))
                continue;
            row[x] = tex.at(static_cast<int>(std::lround(x - cx)) + 4096);
            if (arow)
                arow[x] = 255;
        }
    }
    for (int y = std::max(bb.y / 2, y0 / 2);
         y < std::min((bb.y + bb.h) / 2, y1 / 2); ++y) {
        uint8_t *ru = out.u().rowPtr(y);
        uint8_t *rv = out.v().rowPtr(y);
        for (int x = bb.x / 2; x < (bb.x + bb.w) / 2; ++x) {
            if (insideObject(o, cx / 2, cy / 2, x, y) ||
                insideObject(o, cx, cy, 2 * x, 2 * y)) {
                ru[x] = o.chromaU;
                rv[x] = o.chromaV;
            }
        }
    }
}

void
SceneGenerator::renderBackground(int t, Yuv420Image &out) const
{
    M4PS_ASSERT(out.width() == w_ && out.height() == h_,
                "frame size mismatch");
    forEachBand(h_, [&](int y0, int y1) {
        backgroundRows(t, y0, y1, out);
    });
}

void
SceneGenerator::renderFrame(int t, Yuv420Image &out) const
{
    M4PS_ASSERT(out.width() == w_ && out.height() == h_,
                "frame size mismatch");
    forEachBand(h_, [&](int y0, int y1) {
        backgroundRows(t, y0, y1, out);
        // Later objects cover earlier ones.
        for (int i = 0; i < numObjects(); ++i)
            objectRows(t, i, y0, y1, out, nullptr);
    });
}

void
SceneGenerator::renderObject(int t, int obj, Yuv420Image &out,
                             Plane &alpha) const
{
    M4PS_ASSERT(obj >= 0 && obj < numObjects(), "bad object ", obj);
    M4PS_ASSERT(out.width() == w_ && out.height() == h_,
                "frame size mismatch");
    M4PS_ASSERT(alpha.width() == w_ && alpha.height() == h_,
                "alpha size mismatch");
    forEachBand(h_, [&](int y0, int y1) {
        // Mid-grey and transparent outside the object.
        out.y().fillRows(y0, y1, 128);
        out.u().fillRows(y0 / 2, y1 / 2, 128);
        out.v().fillRows(y0 / 2, y1 / 2, 128);
        alpha.fillRows(y0, y1, 0);
        objectRows(t, obj, y0, y1, out, &alpha);
    });
}

Rect
SceneGenerator::objectBBox(int t, int obj) const
{
    const ObjectSpec &o = objects_[obj];
    double cx, cy;
    objectCenter(t, obj, cx, cy);
    int x0 = static_cast<int>(std::floor(cx - o.rx)) - 1;
    int y0 = static_cast<int>(std::floor(cy - o.ry)) - 1;
    int x1 = static_cast<int>(std::ceil(cx + o.rx)) + 1;
    int y1 = static_cast<int>(std::ceil(cy + o.ry)) + 1;
    x0 = std::max(x0, 0);
    y0 = std::max(y0, 0);
    x1 = std::min(x1, w_);
    y1 = std::min(y1, h_);
    return {x0, y0, std::max(x1 - x0, 0), std::max(y1 - y0, 0)};
}

} // namespace m4ps::video
