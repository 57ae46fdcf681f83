/**
 * @file
 * Tests for planes, YUV frames, scene generation, quality metrics,
 * resampling, and composition.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "support/threadpool.hh"
#include "video/composite.hh"
#include "video/plane.hh"
#include "video/quality.hh"
#include "video/resample.hh"
#include "video/scene.hh"
#include "video/yuv.hh"

namespace m4ps::video
{
namespace
{

memsim::SimContext gCtx; // untraced

/**
 * The scene as rendered before the texture became one integer row
 * kernel and frames were rendered in bands on the pool: one double
 * texture sample per pixel, every pixel on the calling thread.  The
 * kernel and the band renderer are held to it pixel for pixel.
 */
namespace reference
{

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

uint8_t
textureSample(uint32_t seed, int x, int y)
{
    // Value noise: hash lattice points every 8 pixels, bilinear blend.
    const int cell = 8;
    const int x0 = x >> 3, y0 = y >> 3;
    const int fx = x & (cell - 1), fy = y & (cell - 1);
    const double tx = fx / static_cast<double>(cell);
    const double ty = fy / static_cast<double>(cell);
    auto corner = [&](int cx, int cy) {
        return static_cast<double>(hash2(seed, cx, cy) & 0xff);
    };
    const double top = corner(x0, y0) * (1 - tx) + corner(x0 + 1, y0) * tx;
    const double bot = corner(x0, y0 + 1) * (1 - tx) +
                       corner(x0 + 1, y0 + 1) * tx;
    const double v = top * (1 - ty) + bot * ty;
    // Add a fine-grain deterministic dither so blocks are not flat.
    const double grain = ((hash2(seed ^ 0xabcd, x, y) & 0x1f) - 15.5) * 0.4;
    const double out = v * 0.75 + 32 + grain;
    return static_cast<uint8_t>(std::clamp(out, 0.0, 255.0));
}

bool
insideObject(const ObjectSpec &o, double cx, double cy, int x, int y)
{
    const double dx = (x - cx) / o.rx;
    const double dy = (y - cy) / o.ry;
    return dx * dx + dy * dy <= 1.0;
}

void
renderBackground(const SceneGenerator &g, uint64_t seed, int t,
                 Yuv420Image &out)
{
    const int w = g.width(), h = g.height();
    for (int y = 0; y < h; ++y) {
        uint8_t *row = out.y().rowPtr(y);
        for (int x = 0; x < w; ++x) {
            const uint8_t tex =
                textureSample(static_cast<uint32_t>(seed), x + t / 2, y);
            const int v = tex / 2 + 64 + (y * 48) / std::max(h, 1);
            row[x] = static_cast<uint8_t>(std::clamp(v, 0, 255));
        }
    }
    for (int y = 0; y < h / 2; ++y) {
        uint8_t *ru = out.u().rowPtr(y);
        uint8_t *rv = out.v().rowPtr(y);
        for (int x = 0; x < w / 2; ++x) {
            ru[x] = static_cast<uint8_t>(
                120 + (textureSample(static_cast<uint32_t>(seed) ^ 0x11,
                                     x + t / 4, y) >> 4));
            rv[x] = static_cast<uint8_t>(
                124 + (textureSample(static_cast<uint32_t>(seed) ^ 0x22,
                                     x, y) >> 4));
        }
    }
}

/** Object @p obj over whatever @p out holds; support into @p alpha. */
void
drawObject(const SceneGenerator &g, int t, int obj, Yuv420Image &out,
           Plane *alpha)
{
    const ObjectSpec &o = g.object(obj);
    double cx, cy;
    g.objectCenter(t, obj, cx, cy);
    const Rect bb = g.objectBBox(t, obj);
    for (int y = bb.y; y < bb.y + bb.h; ++y) {
        for (int x = bb.x; x < bb.x + bb.w; ++x) {
            if (!insideObject(o, cx, cy, x, y))
                continue;
            const int tx = static_cast<int>(std::lround(x - cx)) + 4096;
            const int ty = static_cast<int>(std::lround(y - cy)) + 4096;
            out.y().rowPtr(y)[x] = textureSample(o.textureSeed, tx, ty);
            if (alpha)
                alpha->rowPtr(y)[x] = 255;
        }
    }
    for (int y = bb.y / 2; y < (bb.y + bb.h) / 2; ++y) {
        for (int x = bb.x / 2; x < (bb.x + bb.w) / 2; ++x) {
            if (insideObject(o, cx / 2, cy / 2, x, y) ||
                insideObject(o, cx, cy, 2 * x, 2 * y)) {
                out.u().rowPtr(y)[x] = o.chromaU;
                out.v().rowPtr(y)[x] = o.chromaV;
            }
        }
    }
}

void
renderFrame(const SceneGenerator &g, uint64_t seed, int t,
            Yuv420Image &out)
{
    renderBackground(g, seed, t, out);
    for (int i = 0; i < g.numObjects(); ++i)
        drawObject(g, t, i, out, nullptr);
}

void
renderObject(const SceneGenerator &g, int t, int obj, Yuv420Image &out,
             Plane &alpha)
{
    out.fill(128, 128);
    alpha.fill(0);
    drawObject(g, t, obj, out, &alpha);
}

} // namespace reference

/** Sets the global pool's width for a scope, then restores it. */
class PoolWidth
{
  public:
    explicit PoolWidth(int threads)
        : saved_(support::ThreadPool::global().threads())
    {
        support::ThreadPool::setGlobalThreads(threads);
    }
    ~PoolWidth() { support::ThreadPool::setGlobalThreads(saved_); }

  private:
    int saved_;
};

/** Rows of @p a and @p b that differ, padding included; "" if none. */
std::string
planeDiff(const Plane &a, const Plane &b)
{
    std::string diff;
    for (int y = 0; y < a.height(); ++y) {
        if (!std::equal(a.rowPtr(y), a.rowPtr(y) + a.stride(),
                        b.rowPtr(y)))
            diff += " " + std::to_string(y);
    }
    return diff;
}

TEST(Plane, StrideAddsBorderAndRoundsTo16)
{
    // stride = (width + 16-sample border) rounded up to 16; the
    // border keeps power-of-two widths off identical cache sets.
    Plane p(gCtx, 30, 10);
    EXPECT_EQ(p.width(), 30);
    EXPECT_EQ(p.stride(), 48);
    Plane q(gCtx, 32, 10);
    EXPECT_EQ(q.stride(), 48);
    Plane r(gCtx, 1024, 8);
    EXPECT_EQ(r.stride() % 16, 0);
    EXPECT_GT(r.stride(), 1024);
}

TEST(Plane, FillAndCopy)
{
    Plane p(gCtx, 48, 16);
    p.fill(77);
    EXPECT_EQ(p.rawAt(0, 0), 77);
    EXPECT_EQ(p.rawAt(47, 15), 77);
    Plane q(gCtx, 48, 16);
    q.fill(0);
    q.copyFrom(p);
    EXPECT_EQ(q.rawAt(20, 7), 77);
}

TEST(Plane, ClampedAccessAtBorders)
{
    Plane p(gCtx, 16, 16);
    p.fill(1);
    p.rawAt(0, 0) = 9;
    p.rawAt(15, 15) = 4;
    EXPECT_EQ(p.rawClamped(-5, -3), 9);
    EXPECT_EQ(p.rawClamped(100, 100), 4);
}

TEST(Plane, TracedAccessCountsWhenTraced)
{
    memsim::MemoryHierarchy mem({1024, 2, 32}, {16 * 1024, 2, 128},
                                memsim::CostModel{});
    memsim::SimContext ctx(&mem);
    Plane p(ctx, 32, 8);
    p.storePx(3, 2, 9);
    EXPECT_EQ(p.loadPx(3, 2), 9);
    p.traceLoadRow(0, 1, 16);
    EXPECT_EQ(mem.counters().gradStores, 1u);
    EXPECT_EQ(mem.counters().gradLoads, 17u);
}

TEST(PlaneDeathTest, CopySizeMismatchPanics)
{
    Plane a(gCtx, 16, 16);
    Plane b(gCtx, 32, 16);
    EXPECT_DEATH(a.copyFrom(b), "size mismatch");
}

TEST(Yuv420, ChromaIsHalfSize)
{
    Yuv420Image img(gCtx, 64, 48);
    EXPECT_EQ(img.y().width(), 64);
    EXPECT_EQ(img.u().width(), 32);
    EXPECT_EQ(img.v().height(), 24);
    EXPECT_EQ(&img.plane(0), &img.y());
    EXPECT_EQ(&img.plane(1), &img.u());
    EXPECT_EQ(&img.plane(2), &img.v());
}

TEST(Yuv420DeathTest, OddDimensionsRejected)
{
    EXPECT_DEATH(Yuv420Image(gCtx, 63, 48), "even");
}

TEST(TextureSample, DeterministicAndFullRange)
{
    int lo = 255, hi = 0;
    for (int y = 0; y < 64; ++y) {
        for (int x = 0; x < 64; ++x) {
            const int v = textureSample(5, x, y);
            EXPECT_EQ(v, textureSample(5, x, y));
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
    }
    EXPECT_LT(lo, 80);
    EXPECT_GT(hi, 150);
}

TEST(TextureSample, MatchesReference)
{
    // The row kernel against the per-pixel double formula, for every
    // in-cell phase of x and y.  Rows start at every phase and walk
    // right, which reuses each cell's corners; other rows jump the
    // way object pixels do, back and forth and across cells.  The
    // coordinates reach past 8192: object textures sit near 4096.
    long long samples = 0, mismatches = 0;
    std::string first;
    auto check = [&](uint32_t seed, TextureRow &row, int x, int y) {
        ++samples;
        const uint8_t got = row.at(x);
        const uint8_t want = reference::textureSample(seed, x, y);
        if (got != want && mismatches++ == 0)
            first = "seed " + std::to_string(seed) + " (" +
                    std::to_string(x) + ", " + std::to_string(y) +
                    "): " + std::to_string(got) + " vs " +
                    std::to_string(want);
    };
    for (uint32_t seed :
         {1u, 7u, 5u, 0xdeadbeefu, 0x12345669u, 0xffffffffu}) {
        for (int yBase : {-16, 0, 4088, 8184}) {
            for (int y = yBase; y < yBase + 16; ++y) {
                for (int xBase : {-24, 0, 4064, 8160}) {
                    for (int phase = 0; phase < 8; ++phase) {
                        TextureRow row(seed, y);
                        for (int x = xBase + phase; x < xBase + 48; ++x)
                            check(seed, row, x, y);
                    }
                    TextureRow row(seed, y);
                    for (int x : {xBase + 3, xBase + 3, xBase + 5,
                                  xBase + 2, xBase + 9, xBase + 8,
                                  xBase + 40, xBase + 17, xBase - 9})
                        check(seed, row, x, y);
                }
                for (int x = -8; x < 8200; x += 37) {
                    ++samples;
                    if (textureSample(seed, x, y) !=
                        reference::textureSample(seed, x, y))
                        ++mismatches;
                }
            }
        }
    }
    EXPECT_GT(samples, 500000);
    EXPECT_EQ(mismatches, 0) << "first: " << first;
}

TEST(SceneGenerator, RenderMatchesReference)
{
    // All three render calls against their per-pixel originals, every
    // Y/U/V and alpha byte including the row padding, at pool widths
    // 1 and 4.  Output planes start out poisoned, so a row no band
    // writes shows.
    constexpr uint8_t kPoison = 0x5a;
    const uint64_t seed = 11;
    // 48x40 is the one height that is not a whole number of bands.
    for (const auto &[w, h] :
         {std::pair{16, 16}, std::pair{64, 48}, std::pair{48, 40},
          std::pair{176, 144}, std::pair{720, 576}}) {
        for (int objects = 0; objects <= 3; ++objects) {
            const SceneGenerator gen(w, h, objects, seed + objects);
            for (int t : {0, 5, 29}) {
                const std::string what =
                    std::to_string(w) + "x" + std::to_string(h) + " " +
                    std::to_string(objects) + " objects, t " +
                    std::to_string(t);
                Yuv420Image wantFrame(gCtx, w, h), wantBg(gCtx, w, h);
                wantFrame.fill(kPoison, kPoison);
                wantBg.fill(kPoison, kPoison);
                reference::renderFrame(gen, seed + objects, t, wantFrame);
                reference::renderBackground(gen, seed + objects, t,
                                            wantBg);
                std::vector<Yuv420Image> wantObj;
                std::vector<Plane> wantAlpha;
                for (int o = 0; o < objects; ++o) {
                    wantObj.emplace_back(gCtx, w, h);
                    wantAlpha.emplace_back(gCtx, w, h);
                    reference::renderObject(gen, t, o, wantObj.back(),
                                            wantAlpha.back());
                }
                for (int threads : {1, 4}) {
                    const PoolWidth width(threads);
                    const std::string at =
                        what + ", " + std::to_string(threads) + " threads";
                    Yuv420Image frame(gCtx, w, h), bg(gCtx, w, h);
                    frame.fill(kPoison, kPoison);
                    bg.fill(kPoison, kPoison);
                    gen.renderFrame(t, frame);
                    gen.renderBackground(t, bg);
                    for (int p = 0; p < 3; ++p) {
                        EXPECT_EQ(planeDiff(frame.plane(p),
                                            wantFrame.plane(p)),
                                  "")
                            << "renderFrame plane " << p << ", " << at;
                        EXPECT_EQ(planeDiff(bg.plane(p), wantBg.plane(p)),
                                  "")
                            << "renderBackground plane " << p << ", "
                            << at;
                    }
                    for (int o = 0; o < objects; ++o) {
                        Yuv420Image obj(gCtx, w, h);
                        Plane alpha(gCtx, w, h);
                        obj.fill(kPoison, kPoison);
                        alpha.fill(kPoison);
                        gen.renderObject(t, o, obj, alpha);
                        for (int p = 0; p < 3; ++p) {
                            EXPECT_EQ(planeDiff(obj.plane(p),
                                                wantObj[o].plane(p)),
                                      "")
                                << "renderObject " << o << " plane " << p
                                << ", " << at;
                        }
                        EXPECT_EQ(planeDiff(alpha, wantAlpha[o]), "")
                            << "renderObject " << o << " alpha, " << at;
                    }
                }
            }
        }
    }
}

TEST(SceneGenerator, DeterministicAcrossInstances)
{
    SceneGenerator a(64, 64, 2, 99);
    SceneGenerator b(64, 64, 2, 99);
    Yuv420Image fa(gCtx, 64, 64), fb(gCtx, 64, 64);
    a.renderFrame(7, fa);
    b.renderFrame(7, fb);
    EXPECT_DOUBLE_EQ(mse(fa.y(), fb.y()), 0.0);
    EXPECT_DOUBLE_EQ(mse(fa.u(), fb.u()), 0.0);
}

TEST(SceneGenerator, ObjectsMoveOverTime)
{
    SceneGenerator gen(128, 128, 1, 3);
    double x0, y0, x1, y1;
    gen.objectCenter(0, 0, x0, y0);
    gen.objectCenter(5, 0, x1, y1);
    const double dist = std::hypot(x1 - x0, y1 - y0);
    EXPECT_GT(dist, 2.0);   // real motion...
    EXPECT_LT(dist, 40.0);  // ...but trackable
}

TEST(SceneGenerator, ObjectStaysInsideFrame)
{
    SceneGenerator gen(96, 80, 3, 17);
    for (int t = 0; t < 200; t += 7) {
        for (int o = 0; o < 3; ++o) {
            const Rect bb = gen.objectBBox(t, o);
            EXPECT_GE(bb.x, 0);
            EXPECT_GE(bb.y, 0);
            EXPECT_LE(bb.x + bb.w, 96);
            EXPECT_LE(bb.y + bb.h, 80);
            EXPECT_GT(bb.w, 0);
            EXPECT_GT(bb.h, 0);
        }
    }
}

TEST(SceneGenerator, AlphaMatchesObjectSupport)
{
    SceneGenerator gen(128, 96, 1, 23);
    Yuv420Image frame(gCtx, 128, 96);
    Plane alpha(gCtx, 128, 96);
    gen.renderObject(4, 0, frame, alpha);
    uint64_t set = 0;
    for (int y = 0; y < 96; ++y)
        for (int x = 0; x < 128; ++x)
            set += alpha.rawAt(x, y) ? 1 : 0;
    // The ellipse covers a nontrivial but partial area.
    EXPECT_GT(set, 200u);
    EXPECT_LT(set, 128u * 96 / 2);
    // Pixels outside the object are mid-grey.
    const Rect bb = gen.objectBBox(4, 0);
    if (bb.x > 0) {
        EXPECT_EQ(frame.y().rawAt(0, 0), 128);
        EXPECT_EQ(alpha.rawAt(0, 0), 0);
    }
}

TEST(SceneGenerator, CompositeEqualsBackgroundPlusObjects)
{
    SceneGenerator gen(64, 64, 1, 31);
    Yuv420Image full(gCtx, 64, 64), bg(gCtx, 64, 64),
        obj(gCtx, 64, 64);
    Plane alpha(gCtx, 64, 64);
    gen.renderFrame(3, full);
    gen.renderBackground(3, bg);
    gen.renderObject(3, 0, obj, alpha);
    compositeOver(bg, obj, &alpha);
    EXPECT_DOUBLE_EQ(mse(full.y(), bg.y()), 0.0);
}

TEST(Quality, PsnrIdentityIsMax)
{
    Plane a(gCtx, 32, 32);
    a.fill(100);
    EXPECT_DOUBLE_EQ(psnr(a, a), 99.0);
}

TEST(Quality, PsnrDecreasesWithNoise)
{
    Plane a(gCtx, 32, 32), b(gCtx, 32, 32), c(gCtx, 32, 32);
    a.fill(100);
    b.fill(102);
    c.fill(110);
    EXPECT_GT(psnr(a, b), psnr(a, c));
    EXPECT_NEAR(mse(a, b), 4.0, 1e-9);
    EXPECT_NEAR(meanAbsDiff(a, c), 10.0, 1e-9);
}

TEST(Quality, MaskedMseIgnoresOutside)
{
    Plane a(gCtx, 16, 16), b(gCtx, 16, 16), m(gCtx, 16, 16);
    a.fill(0);
    b.fill(0);
    m.fill(0);
    b.rawAt(3, 3) = 100;   // outside mask: ignored
    m.rawAt(5, 5) = 255;
    EXPECT_DOUBLE_EQ(maskedMse(a, b, m), 0.0);
    b.rawAt(5, 5) = 10;
    EXPECT_DOUBLE_EQ(maskedMse(a, b, m), 100.0);
}

TEST(Resample, DownUpIsCloseForSmoothContent)
{
    Plane src(gCtx, 64, 64), down(gCtx, 32, 32), up(gCtx, 64, 64);
    for (int y = 0; y < 64; ++y)
        for (int x = 0; x < 64; ++x)
            src.rawAt(x, y) = static_cast<uint8_t>(x * 2 + y);
    downsample2x(src, down);
    upsample2x(down, up);
    EXPECT_LT(meanAbsDiff(src, up), 2.5);
}

TEST(Resample, DownsampleAveragesQuads)
{
    Plane src(gCtx, 4, 4), dst(gCtx, 2, 2);
    const uint8_t vals[4][4] = {{0, 4, 8, 12},
                                {0, 4, 8, 12},
                                {100, 100, 200, 200},
                                {100, 100, 200, 200}};
    for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x)
            src.rawAt(x, y) = vals[y][x];
    downsample2x(src, dst);
    EXPECT_EQ(dst.rawAt(0, 0), 2);
    EXPECT_EQ(dst.rawAt(1, 0), 10);
    EXPECT_EQ(dst.rawAt(0, 1), 100);
    EXPECT_EQ(dst.rawAt(1, 1), 200);
}

TEST(Resample, AlphaDownsampleIsConservative)
{
    Plane src(gCtx, 4, 4), dst(gCtx, 2, 2);
    src.fill(0);
    src.rawAt(3, 3) = 255; // one opaque pixel in the last quad
    downsampleAlpha(src, dst);
    EXPECT_EQ(dst.rawAt(0, 0), 0);
    EXPECT_EQ(dst.rawAt(1, 1), 255);
}

TEST(Composite, NullAlphaReplacesFrame)
{
    Yuv420Image dst(gCtx, 32, 32), src(gCtx, 32, 32);
    dst.fill(0, 0);
    src.fill(200, 90);
    compositeOver(dst, src, nullptr);
    EXPECT_EQ(dst.y().rawAt(5, 5), 200);
    EXPECT_EQ(dst.u().rawAt(5, 5), 90);
}

TEST(Composite, AlphaSelectsPixels)
{
    Yuv420Image dst(gCtx, 32, 32), src(gCtx, 32, 32);
    Plane alpha(gCtx, 32, 32);
    dst.fill(10, 20);
    src.fill(250, 120);
    alpha.fill(0);
    for (int y = 8; y < 16; ++y)
        for (int x = 8; x < 16; ++x)
            alpha.rawAt(x, y) = 255;
    compositeOver(dst, src, &alpha);
    EXPECT_EQ(dst.y().rawAt(9, 9), 250);
    EXPECT_EQ(dst.y().rawAt(0, 0), 10);
    EXPECT_EQ(dst.u().rawAt(5, 5), 120); // alpha[10,10] set
    EXPECT_EQ(dst.u().rawAt(1, 1), 20);
}

} // namespace
} // namespace m4ps::video
