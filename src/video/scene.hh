/**
 * @file
 * Deterministic synthetic video scenes.
 *
 * Stands in for the camera content the paper encodes (30-frame PAL /
 * XGA sequences): a textured background panning slowly plus textured
 * elliptical objects translating across the frame.  Motion is smooth
 * and bounded so motion estimation finds real matches; textures carry
 * enough detail that the DCT path does real work.
 *
 * The generator can render either the composited scene (the paper's
 * single-VO experiments) or each object separately with its binary
 * alpha plane (the 3-VO experiments, where "the single-object input
 * becomes a subset of the multiple-object input").
 *
 * Every pixel depends only on the time, its position and the seeds,
 * and rendering writes through untraced row pointers.  So each render
 * call splits the frame into bands of whole macroblock rows and
 * renders them as tasks on support::ThreadPool::global(): the frame
 * is the same at any pool width, and no memsim counter moves.  The
 * texture itself is one kernel, TextureRow, which hashes lattice
 * corners once per 8-pixel cell and blends them in integers.
 */

#ifndef M4PS_VIDEO_SCENE_HH
#define M4PS_VIDEO_SCENE_HH

#include <climits>
#include <cstdint>
#include <vector>

#include "video/yuv.hh"

namespace m4ps::video
{

/** One moving foreground object. */
struct ObjectSpec
{
    double cx = 0;          //!< Centre x at frame 0 (luma pixels).
    double cy = 0;          //!< Centre y at frame 0.
    double vx = 0;          //!< Velocity, pixels/frame.
    double vy = 0;
    double rx = 32;         //!< Ellipse radii.
    double ry = 24;
    uint32_t textureSeed = 1;
    uint8_t chromaU = 128;  //!< Flat object tint.
    uint8_t chromaV = 128;
};

/** Deterministic multi-object scene renderer. */
class SceneGenerator
{
  public:
    /**
     * Build a scene for @p w x @p h frames with @p num_objects
     * foreground objects derived from @p seed.
     */
    SceneGenerator(int w, int h, int num_objects, uint64_t seed = 7);

    int width() const { return w_; }
    int height() const { return h_; }
    int numObjects() const { return static_cast<int>(objects_.size()); }

    /**
     * Render the full composited frame at time @p t into @p out
     * (untraced writes; rendering models the capture path).
     */
    void renderFrame(int t, Yuv420Image &out) const;

    /**
     * Render foreground object @p obj at time @p t: pixels into
     * @p out, support into binary @p alpha (255 inside, 0 outside).
     * Pixels outside the object are set to mid-grey.
     */
    void renderObject(int t, int obj, Yuv420Image &out,
                      Plane &alpha) const;

    /**
     * Render the background (object index -1 semantics): the full
     * frame without foreground objects.
     */
    void renderBackground(int t, Yuv420Image &out) const;

    /** Object centre position at time @p t (bounces off borders). */
    void objectCenter(int t, int obj, double &cx, double &cy) const;

    /** Bounding box of object @p obj at time @p t, clipped to frame. */
    Rect objectBBox(int t, int obj) const;

    const ObjectSpec &object(int obj) const { return objects_[obj]; }

  private:
    /** Background of luma rows [y0, y1) and their chroma rows. */
    void backgroundRows(int t, int y0, int y1, Yuv420Image &out) const;

    /**
     * Object @p obj over luma rows [y0, y1) and their chroma rows of
     * @p out; its support into @p alpha, if set.
     */
    void objectRows(int t, int obj, int y0, int y1, Yuv420Image &out,
                    Plane *alpha) const;

    int w_;
    int h_;
    uint64_t seed_;
    std::vector<ObjectSpec> objects_;
};

/**
 * The value-noise texture of one seed along one row y: lattice points
 * every 8 pixels hashed to [0, 255], blended bilinearly, plus a
 * fine-grain dither per pixel.
 *
 * A row keeps the two lattice columns of the last cell it sampled, so
 * walking x hashes two lattice points per 8-pixel cell instead of four
 * per pixel; any x may follow any other.  The blend is exact in integers:
 * the corners are integers and the in-cell offsets are multiples of
 * 1/8, so only adding the dither rounds.
 */
class TextureRow
{
  public:
    TextureRow(uint32_t seed, int y)
        : seed_(seed), y_(y), y0_(y >> 3), fy_(y & 7)
    {}

    /** Samples (x, y) to (x + n - 1, y) into @p out, in [0, 255]. */
    void run(int x, int n, uint8_t *out);

    /** Texture sample (x, y): a one-sample run(). */
    uint8_t
    at(int x)
    {
        uint8_t v = 0;
        run(x, 1, &v);
        return v;
    }

  private:
    /** 8 times the vertical blend of lattice column @p cx. */
    int column(int cx) const;

    uint32_t seed_;
    int y_;
    int y0_;
    int fy_;
    int cell_ = INT_MIN; //!< Cell of the cached columns; none yet.
    int left_ = 0;
    int right_ = 0;
};

/** One texture sample (x, y) in [0, 255]: TextureRow(seed, y).at(x). */
uint8_t textureSample(uint32_t seed, int x, int y);

} // namespace m4ps::video

#endif // M4PS_VIDEO_SCENE_HH
