/**
 * @file
 * Video object layer encoding/decoding: GOP structure, frame stores,
 * and the out-of-order VOP scheduling of the paper's Figure 1.
 *
 * "The VOPs are processed in the non-temporal order (I-VOP, P-VOP,
 * B-VOP1, B-VOP2, ...).  In other words, when the display order is
 * I, B1, B2, P, the encoding and decoding orders are both I, P, B1,
 * B2.  This out-of-order decoding increases the performance and
 * storage requirements for real-time playback" (paper §2.1).
 * VolEncoder buffers B-candidate frames until the next anchor;
 * VolDecoder holds anchors and re-establishes display order.
 */

#ifndef M4PS_CODEC_VOL_HH
#define M4PS_CODEC_VOL_HH

#include <memory>
#include <vector>

#include "codec/error.hh"
#include "codec/vop.hh"

namespace m4ps::codec
{

class RateController;

/** Group-of-pictures structure. */
struct GopConfig
{
    int intraPeriod = 12; //!< Distance between I-VOPs.
    int bFrames = 2;      //!< B-VOPs between anchors (M - 1).

    void validate() const;

    bool operator==(const GopConfig &) const = default;
};

/** Write the VOL startcode and configuration header. */
void writeVolHeader(bits::BitWriter &bw, const VolConfig &cfg);

/**
 * Read the VOL configuration following its startcode.
 *
 * Dimensions are validated against @p limits before the caller gets
 * a chance to allocate frame stores from them; violations throw
 * DecodeError (BadVolHeader or LimitExceeded).
 */
VolConfig readVolHeader(bits::BitReader &br, int vo_id, int vol_id,
                        const DecodeLimits &limits = DecodeLimits{});

/** Tight macroblock-aligned bounding box of an alpha plane. */
video::Rect alphaBBoxMb(const video::Plane &alpha);

/** A frame ready for display, with its timestamp. */
struct DisplayFrame
{
    int timestamp = 0;
    const video::Yuv420Image *frame = nullptr;
    const video::Plane *alpha = nullptr; //!< Null for rectangular VOLs.
};

/**
 * Encoder for one VOL: feeds display-order frames in, emits
 * coding-order VOPs.
 *
 * For enhancement layers (cfg.enhancement), use encodeEnhanced()
 * with the upsampled base-layer reconstruction; the GOP config is
 * ignored (every VOP is coded with the B machinery, in display
 * order).
 */
class VolEncoder
{
  public:
    VolEncoder(memsim::SimContext &ctx, const VolConfig &cfg,
               const GopConfig &gop, RateController *rc);

    /** Write the VOL header (call once before any frame). */
    void writeHeader(bits::BitWriter &bw);

    /**
     * Encode the next display-order frame.  May emit zero VOPs (the
     * frame was buffered as a B candidate) or 1 + bFrames VOPs (an
     * anchor plus the buffered B-VOPs).
     */
    std::vector<VopStats> encodeFrame(bits::BitWriter &bw,
                                      const video::Yuv420Image &frame,
                                      const video::Plane *alpha,
                                      int timestamp);

    /** Enhancement-layer path: code against the spatial reference. */
    VopStats encodeEnhanced(bits::BitWriter &bw,
                            const video::Yuv420Image &frame,
                            const video::Plane *alpha, int timestamp,
                            const video::Yuv420Image &spatial_ref);

    /** Encode any buffered frames at end of sequence (as P-VOPs). */
    std::vector<VopStats> flush(bits::BitWriter &bw);

    /** Reconstruction of the most recently coded anchor. */
    const video::Yuv420Image &lastAnchorRecon() const;

    const VolConfig &config() const { return cfg_; }

    /**
     * Checkpoint support: capture / restore all cross-frame encoder
     * state (reference reconstructions, buffered B candidates, GOP
     * position).  restoreState() requires a VolEncoder constructed
     * with the identical VolConfig/GopConfig - frame stores are
     * preallocated by the constructor and only their contents are
     * replayed - and throws support::SerializeError on any mismatch.
     */
    void saveState(support::StateWriter &sw) const;
    void restoreState(support::StateReader &sr);

  private:
    /**
     * Common VOP header fields, including the resilience flags
     * derived from the VOL config; the caller fills in qp.
     */
    VopHeader makeHeader(VopType type, int timestamp,
                         const video::Plane *alpha) const;

    VopStats encodeAnchor(bits::BitWriter &bw,
                          const video::Yuv420Image &frame,
                          const video::Plane *alpha, int timestamp,
                          VopType type);

    VopStats encodeB(bits::BitWriter &bw,
                     const video::Yuv420Image &frame,
                     const video::Plane *alpha, int timestamp);

    video::Rect vopWindow(const video::Plane *alpha) const;

    VolConfig cfg_;
    GopConfig gop_;
    RateController *rc_;
    VopEncoder vopEnc_;

    // Anchor reconstruction stores (flip-flop).
    video::Yuv420Image reconStore_[2];
    video::Plane alphaStore_[2];
    int curAnchor_ = -1;  //!< Index of the most recent anchor store.
    bool havePast_ = false;

    // Buffered B-candidate inputs.
    struct Pending
    {
        video::Yuv420Image frame;
        video::Plane alpha;
        int timestamp = 0;
        bool used = false;
    };
    std::vector<Pending> pending_;
    int numPending_ = 0;

    int frameCount_ = 0;

    // Enhancement chain.
    video::Yuv420Image enhRecon_[2];
    video::Plane enhAlpha_[2];
    int curEnh_ = -1;
    bool haveEnhPast_ = false;
};

/**
 * Decoder for one VOL: consumes coding-order VOPs, emits
 * display-order frames.
 */
class VolDecoder
{
  public:
    VolDecoder(memsim::SimContext &ctx, const VolConfig &cfg);

    /**
     * Decode one VOP (its header already parsed).  For enhancement
     * VOLs, @p spatial_ref must be the upsampled base reconstruction
     * at the same timestamp.  Returns 0..1 display frames.
     */
    std::vector<DisplayFrame> decodeVop(bits::BitReader &br,
                                        const VopHeader &hdr,
                                        const video::Yuv420Image
                                            *spatial_ref);

    /** Emit the held anchor at end of stream. */
    std::vector<DisplayFrame> flush();

    /** Frame written by the most recent decodeVop() call. */
    const video::Yuv420Image &lastDecoded() const;

    /** Accumulated statistics over all decoded VOPs. */
    const VopStats &totals() const { return totals_; }

    const VolConfig &config() const { return cfg_; }

  private:
    VolConfig cfg_;
    VopDecoder vopDec_;

    video::Yuv420Image anchorStore_[2];
    video::Plane anchorAlpha_[2];
    /** Precomputed half-pel luma planes per anchor store. */
    HalfPelPlanes anchorInterp_[2];
    int anchorTs_[2] = {-1, -1};
    int curAnchor_ = -1;   //!< Held (not yet displayed) anchor.
    int prevAnchor_ = -1;  //!< Older anchor (already displayed).

    video::Yuv420Image bStore_;
    video::Plane bAlpha_;

    const video::Yuv420Image *lastDecoded_ = nullptr;
    VopStats totals_;
};

} // namespace m4ps::codec

#endif // M4PS_CODEC_VOL_HH
