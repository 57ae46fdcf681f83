/**
 * @file
 * Video object plane (VOP) encoding and decoding.
 *
 * "Each time sample of a video object constitutes a video object
 * plane, or VOP, containing motion parameters, shape information,
 * and texture data.  VOPs are encoded using 16x16 or 8x8
 * macroblocks" (paper §2.1).  VopEncoder/VopDecoder implement the
 * three VOP coding modes of the paper's Figure 1:
 *
 *  - I-VOP: intra-only, complete image, spatial redundancy only.
 *  - P-VOP: forward prediction from the nearest previously coded VOP.
 *  - B-VOP: bidirectional interpolation between I/P-VOPs.
 *
 * For spatially scalable enhancement layers, VOPs are coded with the
 * B machinery where the "backward" reference is the upsampled base
 * layer reconstruction at the same time instant (vector forced to
 * zero); see VolConfig::enhancement.
 *
 * Texture is coded in macroblock-row slices: every predictor
 * dependency on the row above is severed (see RowPredictors) and
 * each row's payload is an independently decodable sub-stream behind
 * a row-length table, so rows can be encoded and decoded in parallel
 * on the support::ThreadPool while producing a bitstream that is
 * bit-identical for any thread count (docs/THREADING.md).
 *
 * With error resilience enabled (VolConfig::resyncInterval), the
 * same row sub-streams are carried in video packets behind
 * byte-aligned resync markers, optionally split into motion and
 * texture partitions, and lost packets are concealed by motion-
 * compensated copy from the previous VOP (docs/RESILIENCE.md).
 */

#ifndef M4PS_CODEC_VOP_HH
#define M4PS_CODEC_VOP_HH

#include <vector>

#include "bitstream/bitstream.hh"
#include "codec/interp.hh"
#include "codec/motion.hh"
#include "codec/quant.hh"
#include "codec/ratecontrol.hh"
#include "codec/rlc.hh"
#include "codec/shape.hh"
#include "memsim/buffer.hh"
#include "support/obs/obs.hh"
#include "video/yuv.hh"

namespace m4ps::codec
{

/** Static configuration of one video object layer. */
struct VolConfig
{
    int width = 0;            //!< Luma width (multiple of 16).
    int height = 0;           //!< Luma height (multiple of 16).
    bool hasShape = false;    //!< Arbitrary-shape VOL (binary alpha).
    int searchRange = 8;      //!< Full-pel ME range for P-VOPs.
    int searchRangeB = 4;     //!< Full-pel ME range for B-VOPs.
    bool halfPel = true;      //!< Half-pel refinement.
    bool fourMv = true;       //!< INTER4V: four 8x8 vectors per MB.
    bool mpegQuant = false;   //!< Weighted-matrix quantization.
    bool enhancement = false; //!< Spatially scalable enhancement layer.
    int voId = 0;
    int volId = 0;

    /**
     * Encoder-side resilience tools (never serialized in the VOL
     * header; the VOP startcode signals packetization per VOP, so
     * streams coded with these off are byte-identical to streams
     * from builds that predate them).
     */
    int resyncInterval = 0;        //!< MB rows per video packet; 0 = off.
    bool dataPartitioning = false; //!< Split motion/DC from texture.

    int mbWidth() const { return width / 16; }
    int mbHeight() const { return height / 16; }

    void validate() const;
};

/** Per-VOP header fields carried in the bitstream. */
struct VopHeader
{
    VopType type = VopType::I;
    int voId = 0;
    int volId = 0;
    int timestamp = 0;        //!< Display time index.
    int qp = 8;
    video::Rect mbWindow;     //!< Coded region in macroblock units.
    /**
     * Resilient VOP (startcode 0xb7): texture rows travel in video
     * packets behind resync markers instead of one monolithic
     * row-table payload, so a corruption event costs one packet.
     */
    bool packetized = false;
    /** Packets split motion/DC data from texture (resilient only). */
    bool dataPartitioned = false;
};

/** Write a VOP startcode (0xb6, or 0xb7 when packetized) plus header. */
void writeVopHeader(bits::BitWriter &bw, const VopHeader &hdr);

/**
 * Read the header following a VOP startcode.  @p packetized selects
 * the resilient (0xb7) layout, known from the startcode just
 * consumed.  Throws StreamError on truncated or implausible fields
 * (values that could overflow window arithmetic or request absurd
 * allocations downstream).
 */
VopHeader readVopHeader(bits::BitReader &br, bool packetized = false);

/** Outcome statistics of coding one VOP. */
struct VopStats
{
    VopType type = VopType::I;
    uint64_t bits = 0;
    int intraMbs = 0;
    int interMbs = 0;         //!< Forward-predicted (P or B-fwd).
    int backwardMbs = 0;      //!< B backward mode.
    int bidirectionalMbs = 0; //!< B interpolated mode.
    int fourMvMbs = 0;        //!< Inter MBs coded with four vectors.
    int skippedMbs = 0;
    int transparentMbs = 0;
    int codedBlocks = 0;
    /**
     * Decoder only: macroblock rows whose slice payload was corrupt
     * (or never arrived) and got concealed.  Row independence limits
     * the damage to one slice.
     */
    int corruptedRows = 0;
    /** Decoder only: video packets parsed successfully. */
    int packets = 0;
    /** Decoder only: video packets rejected as corrupt. */
    int corruptPackets = 0;
    /**
     * Decoder only: macroblocks replaced by motion-compensated copy
     * from a reference (packetized concealment).  Rows counted in
     * corruptedRows without a usable reference keep stale content
     * and do not count here.
     */
    int concealedMbs = 0;

    int codedMbs() const
    {
        return intraMbs + interMbs + backwardMbs + bidirectionalMbs;
    }

    VopStats &
    operator+=(const VopStats &o)
    {
        bits += o.bits;
        intraMbs += o.intraMbs;
        interMbs += o.interMbs;
        backwardMbs += o.backwardMbs;
        bidirectionalMbs += o.bidirectionalMbs;
        fourMvMbs += o.fourMvMbs;
        skippedMbs += o.skippedMbs;
        transparentMbs += o.transparentMbs;
        codedBlocks += o.codedBlocks;
        corruptedRows += o.corruptedRows;
        packets += o.packets;
        corruptPackets += o.corruptPackets;
        concealedMbs += o.concealedMbs;
        return *this;
    }
};

/** References available to a VOP. */
struct RefFrames
{
    const video::Yuv420Image *past = nullptr;   //!< Forward reference.
    const video::Yuv420Image *future = nullptr; //!< Backward reference.

    /**
     * Optional precomputed half-pel luma planes (decoder side).
     * When present, luma motion compensation is served from them,
     * as in the reference decoder; values are identical either way.
     */
    const HalfPelPlanes *pastInterp = nullptr;
    const HalfPelPlanes *futureInterp = nullptr;
};

/**
 * Prediction state local to one macroblock row (slice).
 *
 * Rows are coded as independent slices so they can run concurrently:
 * every predictor dependency that would reach into the row above is
 * severed.  Motion vectors predict from the left neighbour only (the
 * H.263 median's above and above-right candidates live in the
 * previous row); intra DC predicts left-then-above where "above"
 * never leaves the current macroblock row (the lower luma block row
 * still predicts vertically from the upper one).  Encoder and
 * decoder share this class, so the bitstream is identical for any
 * thread count.
 */
class RowPredictors
{
  public:
    RowPredictors(int mb_width, int mb_row);

    /** Advance to the next macroblock: commit left-neighbour state. */
    void beginMb();

    /** Left-neighbour MV predictor for direction @p dir. */
    MotionVector predictMv(int dir) const;

    /** Record the coded MV of the current MB for direction @p dir. */
    void setMv(int dir, MotionVector mv);

    /** Intra DC prediction for absolute block position (bx, by). */
    int predictDc(int plane, int bx, int by) const;

    /** Record a reconstructed intra DC level. */
    void setDc(int plane, int bx, int by, int level);

  private:
    int mbWidth_;
    int mbRow_;
    MotionVector left_[2]{};
    MotionVector pending_[2]{};
    bool leftValid_[2]{};
    bool pendingValid_[2]{};
    /** DC levels: plane 0 = Y (2 block rows x 2W), 1 = U, 2 = V (W). */
    std::vector<int16_t> dc_[3];
    std::vector<uint8_t> dcValid_[3];
};

/**
 * Shared scratch state for VOP coding.
 *
 * The block pipeline (fetch, DCT, quantize, scan, reconstruct) runs
 * through small scratch buffers that live in simulated memory: in
 * the reference software these are exactly the L1-resident work
 * arrays whose reuse produces the high primary-cache hit rates the
 * paper reports.  Under row-parallel coding the SimBuffers keep
 * providing the canonical simulated addresses while each row task
 * carries its own real pixel scratch; the trace operations never
 * touch the stored data, so concurrent rows only ever read them.
 */
class VopCodecBase
{
  protected:
    VopCodecBase(memsim::SimContext &ctx, const VolConfig &cfg);

    /** Scratch regions inside blockScratch_ (64 int16 each). */
    enum ScratchRegion
    {
        kSrc = 0,     //!< Input samples / residual.
        kCoef,        //!< DCT coefficients.
        kLevels,      //!< Quantized levels.
        kScanned,     //!< Scanned levels.
        kDequant,     //!< Dequantized coefficients.
        kIdct,        //!< Inverse transform output.
        kNumRegions,
    };

    void traceBlockLoad(ScratchRegion r, int n = kBlockSize) const;
    void traceBlockStore(ScratchRegion r, int n = kBlockSize);

    /** Where one 8x8 block of a macroblock lives. */
    struct BlockGeometry
    {
        int plane;      //!< 0 = Y, 1 = U, 2 = V.
        int x0, y0;     //!< Top-left sample in the plane.
        int dcX, dcY;   //!< Block coordinates for intra DC prediction.
        int predOffset; //!< First sample in the Y+U+V MB prediction.
        int predStride; //!< Row stride of the prediction samples.
    };

    /**
     * Geometry of block @p b (0-3 luma in raster order, 4 = U,
     * 5 = V) of macroblock (@p mx, @p my).
     */
    static BlockGeometry blockGeometry(int b, int mx, int my);

    /**
     * Store block @p g of @p out: its samples of the macroblock
     * prediction @p pred (128 when @p intra) plus the residual
     * @p idct, clamped to 8 bits, one traced row at a time.
     */
    static void addResidual(const Block &idct, const BlockGeometry &g,
                            const uint8_t *pred, bool intra,
                            video::Plane &out);

    /** Charge pure-compute cycles (transform butterflies etc.). */
    void tick(double cycles) const;

    /** Validate the VOP window and reset per-VOP shape state. */
    void resetVopState(const VopHeader &hdr);

    const VolConfig cfg_;
    memsim::MemoryHierarchy *mem_;
    ShapeCoder shape_;

    /** Block pipeline scratch (traced, L1-resident). */
    memsim::SimBuffer<int16_t> blockScratch_;
    /**
     * Macroblock predictions (Y+U+V), indexed like B-VOP modes:
     * forward, backward, interpolated.
     */
    memsim::SimBuffer<uint8_t> predBuf_[3];

    /** Window of the VOP being coded. */
    video::Rect window_;
};

/** Encodes one VOP at a time into a bitstream. */
class VopEncoder : public VopCodecBase
{
  public:
    VopEncoder(memsim::SimContext &ctx, const VolConfig &cfg);

    /**
     * Encode @p cur as described by @p hdr.
     *
     * @param bw      destination bitstream (header is written too).
     * @param hdr     VOP type, timestamp, qp, window.
     * @param cur     input frame.
     * @param alpha   binary alpha plane (required iff cfg.hasShape).
     * @param refs    reconstruction references (past for P/B, future
     *                for B / enhancement).
     * @param recon   reconstructed output (required for I/P anchors;
     *                may be null for B-VOPs).
     * @param recon_alpha reconstructed alpha (required iff hasShape
     *                and recon is non-null).
     */
    VopStats encode(bits::BitWriter &bw, const VopHeader &hdr,
                    const video::Yuv420Image &cur,
                    const video::Plane *alpha, const RefFrames &refs,
                    video::Yuv420Image *recon,
                    video::Plane *recon_alpha);

  private:
    struct BlockCode
    {
        Block levels{};           //!< Quantized levels (scan order).
        std::vector<RunLevel> events;
        int dcDelta = 0;          //!< Intra only.
        bool coded = false;
    };

    /**
     * Encode one macroblock row into @p bw (a fresh per-row writer).
     * When @p tex is non-null (data partitioning), texture bits (cbp,
     * coded flags, coefficient events) go there while motion, mode,
     * and intra-DC bits stay in @p bw.  Thread-safe against other
     * rows of the same VOP.
     */
    VopStats encodeTextureRow(bits::BitWriter &bw, bits::BitWriter *tex,
                              const VopHeader &hdr, int my,
                              const video::Yuv420Image &cur,
                              const std::vector<BabMode> &modes,
                              const RefFrames &refs,
                              video::Yuv420Image *recon);

    /**
     * Emit the coded rows as video packets: resync marker, packet
     * header with redundant VOP fields, row-length table(s), and the
     * row payloads (motion and texture partitions separated by a
     * motion marker when @p rowTex is non-null).
     */
    void appendPackets(bits::BitWriter &bw, const VopHeader &hdr,
                       const std::vector<bits::BitWriter> &rowBw,
                       const std::vector<bits::BitWriter> *rowTex);

    /**
     * Run the analysis half of the block pipeline on block @p g of
     * @p cur against the macroblock prediction @p pred.
     */
    BlockCode analyzeBlock(RowPredictors &rp,
                           const video::Yuv420Image &cur,
                           const BlockGeometry &g, const uint8_t *pred,
                           bool intra, int qp);

    /** Reconstruct block @p g into @p recon. */
    void reconBlock(const BlockCode &code, const BlockGeometry &g,
                    const uint8_t *pred, bool intra, int qp,
                    video::Yuv420Image &recon);

    void encodeShapePass(bits::BitWriter &bw, const VopHeader &hdr,
                         const video::Plane &alpha,
                         std::vector<BabMode> &modes);
};

/** Decodes one VOP at a time from a bitstream. */
class VopDecoder : public VopCodecBase
{
  public:
    VopDecoder(memsim::SimContext &ctx, const VolConfig &cfg);

    /**
     * Decode the VOP described by @p hdr (header already parsed).
     *
     * @param out        frame to reconstruct into.
     * @param out_alpha  alpha plane to reconstruct into (iff shape).
     */
    VopStats decode(bits::BitReader &br, const VopHeader &hdr,
                    const RefFrames &refs, video::Yuv420Image &out,
                    video::Plane *out_alpha);

  private:
    /** Where one row's partitions live inside the bitstream. */
    struct RowSpan
    {
        uint64_t start = 0;    //!< Motion (or whole-row) bit offset.
        uint64_t bits = 0;
        uint64_t texStart = 0; //!< Texture partition (dp only).
        uint64_t texBits = 0;
        bool covered = false;  //!< A packet carried this row.
    };

    /**
     * Decode one macroblock row from @p br (positioned at the row's
     * slice payload).  With data partitioning, @p tex reads the
     * texture partition while @p br stays on motion/DC data.  When
     * @p mv_row is non-null it receives one concealment-candidate
     * forward vector per macroblock.  Thread-safe against other rows.
     */
    VopStats decodeTextureRow(bits::BitReader &br, bits::BitReader *tex,
                              const VopHeader &hdr, int my,
                              const std::vector<BabMode> &modes,
                              const RefFrames &refs,
                              video::Yuv420Image &out,
                              MotionVector *mv_row);

    /**
     * Parse the video packets of a resilient VOP, filling @p spans
     * and advancing @p br to the end of the VOP payload.  Corrupt
     * packets are skipped via a resync-marker scan and counted in
     * @p stats; the rows they covered stay uncovered.
     */
    void parsePackets(bits::BitReader &br, const VopHeader &hdr,
                      std::vector<RowSpan> &spans, VopStats &stats);

    /**
     * Conceal one lost macroblock row by motion-compensated copy
     * from @p refs, steering each macroblock with its nearest
     * surviving neighbour's vector from @p mvField (or zero).
     * Falls back to stale frame-store content when no reference
     * exists (I-VOP loss).
     */
    void concealRow(int r, const VopHeader &hdr, const RefFrames &refs,
                    const std::vector<MotionVector> &mvField,
                    const std::vector<uint8_t> &rowGood,
                    video::Yuv420Image &out, VopStats &stats);

    /**
     * Decode block @p g's levels and reconstruct it into @p out
     * against the macroblock prediction @p pred; @p st accumulates
     * per-stage wall time (RLC read, dequant+IDCT, reconstruction)
     * for the row's trace spans.
     */
    void decodeBlockInto(RowPredictors &rp, bits::BitReader &br,
                         bits::BitReader &tex, const BlockGeometry &g,
                         const uint8_t *pred, bool intra, bool coded,
                         int qp, video::Yuv420Image &out,
                         obs::StageTimes &st);

    void decodeShapePass(bits::BitReader &br, const VopHeader &hdr,
                         video::Plane &alpha,
                         std::vector<BabMode> &modes);

    /**
     * Reference-decoder data marshalling: MoMuSys moves every
     * macroblock through several intermediate VOP structures
     * (bitstream data -> macroblock arrays -> block arrays ->
     * reconstruction -> padded VOP planes).  These L1-resident
     * copies dominate the decoder's access mix and are what gives
     * the paper's decoder its high primary-cache hit rate.
     */
    void marshalMacroblock();

    /** Intermediate macroblock assembly buffer (Y+U+V samples). */
    memsim::SimBuffer<uint8_t> mbAssembly_;
    /** Clip/saturation lookup table (MoMuSys-style). */
    memsim::SimBuffer<uint8_t> clipTable_;
};

} // namespace m4ps::codec

#endif // M4PS_CODEC_VOP_HH
