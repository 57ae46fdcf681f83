#include "codec/vop.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <optional>

#include "bitstream/expgolomb.hh"
#include "codec/error.hh"
#include "codec/kernels/kernels.hh"
#include "bitstream/startcode.hh"
#include "codec/zigzag.hh"
#include "support/logging.hh"
#include "support/obs/obs.hh"

namespace m4ps::codec
{

namespace
{

constexpr int kMb = 16;

/** Compute cycles per 8x8 transform beyond its traced loads/stores. */
constexpr double kDctCycles = 300.0;

/** Compute cycles per quantization / scan pass. */
constexpr double kPassCycles = 64.0;

/** Entropy-coding compute cycles per bitstream bit. */
constexpr double kEncodeCyclesPerBit = 3.0;
constexpr double kDecodeCyclesPerBit = 4.0;

/** Intra/inter decision bias (MoMuSys-style). */
constexpr int kIntraBias = 512;

int
vopTypeBits(VopType t)
{
    switch (t) {
      case VopType::I: return 0;
      case VopType::P: return 1;
      case VopType::B: return 2;
    }
    M4PS_PANIC("bad vop type");
}

VopType
vopTypeFromBits(uint32_t v)
{
    switch (v) {
      case 0: return VopType::I;
      case 1: return VopType::P;
      case 2: return VopType::B;
      default: return VopType::I; // corrupt stream; caller validates
    }
}

/**
 * Mean of an INTER4V macroblock's four vectors, each component
 * rounded half away from zero: the vector its chroma is predicted
 * along and its right-hand neighbour's motion vector predictor.
 */
MotionVector
meanVector(const MotionVector (&mv4)[4])
{
    const auto avg4 = [](int sum) {
        const int mag = (std::abs(sum) + 2) >> 2;
        return sum < 0 ? -mag : mag;
    };
    return {avg4(mv4[0].x + mv4[1].x + mv4[2].x + mv4[3].x),
            avg4(mv4[0].y + mv4[1].y + mv4[2].y + mv4[3].y)};
}

// Macroblock predictions are 384 bytes: 16x16 Y, then 8x8 U and V.
// Each helper traces its accesses against the SimBuffer that gives
// the prediction its simulated address.

/** Chroma half of a macroblock prediction: U and V along @p mv. */
void
predictChromaMb(const video::Yuv420Image &ref, int px, int py,
                MotionVector mv, uint8_t *dst,
                memsim::SimBuffer<uint8_t> &buf)
{
    predictChroma8(ref.u(), px / 2, py / 2, mv, dst + 256);
    predictChroma8(ref.v(), px / 2, py / 2, mv, dst + 320);
    buf.traceStoreRow(256, 128);
}

/**
 * Motion-compensated prediction of the macroblock at pixel
 * (@p px, @p py) along @p mv.  Luma is served from @p interp's
 * half-pel planes when there are any.
 */
void
predictMb(const video::Yuv420Image &ref, const HalfPelPlanes *interp,
          int px, int py, MotionVector mv, uint8_t *dst,
          memsim::SimBuffer<uint8_t> &buf)
{
    if (interp && !interp->empty())
        predictLuma16FromInterp(ref.y(), *interp, px, py, mv, dst);
    else
        predictLuma16(ref.y(), px, py, mv, dst);
    buf.traceStoreRow(0, 256);
    predictChromaMb(ref, px, py, mv, dst, buf);
}

/** INTER4V prediction: one vector per 8x8 luma block. */
void
predictMb4v(const video::Yuv420Image &ref, int px, int py,
            const MotionVector (&mv4)[4], uint8_t *dst,
            memsim::SimBuffer<uint8_t> &buf)
{
    uint8_t tmp[64];
    for (int b = 0; b < 4; ++b) {
        predictLuma8(ref.y(), px + (b & 1) * 8, py + (b >> 1) * 8,
                     mv4[b], tmp);
        uint8_t *blk = dst + (b >> 1) * 8 * kMb + (b & 1) * 8;
        for (int row = 0; row < 8; ++row)
            std::copy(tmp + row * 8, tmp + row * 8 + 8, blk + row * kMb);
    }
    buf.traceStoreRow(0, 256);
    predictChromaMb(ref, px, py, meanVector(mv4), dst, buf);
}

/**
 * Interpolated prediction (B mode 2): the rounded mean of the
 * forward (slot 0) and backward (slot 1) predictions into slot 2.
 */
void
averageMb(uint8_t (&pred)[3][384], memsim::SimBuffer<uint8_t> (&buf)[3])
{
    buf[0].traceLoadRow(0, 384);
    buf[1].traceLoadRow(0, 384);
    averagePrediction(pred[0], pred[1], 384, pred[2]);
    buf[2].traceStoreRow(0, 384);
}

/** Fill a transparent macroblock's Y, U and V samples with grey. */
void
fillTransparentMb(video::Yuv420Image &img, int px, int py)
{
    for (int p = 0; p < 3; ++p) {
        video::Plane &pl = img.plane(p);
        const int sh = p == 0 ? 0 : 1;
        for (int row = 0; row < kMb >> sh; ++row) {
            uint8_t *r = pl.rowPtr((py >> sh) + row) + (px >> sh);
            std::fill(r, r + (kMb >> sh), 128);
            pl.traceStoreRow(px >> sh, (py >> sh) + row, kMb >> sh);
        }
    }
}

} // namespace

void
VolConfig::validate() const
{
    M4PS_ASSERT(width > 0 && height > 0, "VOL needs positive size");
    M4PS_ASSERT(width % kMb == 0 && height % kMb == 0,
                "VOL dimensions must be multiples of 16, got ",
                width, "x", height);
    M4PS_ASSERT(searchRange >= 0 && searchRangeB >= 0,
                "negative search range");
    M4PS_ASSERT(voId >= 0 && voId < 32 && volId >= 0 && volId < 16,
                "vo/vol id out of range");
    M4PS_ASSERT(resyncInterval >= 0, "negative resync interval");
    M4PS_ASSERT(!dataPartitioning || resyncInterval > 0,
                "data partitioning requires video packets "
                "(resyncInterval > 0)");
}

void
writeVopHeader(bits::BitWriter &bw, const VopHeader &hdr)
{
    bits::putStartCode(
        bw, static_cast<uint8_t>(hdr.packetized
                                     ? bits::StartCode::VopResilient
                                     : bits::StartCode::Vop));
    bw.putBits(static_cast<uint32_t>(vopTypeBits(hdr.type)), 2);
    bits::putUe(bw, static_cast<uint32_t>(hdr.voId));
    bits::putUe(bw, static_cast<uint32_t>(hdr.volId));
    bits::putUe(bw, static_cast<uint32_t>(hdr.timestamp));
    bw.putBits(static_cast<uint32_t>(hdr.qp), 5);
    bits::putUe(bw, static_cast<uint32_t>(hdr.mbWindow.x));
    bits::putUe(bw, static_cast<uint32_t>(hdr.mbWindow.y));
    bits::putUe(bw, static_cast<uint32_t>(hdr.mbWindow.w));
    bits::putUe(bw, static_cast<uint32_t>(hdr.mbWindow.h));
    if (hdr.packetized)
        bw.putBit(hdr.dataPartitioned);
}

namespace
{

/**
 * Bound for raw header ue fields.  Large enough for any stream our
 * encoder can write (timestamps, macroblock coordinates), small
 * enough that downstream int arithmetic (window sums, row tables)
 * cannot overflow.
 */
constexpr uint32_t kMaxHeaderField = 1u << 20;

int
boundedUe(bits::BitReader &br, const char *what)
{
    const uint32_t v = bits::getUe(br);
    if (v > kMaxHeaderField)
        throw StreamError(std::string("implausible VOP header field (") +
                          what + ")");
    return static_cast<int>(v);
}

} // namespace

VopHeader
readVopHeader(bits::BitReader &br, bool packetized)
{
    VopHeader hdr;
    hdr.packetized = packetized;
    hdr.type = vopTypeFromBits(br.getBits(2));
    hdr.voId = boundedUe(br, "voId");
    hdr.volId = boundedUe(br, "volId");
    hdr.timestamp = boundedUe(br, "timestamp");
    hdr.qp = static_cast<int>(br.getBits(5));
    hdr.mbWindow.x = boundedUe(br, "window x");
    hdr.mbWindow.y = boundedUe(br, "window y");
    hdr.mbWindow.w = boundedUe(br, "window w");
    hdr.mbWindow.h = boundedUe(br, "window h");
    if (packetized)
        hdr.dataPartitioned = br.getBit();
    if (br.overrun())
        throw StreamError("truncated VOP header");
    if (hdr.qp < 1)
        throw StreamError("VOP quantizer out of range");
    return hdr;
}

// ---------------------------------------------------------------------
// Row-local predictors
// ---------------------------------------------------------------------

RowPredictors::RowPredictors(int mb_width, int mb_row)
    : mbWidth_(mb_width), mbRow_(mb_row)
{
    dc_[0].resize(static_cast<size_t>(4) * mb_width);
    dcValid_[0].resize(dc_[0].size());
    for (int p = 1; p < 3; ++p) {
        dc_[p].resize(mb_width);
        dcValid_[p].resize(mb_width);
    }
}

void
RowPredictors::beginMb()
{
    for (int d = 0; d < 2; ++d) {
        left_[d] = pending_[d];
        leftValid_[d] = pendingValid_[d];
        pendingValid_[d] = false;
    }
}

MotionVector
RowPredictors::predictMv(int dir) const
{
    return leftValid_[dir] ? left_[dir] : MotionVector{0, 0};
}

void
RowPredictors::setMv(int dir, MotionVector mv)
{
    pending_[dir] = mv;
    pendingValid_[dir] = true;
}

int
RowPredictors::predictDc(int plane, int bx, int by) const
{
    if (plane == 0) {
        const int w = 2 * mbWidth_;
        const int rel = by - 2 * mbRow_;
        // Left first, then above, as in the sequential H.263 scheme;
        // "above" exists only for the lower block row of the MB row.
        if (bx > 0 && dcValid_[0][static_cast<size_t>(rel) * w + bx - 1])
            return dc_[0][static_cast<size_t>(rel) * w + bx - 1];
        if (rel == 1 && dcValid_[0][bx])
            return dc_[0][bx];
        return 0;
    }
    (void)by; // chroma has one block row per MB row: left only.
    if (bx > 0 && dcValid_[plane][bx - 1])
        return dc_[plane][bx - 1];
    return 0;
}

void
RowPredictors::setDc(int plane, int bx, int by, int level)
{
    size_t i;
    if (plane == 0) {
        const int rel = by - 2 * mbRow_;
        i = static_cast<size_t>(rel) * 2 * mbWidth_ + bx;
    } else {
        i = static_cast<size_t>(bx);
    }
    dc_[plane][i] = static_cast<int16_t>(level);
    dcValid_[plane][i] = 1;
}

// ---------------------------------------------------------------------
// Shared base
// ---------------------------------------------------------------------

VopCodecBase::VopCodecBase(memsim::SimContext &ctx, const VolConfig &cfg)
    : cfg_(cfg), mem_(ctx.mem()),
      blockScratch_(ctx, kBlockSize * kNumRegions),
      predBuf_{{ctx, 384}, {ctx, 384}, {ctx, 384}}
{
    cfg_.validate();
}

void
VopCodecBase::traceBlockLoad(ScratchRegion r, int n) const
{
    blockScratch_.traceLoadRow(static_cast<size_t>(r) * kBlockSize, n);
}

void
VopCodecBase::traceBlockStore(ScratchRegion r, int n)
{
    blockScratch_.traceStoreRow(static_cast<size_t>(r) * kBlockSize, n);
}

VopCodecBase::BlockGeometry
VopCodecBase::blockGeometry(int b, int mx, int my)
{
    if (b < 4) {
        const int bx = b & 1;
        const int by = b >> 1;
        return {0, mx * kMb + bx * 8, my * kMb + by * 8, 2 * mx + bx,
                2 * my + by, by * 8 * kMb + bx * 8, kMb};
    }
    return {b - 3, mx * 8, my * 8, mx, my, 256 + (b - 4) * 64, 8};
}

void
VopCodecBase::addResidual(const Block &idct, const BlockGeometry &g,
                          const uint8_t *pred, bool intra,
                          video::Plane &out)
{
    for (int row = 0; row < kBlockEdge; ++row) {
        uint8_t *r = out.rowPtr(g.y0 + row) + g.x0;
        const uint8_t *p = intra ? nullptr
                                 : pred + g.predOffset + row * g.predStride;
        for (int i = 0; i < kBlockEdge; ++i) {
            const int base = intra ? 128 : p[i];
            r[i] = static_cast<uint8_t>(
                std::clamp(base + idct[row * kBlockEdge + i], 0, 255));
        }
        out.traceStoreRow(g.x0, g.y0 + row, kBlockEdge);
    }
}

void
VopCodecBase::tick(double cycles) const
{
    if (mem_)
        mem_->tick(cycles);
}

void
VopCodecBase::resetVopState(const VopHeader &hdr)
{
    window_ = hdr.mbWindow;
    M4PS_ASSERT(window_.x >= 0 && window_.y >= 0 && window_.w > 0 &&
                window_.h > 0 &&
                window_.x + window_.w <= cfg_.mbWidth() &&
                window_.y + window_.h <= cfg_.mbHeight(),
                "VOP window outside VOL: (", window_.x, ",", window_.y,
                ",", window_.w, ",", window_.h, ")");
    shape_.reset();
}

// ---------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------

VopEncoder::VopEncoder(memsim::SimContext &ctx, const VolConfig &cfg)
    : VopCodecBase(ctx, cfg)
{
}

VopEncoder::BlockCode
VopEncoder::analyzeBlock(RowPredictors &rp, const video::Yuv420Image &cur,
                         const BlockGeometry &g, const uint8_t *pred,
                         bool intra, int qp)
{
    BlockCode code;
    Block src;
    const video::Plane &pl = cur.plane(g.plane);
    // Fetch input samples (traced) and form residual / shifted intra.
    for (int row = 0; row < kBlockEdge; ++row) {
        pl.traceLoadRow(g.x0, g.y0 + row, kBlockEdge);
        const uint8_t *c = pl.rowPtr(g.y0 + row) + g.x0;
        const uint8_t *p = intra ? nullptr
                                 : pred + g.predOffset + row * g.predStride;
        for (int i = 0; i < kBlockEdge; ++i) {
            const int v = c[i] - (intra ? 128 : p[i]);
            src[row * kBlockEdge + i] = static_cast<int16_t>(v);
        }
    }
    traceBlockStore(kSrc);

    Block coef;
    traceBlockLoad(kSrc);
    forwardDct(src, coef);
    traceBlockStore(kCoef);
    tick(kDctCycles);

    QuantParams qparams{qp, intra, cfg_.mpegQuant, g.plane == 0};
    Block levels;
    traceBlockLoad(kCoef);
    quantize(coef, levels, qparams);
    traceBlockStore(kLevels);
    tick(kPassCycles);

    code.levels = levels;
    Block scanned;
    traceBlockLoad(kLevels);
    scan(levels, scanned);
    traceBlockStore(kScanned);
    tick(kPassCycles);

    if (intra) {
        const int pred_dc = rp.predictDc(g.plane, g.dcX, g.dcY);
        code.dcDelta = levels[0] - pred_dc;
        rp.setDc(g.plane, g.dcX, g.dcY, levels[0]);
        code.events = runLengthEncode(scanned, 1);
    } else {
        code.events = runLengthEncode(scanned, 0);
    }
    traceBlockLoad(kScanned);
    code.coded = !code.events.empty();
    return code;
}

void
VopEncoder::reconBlock(const BlockCode &code, const BlockGeometry &g,
                       const uint8_t *pred, bool intra, int qp,
                       video::Yuv420Image &recon)
{
    QuantParams qparams{qp, intra, cfg_.mpegQuant, g.plane == 0};
    Block dequant;
    Block idct;
    const bool any = code.coded || (intra && code.levels[0] != 0);
    if (any) {
        traceBlockLoad(kLevels);
        dequantize(code.levels, dequant, qparams);
        traceBlockStore(kDequant);
        tick(kPassCycles);
        traceBlockLoad(kDequant);
        inverseDct(dequant, idct);
        traceBlockStore(kIdct);
        tick(kDctCycles);
    } else {
        idct.fill(0);
    }
    traceBlockLoad(kIdct);
    addResidual(idct, g, pred, intra, recon.plane(g.plane));
}

void
VopEncoder::encodeShapePass(bits::BitWriter &bw, const VopHeader &hdr,
                            const video::Plane &alpha,
                            std::vector<BabMode> &modes)
{
    const video::Rect &win = hdr.mbWindow;
    modes.clear();
    modes.reserve(static_cast<size_t>(win.w) * win.h);
    // Pass 1: classify and signal BAB modes.
    for (int my = win.y; my < win.y + win.h; ++my) {
        for (int mx = win.x; mx < win.x + win.w; ++mx) {
            const BabMode mode =
                ShapeCoder::analyzeBab(alpha, mx * kMb, my * kMb);
            modes.push_back(mode);
            bits::putUe(bw, static_cast<uint32_t>(mode));
        }
    }
    // Pass 2: context-code boundary BABs into one arithmetic payload.
    ArithEncoder enc;
    size_t i = 0;
    for (int my = win.y; my < win.y + win.h; ++my) {
        for (int mx = win.x; mx < win.x + win.w; ++mx, ++i) {
            if (modes[i] == BabMode::Coded)
                shape_.encodeBab(enc, alpha, mx * kMb, my * kMb);
        }
    }
    const std::vector<uint8_t> payload = enc.finish();
    bits::putUe(bw, static_cast<uint32_t>(payload.size()));
    bw.byteAlign();
    for (uint8_t byte : payload)
        bw.putBits(byte, 8);
}

VopStats
VopEncoder::encodeTextureRow(bits::BitWriter &bw, bits::BitWriter *tex,
                             const VopHeader &hdr,
                             int my, const video::Yuv420Image &cur,
                             const std::vector<BabMode> &modes,
                             const RefFrames &refs,
                             video::Yuv420Image *recon)
{
    // Data partitioning: texture bits (coded flags, cbp, coefficient
    // events) land in *tex while motion/mode/DC bits stay in bw.
    // Without it both aliases write the same stream, preserving the
    // exact legacy interleaving bit for bit.
    bits::BitWriter &txw = tex ? *tex : bw;
    const video::Rect &win = hdr.mbWindow;
    const int qp = hdr.qp;
    const bool is_b = hdr.type == VopType::B;
    const bool fwd_ok = refs.past != nullptr;
    const bool bwd_ok = is_b && refs.future != nullptr;

    VopStats stats;
    RowPredictors rp(cfg_.mbWidth(), my);
    // Row-private prediction pixels, indexed like predBuf_.  The
    // shared SimBuffers remain the canonical simulated addresses for
    // tracing; their stored bytes are never touched here, so
    // concurrent rows do not race.
    uint8_t predData[3][384];

    obs::Span rowSpan("codec", "enc.row");
    if (rowSpan.active())
        rowSpan.setArgs("{\"row\":" + std::to_string(my) + "}");
    obs::StageTimes st;
    obs::beginStages(st);

    size_t mode_idx = static_cast<size_t>(my - win.y) * win.w;
    for (int mx = win.x; mx < win.x + win.w; ++mx, ++mode_idx) {
        rp.beginMb();
        const int px = mx * kMb;
        const int py = my * kMb;
        const BabMode bab = cfg_.hasShape ? modes[mode_idx]
                                          : BabMode::Opaque;
        if (bab == BabMode::Transparent) {
            ++stats.transparentMbs;
            if (recon)
                fillTransparentMb(*recon, px, py);
            continue;
        }

        // ---------------- mode decision -------------------------
        bool intra = hdr.type == VopType::I;
        SearchResult fwd{}, bwd{};
        int mode = 0; // B: 0=fwd, 1=bwd, 2=bi
        bool use_4mv = false;
        MotionVector mv4[4]{};
        {
        obs::StageScope motionScope(st, obs::Stage::Motion);
        if (hdr.type == VopType::P) {
            fwd = motionSearch(cur.y(), refs.past->y(), px, py,
                               cfg_.searchRange, cfg_.halfPel);
            int mean, dev;
            blockActivity16(cur.y(), px, py, mean, dev);
            intra = dev < fwd.sad - kIntraBias;
            if (!intra && cfg_.fourMv) {
                // INTER4V: refine one vector per 8x8 block in a
                // small window around the 16x16 optimum.
                int sad4 = 0;
                for (int b = 0; b < 4; ++b) {
                    const SearchResult r8 = motionSearch8(
                        cur.y(), refs.past->y(), px + (b & 1) * 8,
                        py + (b >> 1) * 8, fwd.mv, 2,
                        cfg_.halfPel);
                    mv4[b] = r8.mv;
                    sad4 += r8.sad;
                }
                // MoMuSys-style bias against the 4MV overhead.
                use_4mv = sad4 + 200 < fwd.sad;
            }
        } else if (is_b) {
            int best = INT32_MAX;
            if (fwd_ok) {
                fwd = motionSearch(cur.y(), refs.past->y(), px, py,
                                   cfg_.searchRangeB, cfg_.halfPel);
                best = fwd.sad;
                mode = 0;
            }
            if (bwd_ok) {
                if (cfg_.enhancement) {
                    // Spatial reference: co-located, zero vector.
                    bwd.mv = {0, 0};
                    bwd.sad = sad16(cur.y(), px, py,
                                    refs.future->y(), px, py,
                                    INT32_MAX);
                } else {
                    bwd = motionSearch(cur.y(), refs.future->y(),
                                       px, py, cfg_.searchRangeB,
                                       cfg_.halfPel);
                }
                if (!fwd_ok || bwd.sad < best) {
                    best = bwd.sad;
                    mode = 1;
                }
            }
        }
        } // motion stage

        // ---------------- prediction build ----------------------
        const uint8_t *pred = nullptr; // 384-byte Y+U+V layout
        if (!intra && hdr.type != VopType::I) {
            obs::StageScope reconScope(st, obs::Stage::Recon);
            if (is_b) {
                if (fwd_ok)
                    predictMb(*refs.past, refs.pastInterp, px, py,
                              fwd.mv, predData[0], predBuf_[0]);
                if (bwd_ok)
                    predictMb(*refs.future, refs.futureInterp, px, py,
                              bwd.mv, predData[1], predBuf_[1]);
                if (fwd_ok && bwd_ok) {
                    averageMb(predData, predBuf_);
                    // Interpolated-mode SAD over luma.
                    int sad_bi = 0;
                    for (int row = 0; row < kMb; ++row) {
                        cur.y().traceLoadRow(px, py + row, kMb);
                        const uint8_t *c =
                            cur.y().rowPtr(py + row) + px;
                        const uint8_t *pb = predData[2] + row * kMb;
                        for (int i = 0; i < kMb; ++i) {
                            sad_bi += std::abs(
                                static_cast<int>(c[i]) - pb[i]);
                        }
                    }
                    predBuf_[2].traceLoadRow(0, 256);
                    const int prev_best =
                        mode == 0 ? fwd.sad : bwd.sad;
                    if (sad_bi < prev_best)
                        mode = 2;
                }
            } else if (use_4mv) {
                predictMb4v(*refs.past, px, py, mv4, predData[0],
                            predBuf_[0]);
            } else {
                predictMb(*refs.past, refs.pastInterp, px, py, fwd.mv,
                          predData[0], predBuf_[0]);
            }
            pred = predData[is_b ? mode : 0];
        }

        // ---------------- block analysis ------------------------
        BlockCode blocks[6];
        int cbp = 0;
        const memsim::SimBuffer<uint8_t> &pred_buf =
            predBuf_[is_b ? mode : 0];
        {
        obs::StageScope dctScope(st, obs::Stage::DctQuant);
        for (int b = 0; b < 6; ++b) {
            const BlockGeometry g = blockGeometry(b, mx, my);
            if (pred)
                pred_buf.traceLoadRow(g.predOffset, 64);
            blocks[b] = analyzeBlock(rp, cur, g, pred, intra, qp);
            if (blocks[b].coded)
                cbp |= 1 << b;
        }
        } // dct_quant stage

        // ---------------- skip decision & bit writing -----------
        {
        obs::StageScope rlcScope(st, obs::Stage::Rlc);
        if (hdr.type == VopType::P && !intra && !use_4mv &&
            cbp == 0 && fwd.mv.isZero()) {
            bw.putBit(true); // not_coded
            ++stats.skippedMbs;
            rp.setMv(0, {0, 0});
        } else if (is_b && cbp == 0 &&
                   ((mode == 0 && fwd.mv.isZero()) ||
                    (mode == 1 && bwd.mv.isZero() && !fwd_ok))) {
            bw.putBit(true); // B skip: default direction, mv 0
            ++stats.skippedMbs;
        } else {
            if (hdr.type != VopType::I)
                bw.putBit(false); // coded
            if (hdr.type == VopType::P)
                bw.putBit(intra);
            if (is_b) {
                bits::putUe(bw, static_cast<uint32_t>(mode));
                if (mode != 1) { // uses forward mv
                    const MotionVector pmv = rp.predictMv(0);
                    bits::putSe(bw, fwd.mv.x - pmv.x);
                    bits::putSe(bw, fwd.mv.y - pmv.y);
                    rp.setMv(0, fwd.mv);
                }
                if (mode != 0 && !cfg_.enhancement) {
                    const MotionVector pmv = rp.predictMv(1);
                    bits::putSe(bw, bwd.mv.x - pmv.x);
                    bits::putSe(bw, bwd.mv.y - pmv.y);
                    rp.setMv(1, bwd.mv);
                }
                if (mode == 0)
                    ++stats.interMbs;
                else if (mode == 1)
                    ++stats.backwardMbs;
                else
                    ++stats.bidirectionalMbs;
            } else if (!intra) {
                const MotionVector pmv = rp.predictMv(0);
                bw.putBit(use_4mv);
                if (use_4mv) {
                    for (int b = 0; b < 4; ++b) {
                        bits::putSe(bw, mv4[b].x - pmv.x);
                        bits::putSe(bw, mv4[b].y - pmv.y);
                    }
                    // Neighbour prediction sees the average.
                    rp.setMv(0, meanVector(mv4));
                    ++stats.fourMvMbs;
                } else {
                    bits::putSe(bw, fwd.mv.x - pmv.x);
                    bits::putSe(bw, fwd.mv.y - pmv.y);
                    rp.setMv(0, fwd.mv);
                }
                ++stats.interMbs;
            } else {
                ++stats.intraMbs;
            }

            if (intra) {
                for (int b = 0; b < 6; ++b) {
                    bits::putSe(bw, blocks[b].dcDelta);
                    txw.putBit(blocks[b].coded);
                    if (blocks[b].coded)
                        writeBlockEvents(txw, blocks[b].events);
                }
            } else {
                txw.putBits(static_cast<uint32_t>(cbp), 6);
                for (int b = 0; b < 6; ++b) {
                    if (blocks[b].coded)
                        writeBlockEvents(txw, blocks[b].events);
                }
            }
            stats.codedBlocks += std::popcount(
                static_cast<unsigned>(cbp));
        }
        } // rlc stage

        // ---------------- reconstruction ------------------------
        if (recon) {
            obs::StageScope reconScope(st, obs::Stage::Recon);
            for (int b = 0; b < 6; ++b) {
                reconBlock(blocks[b], blockGeometry(b, mx, my), pred,
                           intra, qp, *recon);
            }
        }
    }

    obs::emitStageSpans("codec", "enc", st);
    static obs::Counter &rowsC = obs::counter("enc.rows");
    static obs::Counter &mbsC = obs::counter("enc.mbs");
    static obs::Histogram &rowMbsH =
        obs::histogram("enc.row_mb_count", {8, 16, 32, 64, 128});
    rowsC.add();
    mbsC.add(static_cast<uint64_t>(win.w));
    rowMbsH.observe(static_cast<double>(win.w));
    return stats;
}

VopStats
VopEncoder::encode(bits::BitWriter &bw, const VopHeader &hdr,
                   const video::Yuv420Image &cur,
                   const video::Plane *alpha, const RefFrames &refs,
                   video::Yuv420Image *recon, video::Plane *recon_alpha)
{
    M4PS_ASSERT(cur.width() == cfg_.width &&
                cur.height() == cfg_.height, "frame size mismatch");
    M4PS_ASSERT(!cfg_.hasShape || alpha, "shaped VOL needs alpha");
    M4PS_ASSERT(hdr.type == VopType::I || refs.past || refs.future,
                "predicted VOP without references");

    obs::Span vopSpan("codec", "enc.vop");
    std::optional<memsim::MemoryHierarchy::ScopedRegion> region;
    if (mem_)
        region.emplace(*mem_, "VopEncode");

    const uint64_t start_bits = bw.bitCount();
    writeVopHeader(bw, hdr);
    resetVopState(hdr);

    VopStats stats;
    stats.type = hdr.type;
    std::vector<BabMode> modes;
    if (cfg_.hasShape)
        encodeShapePass(bw, hdr, *alpha, modes);

    const bool fwd_ok = refs.past != nullptr;
    const bool bwd_ok = hdr.type == VopType::B &&
                        refs.future != nullptr;
    M4PS_ASSERT(hdr.type != VopType::P || fwd_ok,
                "P-VOP needs a past reference");
    M4PS_ASSERT(hdr.type != VopType::B || fwd_ok || bwd_ok,
                "B-VOP needs a reference");

    const video::Rect &win = hdr.mbWindow;
    const int rows = win.h;
    const bool dp = hdr.packetized && hdr.dataPartitioned;
    std::vector<bits::BitWriter> rowBw(rows);
    std::vector<bits::BitWriter> rowTex(dp ? rows : 0);
    std::vector<VopStats> rowStats(rows);
    memsim::orderedParallelFor(mem_, rows, [&](int r) {
        rowStats[r] = encodeTextureRow(rowBw[r],
                                       dp ? &rowTex[r] : nullptr, hdr,
                                       win.y + r, cur, modes, refs,
                                       recon);
    });

    if (hdr.packetized) {
        appendPackets(bw, hdr, rowBw, dp ? &rowTex : nullptr);
    } else {
        // Deterministic merge: the row-length table, then every row's
        // payload bits, all in raster order.  The layout does not
        // depend on the thread count.
        for (int r = 0; r < rows; ++r)
            bits::putUe(bw, static_cast<uint32_t>(rowBw[r].bitCount()));
        for (int r = 0; r < rows; ++r)
            bw.append(rowBw[r]);
    }
    for (const VopStats &rs : rowStats)
        stats += rs;

    if (recon_alpha && alpha)
        recon_alpha->copyFrom(*alpha);

    stats.bits = bw.bitCount() - start_bits;
    tick(static_cast<double>(stats.bits) * kEncodeCyclesPerBit);

    static obs::Counter &vopsC = obs::counter("enc.vops");
    static obs::Counter &bitsC = obs::counter("enc.bits");
    vopsC.add();
    bitsC.add(stats.bits);
    if (vopSpan.active()) {
        vopSpan.setArgs("{\"type\":" +
                        std::to_string(vopTypeBits(hdr.type)) +
                        ",\"rows\":" + std::to_string(rows) +
                        ",\"bits\":" + std::to_string(stats.bits) +
                        "}");
    }
    return stats;
}

void
VopEncoder::appendPackets(bits::BitWriter &bw, const VopHeader &hdr,
                          const std::vector<bits::BitWriter> &rowBw,
                          const std::vector<bits::BitWriter> *rowTex)
{
    const int rows = static_cast<int>(rowBw.size());
    const int interval = std::max(1, cfg_.resyncInterval);
    for (int r0 = 0; r0 < rows; r0 += interval) {
        const int n = std::min(interval, rows - r0);
        // Packet header.  The quantizer, VOP type, and timestamp
        // duplicate fields from the VOP header (header-extension-code
        // style redundancy) so a decoder that lost the VOP header can
        // still validate the packet belongs here.
        bits::putResyncMarker(bw);
        bits::putUe(bw, static_cast<uint32_t>(r0));
        bits::putUe(bw, static_cast<uint32_t>(n));
        bw.putBits(static_cast<uint32_t>(hdr.qp), 5);
        bw.putBits(static_cast<uint32_t>(vopTypeBits(hdr.type)), 2);
        bits::putUe(bw, static_cast<uint32_t>(hdr.timestamp));
        for (int r = r0; r < r0 + n; ++r)
            bits::putUe(bw, static_cast<uint32_t>(rowBw[r].bitCount()));
        for (int r = r0; r < r0 + n; ++r)
            bw.append(rowBw[r]);
        if (rowTex) {
            // Data partitioning: motion/mode/DC bits above, then the
            // motion marker, then the texture partition.
            bits::putMotionMarker(bw);
            for (int r = r0; r < r0 + n; ++r) {
                bits::putUe(bw, static_cast<uint32_t>(
                    (*rowTex)[r].bitCount()));
            }
            for (int r = r0; r < r0 + n; ++r)
                bw.append((*rowTex)[r]);
        }
    }
}

// ---------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------

/**
 * Intermediate-structure hops per macroblock in the reference
 * decoder's reconstruction path (see VopDecoder::marshalMacroblock).
 */
constexpr int kMarshalPasses = 8;

VopDecoder::VopDecoder(memsim::SimContext &ctx, const VolConfig &cfg)
    : VopCodecBase(ctx, cfg), mbAssembly_(ctx, 384),
      clipTable_(ctx, 1024)
{
}

void
VopDecoder::marshalMacroblock()
{
    // The compiler also prefetches inside these copy loops; the
    // buffer is L1-resident, so the prefetches are nearly all nops -
    // the waste the paper measures.
    mbAssembly_.prefetch(0);
    for (int pass = 0; pass < kMarshalPasses; ++pass) {
        mbAssembly_.traceStoreRow(0, 384);
        mbAssembly_.traceLoadRow(0, 384);
    }
}

namespace
{

/** Validate (last,run,level) events against block bounds. */
bool
validEvents(const std::vector<RunLevel> &events, int first)
{
    if (events.empty() || !events.back().last)
        return false;
    int pos = first;
    for (const RunLevel &e : events) {
        if (e.level == 0 || e.run < 0)
            return false;
        pos += e.run;
        if (pos >= kBlockSize)
            return false;
        ++pos;
    }
    return true;
}

} // namespace

void
VopDecoder::decodeShapePass(bits::BitReader &br, const VopHeader &hdr,
                            video::Plane &alpha,
                            std::vector<BabMode> &modes)
{
    const video::Rect &win = hdr.mbWindow;
    modes.clear();
    modes.reserve(static_cast<size_t>(win.w) * win.h);
    for (int i = 0; i < win.w * win.h; ++i) {
        const uint32_t m = bits::getUe(br);
        modes.push_back(m <= 2 ? static_cast<BabMode>(m)
                               : BabMode::Transparent);
    }
    const uint32_t payload_len = bits::getUe(br);
    if (payload_len > br.bitsLeft() / 8 + 8)
        throw StreamError("shape payload longer than the stream");
    br.byteAlign();
    std::vector<uint8_t> payload(payload_len);
    for (uint32_t i = 0; i < payload_len; ++i)
        payload[i] = static_cast<uint8_t>(br.getBits(8));

    // The plane outside the window is transparent by definition.
    alpha.fill(0);
    ArithDecoder dec(payload);
    size_t idx = 0;
    for (int my = win.y; my < win.y + win.h; ++my) {
        for (int mx = win.x; mx < win.x + win.w; ++mx, ++idx) {
            const int px = mx * kMb;
            const int py = my * kMb;
            switch (modes[idx]) {
              case BabMode::Transparent:
                for (int row = 0; row < kMb; ++row) {
                    uint8_t *r = alpha.rowPtr(py + row) + px;
                    std::fill(r, r + kMb, 0);
                    alpha.traceStoreRow(px, py + row, kMb);
                }
                break;
              case BabMode::Opaque:
                for (int row = 0; row < kMb; ++row) {
                    uint8_t *r = alpha.rowPtr(py + row) + px;
                    std::fill(r, r + kMb, 255);
                    alpha.traceStoreRow(px, py + row, kMb);
                }
                break;
              case BabMode::Coded:
                shape_.decodeBab(dec, alpha, px, py);
                break;
            }
        }
    }
}

void
VopDecoder::decodeBlockInto(RowPredictors &rp, bits::BitReader &br,
                            bits::BitReader &tex, const BlockGeometry &g,
                            const uint8_t *pred, bool intra, bool coded,
                            int qp, video::Yuv420Image &out,
                            obs::StageTimes &st)
{
    // Mirrors the encoder's partition split: DC deltas travel with
    // the motion partition (br), coefficient data with the texture
    // partition (tex).  Callers alias the two when not partitioned.
    Block scanned;
    scanned.fill(0);
    int dc_level = 0;
    bool any = false;
    {
    obs::StageScope rlcScope(st, obs::Stage::Rlc);
    if (intra) {
        const int dc_delta = bits::getSe(br);
        dc_level = rp.predictDc(g.plane, g.dcX, g.dcY) + dc_delta;
        rp.setDc(g.plane, g.dcX, g.dcY, dc_level);
        const bool has_ac = tex.getBit();
        if (has_ac) {
            const auto events = readBlockEvents(tex);
            if (!validEvents(events, 1))
                throw StreamError("corrupt intra block events");
            runLengthDecode(events, scanned, 1);
        }
        any = has_ac || dc_level != 0;
        traceBlockStore(kScanned);
    } else if (coded) {
        const auto events = readBlockEvents(tex);
        if (!validEvents(events, 0))
            throw StreamError("corrupt inter block events");
        runLengthDecode(events, scanned, 0);
        any = true;
        traceBlockStore(kScanned);
    }
    } // rlc stage

    Block idct;
    if (any) {
        obs::StageScope dctScope(st, obs::Stage::DctQuant);
        Block levels;
        traceBlockLoad(kScanned);
        unscan(scanned, levels);
        traceBlockStore(kLevels);
        tick(kPassCycles);
        if (intra)
            levels[0] = static_cast<int16_t>(dc_level);
        QuantParams qparams{qp, intra, cfg_.mpegQuant, g.plane == 0};
        Block dequant;
        traceBlockLoad(kLevels);
        dequantize(levels, dequant, qparams);
        traceBlockStore(kDequant);
        tick(kPassCycles);
        traceBlockLoad(kDequant);
        inverseDct(dequant, idct);
        // Two-pass transform: intermediate transpose array.
        traceBlockStore(kCoef);
        traceBlockLoad(kCoef);
        traceBlockStore(kIdct);
        tick(kDctCycles);
    } else {
        idct.fill(0);
    }

    obs::StageScope reconScope(st, obs::Stage::Recon);
    traceBlockLoad(kIdct);
    // Saturation via the reference decoder's clip lookup table.
    clipTable_.traceLoadRow(0, kBlockSize);
    addResidual(idct, g, pred, intra, out.plane(g.plane));
}

VopStats
VopDecoder::decodeTextureRow(bits::BitReader &br, bits::BitReader *tex,
                             const VopHeader &hdr,
                             int my, const std::vector<BabMode> &modes,
                             const RefFrames &refs,
                             video::Yuv420Image &out,
                             MotionVector *mv_row)
{
    bits::BitReader &txr = tex ? *tex : br;
    const video::Rect &win = hdr.mbWindow;
    const int qp = hdr.qp;
    const bool is_b = hdr.type == VopType::B;
    const bool fwd_ok = refs.past != nullptr;
    const bool bwd_ok = is_b && refs.future != nullptr;

    VopStats stats;
    RowPredictors rp(cfg_.mbWidth(), my);
    // Row-private prediction pixels (see encodeTextureRow).
    uint8_t predData[3][384];

    obs::Span rowSpan("codec", "dec.row");
    if (rowSpan.active())
        rowSpan.setArgs("{\"row\":" + std::to_string(my) + "}");
    obs::StageTimes st;
    obs::beginStages(st);

    size_t mode_idx = static_cast<size_t>(my - win.y) * win.w;
    for (int mx = win.x; mx < win.x + win.w; ++mx, ++mode_idx) {
        rp.beginMb();
        const int px = mx * kMb;
        const int py = my * kMb;
        const BabMode bab = cfg_.hasShape ? modes[mode_idx]
                                          : BabMode::Opaque;
        if (bab == BabMode::Transparent) {
            ++stats.transparentMbs;
            fillTransparentMb(out, px, py);
            continue;
        }

        bool intra = hdr.type == VopType::I;
        bool skipped = false;
        bool use_4mv = false;
        int mode = 0;
        MotionVector mvf{}, mvb{}, mv4[4]{};
        int cbp = 0;

        {
        obs::StageScope motionScope(st, obs::Stage::Motion);
        if (hdr.type != VopType::I) {
            skipped = br.getBit();
            if (skipped) {
                ++stats.skippedMbs;
                if (is_b)
                    mode = fwd_ok ? 0 : 1;
                if (!is_b)
                    rp.setMv(0, {0, 0});
                intra = false;
            } else {
                if (hdr.type == VopType::P)
                    intra = br.getBit();
                if (is_b) {
                    mode = static_cast<int>(bits::getUe(br));
                    if (mode > 2)
                        mode = 0; // corrupt stream tolerance
                    if (mode != 1) {
                        const MotionVector pmv = rp.predictMv(0);
                        mvf.x = pmv.x + bits::getSe(br);
                        mvf.y = pmv.y + bits::getSe(br);
                        rp.setMv(0, mvf);
                    }
                    if (mode != 0 && !cfg_.enhancement) {
                        const MotionVector pmv = rp.predictMv(1);
                        mvb.x = pmv.x + bits::getSe(br);
                        mvb.y = pmv.y + bits::getSe(br);
                        rp.setMv(1, mvb);
                    }
                    if (mode == 0)
                        ++stats.interMbs;
                    else if (mode == 1)
                        ++stats.backwardMbs;
                    else
                        ++stats.bidirectionalMbs;
                } else if (!intra) {
                    const MotionVector pmv = rp.predictMv(0);
                    use_4mv = br.getBit();
                    if (use_4mv) {
                        for (int b = 0; b < 4; ++b) {
                            mv4[b].x = pmv.x + bits::getSe(br);
                            mv4[b].y = pmv.y + bits::getSe(br);
                        }
                        rp.setMv(0, meanVector(mv4));
                        ++stats.fourMvMbs;
                    } else {
                        mvf.x = pmv.x + bits::getSe(br);
                        mvf.y = pmv.y + bits::getSe(br);
                        rp.setMv(0, mvf);
                    }
                    ++stats.interMbs;
                } else {
                    ++stats.intraMbs;
                }
                if (!intra)
                    cbp = static_cast<int>(txr.getBits(6));
            }
        } else {
            ++stats.intraMbs;
        }

        // Record a concealment-candidate forward vector for this MB.
        if (mv_row) {
            MotionVector cand{0, 0};
            if (!intra) {
                if (use_4mv)
                    cand = meanVector(mv4);
                else if (!is_b || mode == 0 || mode == 2)
                    cand = mvf;
            }
            mv_row[mx - win.x] = cand;
        }
        } // motion stage

        // ---------------- prediction build ----------------------
        const uint8_t *pred = nullptr;
        if (!intra) {
            obs::StageScope reconScope(st, obs::Stage::Recon);
            if (is_b) {
                // Corrupt mode bits can ask for a reference that is
                // not there; that is a stream error, not a bug.
                if (mode == 0 || mode == 2) {
                    if (!fwd_ok)
                        throw StreamError("fwd mode without past ref");
                    predictMb(*refs.past, refs.pastInterp, px, py, mvf,
                              predData[0], predBuf_[0]);
                }
                if (mode == 1 || mode == 2) {
                    if (!bwd_ok)
                        throw StreamError("bwd mode without ref");
                    predictMb(*refs.future, refs.futureInterp, px, py,
                              mvb, predData[1], predBuf_[1]);
                }
                if (mode == 2)
                    averageMb(predData, predBuf_);
            } else if (!fwd_ok) {
                throw StreamError("P-VOP without past ref");
            } else if (use_4mv) {
                predictMb4v(*refs.past, px, py, mv4, predData[0],
                            predBuf_[0]);
            } else {
                predictMb(*refs.past, refs.pastInterp, px, py, mvf,
                          predData[0], predBuf_[0]);
            }
            pred = predData[is_b ? mode : 0];
        }

        // ---------------- block decode --------------------------
        const memsim::SimBuffer<uint8_t> &pred_buf =
            predBuf_[is_b ? mode : 0];
        for (int b = 0; b < 6; ++b) {
            const BlockGeometry g = blockGeometry(b, mx, my);
            if (pred)
                pred_buf.traceLoadRow(g.predOffset, 64);
            const bool coded =
                !skipped && !intra && ((cbp >> b) & 1);
            stats.codedBlocks += coded ? 1 : 0;
            if (skipped) {
                // Straight copy of the prediction.
                obs::StageScope reconScope(st, obs::Stage::Recon);
                video::Plane &pl = out.plane(g.plane);
                for (int row = 0; row < kBlockEdge; ++row) {
                    const uint8_t *p =
                        pred + g.predOffset + row * g.predStride;
                    std::copy(p, p + kBlockEdge,
                              pl.rowPtr(g.y0 + row) + g.x0);
                    pl.traceStoreRow(g.x0, g.y0 + row, kBlockEdge);
                }
            } else {
                decodeBlockInto(rp, br, txr, g, pred, intra, coded, qp,
                                out, st);
            }
        }
        marshalMacroblock();
        if (br.overrun() || txr.overrun())
            throw StreamError("bitstream exhausted mid-VOP "
                              "(corrupt or truncated stream)");
    }

    obs::emitStageSpans("codec", "dec", st);
    static obs::Counter &rowsC = obs::counter("dec.rows");
    static obs::Counter &mbsC = obs::counter("dec.mbs");
    rowsC.add();
    mbsC.add(static_cast<uint64_t>(win.w));
    return stats;
}

VopStats
VopDecoder::decode(bits::BitReader &br, const VopHeader &hdr,
                   const RefFrames &refs, video::Yuv420Image &out,
                   video::Plane *out_alpha)
{
    M4PS_ASSERT(out.width() == cfg_.width &&
                out.height() == cfg_.height, "frame size mismatch");
    M4PS_ASSERT(!cfg_.hasShape || out_alpha,
                "shaped VOL needs an alpha output");

    obs::Span vopSpan("codec", "dec.vop");
    std::optional<memsim::MemoryHierarchy::ScopedRegion> region;
    if (mem_)
        region.emplace(*mem_, "VopDecode");

    const video::Rect &win = hdr.mbWindow;
    if (win.x < 0 || win.y < 0 || win.w <= 0 || win.h <= 0 ||
        win.x + win.w > cfg_.mbWidth() ||
        win.y + win.h > cfg_.mbHeight()) {
        throw StreamError("VOP window outside the VOL");
    }
    if (hdr.qp < 1 || hdr.qp > 31)
        throw StreamError("VOP quantizer out of range");
    const uint64_t start_bits = br.bitPos();
    resetVopState(hdr);

    VopStats stats;
    stats.type = hdr.type;
    std::vector<BabMode> modes;
    if (cfg_.hasShape)
        decodeShapePass(br, hdr, *out_alpha, modes);

    const bool fwd_ok = refs.past != nullptr;
    const bool bwd_ok = hdr.type == VopType::B &&
                        refs.future != nullptr;
    if (hdr.type == VopType::P && !fwd_ok)
        throw StreamError("P-VOP without a past reference");
    if (hdr.type == VopType::B && !fwd_ok && !bwd_ok)
        throw StreamError("B-VOP without references");

    const int rows = win.h;
    std::vector<VopStats> rowStats(rows);

    if (hdr.packetized) {
        // Resilient VOP: rows arrive in video packets.  Packets that
        // fail validation are skipped (their rows stay uncovered);
        // rows whose payload fails to parse are flagged bad.  Both
        // classes are concealed after the good rows land.
        std::vector<RowSpan> spans(rows);
        parsePackets(br, hdr, spans, stats);

        std::vector<MotionVector> mvField(
            static_cast<size_t>(rows) * win.w);
        std::vector<uint8_t> rowGood(rows, 0);

        memsim::orderedParallelFor(mem_, rows, [&](int r) {
            if (!spans[r].covered)
                return;
            bits::BitReader rbr = br;
            rbr.seekBits(spans[r].start);
            bits::BitReader texr = br;
            const bool dp = hdr.dataPartitioned;
            if (dp)
                texr.seekBits(spans[r].texStart);
            try {
                rowStats[r] = decodeTextureRow(
                    rbr, dp ? &texr : nullptr, hdr, win.y + r, modes,
                    refs, out,
                    mvField.data() + static_cast<size_t>(r) * win.w);
                if (rbr.overrun() ||
                    rbr.bitPos() != spans[r].start + spans[r].bits ||
                    (dp && (texr.overrun() ||
                            texr.bitPos() !=
                                spans[r].texStart + spans[r].texBits))) {
                    throw StreamError("slice row does not match its "
                                      "coded length");
                }
                rowGood[r] = 1;
            } catch (const StreamError &) {
                rowStats[r] = VopStats{};
            }
        });

        // Sequential concealment pass over everything that was lost.
        for (int r = 0; r < rows; ++r) {
            if (!rowGood[r])
                concealRow(r, hdr, refs, mvField, rowGood, out, stats);
        }
    } else {
        // Row-length table: per-row payload sizes in bits, raster
        // order.
        std::vector<uint64_t> rowBits(rows);
        uint64_t total = 0;
        for (int r = 0; r < rows; ++r) {
            rowBits[r] = bits::getUe(br);
            total += rowBits[r];
        }
        if (br.overrun() || total > br.bitsLeft())
            throw StreamError("corrupt slice-row length table");
        const uint64_t base = br.bitPos();
        std::vector<uint64_t> rowStart(rows);
        uint64_t off = base;
        for (int r = 0; r < rows; ++r) {
            rowStart[r] = off;
            off += rowBits[r];
        }

        memsim::orderedParallelFor(mem_, rows, [&](int r) {
            bits::BitReader rbr = br;
            rbr.seekBits(rowStart[r]);
            try {
                rowStats[r] = decodeTextureRow(rbr, nullptr, hdr,
                                               win.y + r, modes, refs,
                                               out, nullptr);
                if (rbr.overrun() ||
                    rbr.bitPos() != rowStart[r] + rowBits[r]) {
                    throw StreamError("slice row does not match its "
                                      "coded length");
                }
            } catch (const StreamError &) {
                // Slice concealment: rows are independent, so a
                // corrupt payload costs exactly this row.  The frame
                // store keeps whatever it held before; neighbours are
                // unaffected and the outer reader continues at the
                // table's offsets.
                rowStats[r] = VopStats{};
                rowStats[r].corruptedRows = 1;
            }
        });

        br.seekBits(base + total);
    }
    for (const VopStats &rs : rowStats)
        stats += rs;

    stats.bits = br.bitPos() - start_bits;
    tick(static_cast<double>(stats.bits) * kDecodeCyclesPerBit);

    static obs::Counter &vopsC = obs::counter("dec.vops");
    static obs::Counter &concealedC = obs::counter("dec.concealed_mbs");
    static obs::Counter &corruptC = obs::counter("dec.corrupt_packets");
    vopsC.add();
    concealedC.add(static_cast<uint64_t>(stats.concealedMbs));
    corruptC.add(static_cast<uint64_t>(stats.corruptPackets));
    if (vopSpan.active()) {
        vopSpan.setArgs("{\"type\":" +
                        std::to_string(vopTypeBits(hdr.type)) +
                        ",\"rows\":" + std::to_string(rows) +
                        ",\"bits\":" + std::to_string(stats.bits) +
                        "}");
    }
    return stats;
}

void
VopDecoder::parsePackets(bits::BitReader &br, const VopHeader &hdr,
                         std::vector<RowSpan> &spans, VopStats &stats)
{
    const video::Rect &win = hdr.mbWindow;
    const int rows = win.h;
    for (;;) {
        const bits::PacketScan scan = bits::nextPacketBoundary(br);
        if (scan != bits::PacketScan::Resync)
            break; // Next startcode (left unconsumed) or stream end.

        // Packet header; every field is validated against the VOP
        // header before the payload is trusted.
        const int r0 = static_cast<int>(bits::getUe(br));
        const int n = static_cast<int>(bits::getUe(br));
        const int qp = static_cast<int>(br.getBits(5));
        const int type_bits = static_cast<int>(br.getBits(2));
        const int ts = static_cast<int>(bits::getUe(br));
        if (br.overrun() || r0 < 0 || n < 1 || r0 >= rows ||
            n > rows - r0 || qp != hdr.qp ||
            type_bits != vopTypeBits(hdr.type) ||
            ts != hdr.timestamp) {
            ++stats.corruptPackets;
            continue; // Rescan for the next marker.
        }

        const bool dp = hdr.dataPartitioned;
        std::vector<uint64_t> lens(n);
        uint64_t total = 0;
        for (int i = 0; i < n; ++i) {
            lens[i] = bits::getUe(br);
            total += lens[i];
        }
        if (br.overrun() || total > br.bitsLeft()) {
            ++stats.corruptPackets;
            continue;
        }
        uint64_t off = br.bitPos();
        const uint64_t motion_end = off + total;
        std::vector<uint64_t> starts(n);
        for (int i = 0; i < n; ++i) {
            starts[i] = off;
            off += lens[i];
        }

        std::vector<uint64_t> texLens(dp ? n : 0);
        std::vector<uint64_t> texStarts(dp ? n : 0);
        if (dp) {
            // The texture partition sits behind a byte-aligned motion
            // marker at the end of the motion partition.
            br.seekBits(motion_end);
            br.byteAlign();
            if (br.bitsLeft() < 24 ||
                br.getBits(24) != bits::kMotionMarker) {
                ++stats.corruptPackets;
                br.seekBits(motion_end);
                continue;
            }
            uint64_t tex_total = 0;
            for (int i = 0; i < n; ++i) {
                texLens[i] = bits::getUe(br);
                tex_total += texLens[i];
            }
            if (br.overrun() || tex_total > br.bitsLeft()) {
                ++stats.corruptPackets;
                continue;
            }
            uint64_t tex_off = br.bitPos();
            for (int i = 0; i < n; ++i) {
                texStarts[i] = tex_off;
                tex_off += texLens[i];
            }
            br.seekBits(tex_off);
        } else {
            br.seekBits(motion_end);
        }

        ++stats.packets;
        for (int i = 0; i < n; ++i) {
            RowSpan &s = spans[r0 + i];
            if (s.covered)
                continue; // First packet claiming a row wins.
            s.start = starts[i];
            s.bits = lens[i];
            if (dp) {
                s.texStart = texStarts[i];
                s.texBits = texLens[i];
            }
            s.covered = true;
        }
    }
}

void
VopDecoder::concealRow(int r, const VopHeader &hdr,
                       const RefFrames &refs,
                       const std::vector<MotionVector> &mvField,
                       const std::vector<uint8_t> &rowGood,
                       video::Yuv420Image &out, VopStats &stats)
{
    const video::Rect &win = hdr.mbWindow;
    const int rows = win.h;

    // Nearest surviving row donates its motion field; ties prefer
    // the row above (its vectors were predicted top-down, like ours
    // would have been).
    int donor = -1;
    for (int d = 1; d < rows && donor < 0; ++d) {
        if (r - d >= 0 && rowGood[r - d])
            donor = r - d;
        else if (r + d < rows && rowGood[r + d])
            donor = r + d;
    }

    const video::Yuv420Image *src = refs.past;
    const bool use_mv = src != nullptr;
    if (!src)
        src = refs.future; // Zero-MV fallback for a lost B/I row.

    if (!src) {
        // No reference at all (lost I-VOP rows): the frame store
        // keeps whatever it held, which is the best we can do.
        stats.corruptedRows += 1;
        return;
    }

    uint8_t buf[384];
    const int my = win.y + r;
    for (int mx = win.x; mx < win.x + win.w; ++mx) {
        MotionVector mv{0, 0};
        if (use_mv && donor >= 0) {
            mv = mvField[static_cast<size_t>(donor) * win.w +
                         (mx - win.x)];
        }
        const int px = mx * kMb;
        const int py = my * kMb;
        // Concealment copies from the reference frame itself, never
        // from its half-pel planes.
        predictMb(*src, nullptr, px, py, mv, buf, predBuf_[0]);
        predBuf_[0].traceLoadRow(0, 384);
        for (int row = 0; row < kMb; ++row) {
            uint8_t *dst = out.y().rowPtr(py + row) + px;
            std::memcpy(dst, buf + row * kMb, kMb);
            out.y().traceStoreRow(px, py + row, kMb);
        }
        for (int p = 1; p < 3; ++p) {
            const uint8_t *s = buf + 256 + (p - 1) * 64;
            video::Plane &pl = out.plane(p);
            for (int row = 0; row < 8; ++row) {
                uint8_t *dst = pl.rowPtr(py / 2 + row) + px / 2;
                std::memcpy(dst, s + row * 8, 8);
                pl.traceStoreRow(px / 2, py / 2 + row, 8);
            }
        }
        ++stats.concealedMbs;
    }
    stats.corruptedRows += 1;
}

} // namespace m4ps::codec
