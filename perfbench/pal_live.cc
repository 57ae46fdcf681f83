/**
 * @file
 * pal_live: the live path m4ps_run, the job worker and serve all run.
 * Per frame SceneFeeder::inputs then Mpeg4Encoder::encodeFrame, first
 * at N threads and then again at 1 thread, then Mpeg4Decoder::decode
 * of the stream at N threads.  720x576, 1 VO / 1 VOL, untraced: scene
 * generation, the codec stages and the pool do almost all the work,
 * and memsim, fec and serve do none.
 */

#include <string>

#include "common.hh"
#include "support/serialize.hh"
#include "support/threadpool.hh"
#include "video/quality.hh"
#include "video/scene.hh"

namespace m4ps::perfbench
{

namespace
{

/** Frames per pass: two 12-frame GOPs, so every VOP type recurs. */
constexpr int kFrames = 24;

/** Decodes per sample: one pass at ~2 ms/frame is too short to time. */
constexpr int kDecodeRepeats = 8;

/** Frames a set-up encodes to start the pool and page in frame stores. */
constexpr int kWarmupFrames = 4;

/**
 * FNV-1a of the pass stream at the default seed, recorded when the
 * benchmark was written.  Bitstreams are promised never to change.
 */
constexpr uint64_t kDefaultSeed = 1;
constexpr uint64_t kRecordedStreamFnv = 0x985a205c29df3da6ull;

/** Decoded frames must resemble the source scene (mean luma PSNR). */
constexpr double kMinPsnrDb = 25.0;

core::Workload
palWorkload(uint64_t seed)
{
    core::Workload w = core::paperWorkload(720, 576, 1, 1);
    w.frames = kFrames;
    w.seed = seed;
    return w;
}

std::vector<uint8_t>
encodePass(const core::Workload &w, int threads, double *wallS)
{
    support::ThreadPool::setGlobalThreads(threads);
    memsim::SimContext ctx;
    return encodeLive(ctx, w, wallS);
}

/** kDecodeRepeats decodes of @p stream; returns their wall seconds. */
double
decodePass(const std::vector<uint8_t> &stream, int threads, Result &r)
{
    support::ThreadPool::setGlobalThreads(threads);
    const double t0 = nowS();
    for (int i = 0; i < kDecodeRepeats; ++i) {
        memsim::SimContext ctx;
        r.check(decodeOnce(ctx, stream, false).displayed == kFrames,
                "pal_live decode displays every frame");
    }
    return nowS() - t0;
}

/** Digest of the displayed frames, and their mean luma PSNR against
 *  the scene they were encoded from. */
struct Decoded
{
    uint64_t digest = 0;
    double psnrY = 0;
    int frames = 0;
};

Decoded
decodeChecked(const core::Workload &w, const std::vector<uint8_t> &stream,
              int threads)
{
    support::ThreadPool::setGlobalThreads(threads);
    memsim::SimContext ctx;
    const video::SceneGenerator scene(w.width, w.height, 0, w.seed);
    video::Yuv420Image source(ctx, w.width, w.height);
    std::string frameDigests;
    Decoded d;
    codec::Mpeg4Decoder dec(ctx);
    dec.decode(
        stream,
        [&](const codec::DecodedEvent &e) {
            std::string pixels;
            for (int p = 0; p < 3; ++p) {
                const video::Plane &plane = e.frame->plane(p);
                for (int y = 0; y < plane.height(); ++y)
                    pixels.append(
                        reinterpret_cast<const char *>(plane.rowPtr(y)),
                        static_cast<size_t>(plane.width()));
            }
            const uint64_t h = support::fnv1a64(pixels);
            frameDigests.append(reinterpret_cast<const char *>(&h),
                                sizeof h);
            scene.renderFrame(e.timestamp, source);
            d.psnrY += video::psnrY(source, *e.frame);
            ++d.frames;
        },
        false);
    d.digest = support::fnv1a64(frameDigests);
    d.psnrY = ratio(d.psnrY, d.frames);
    return d;
}

} // namespace

void
runPalLive(const Options &o, Result &r)
{
    const core::Workload w = palWorkload(o.seed);
    r.config["size"] = w.sizeLabel();
    r.config["frames_per_pass"] = std::to_string(kFrames);
    r.config["decode_repeats"] = std::to_string(kDecodeRepeats);

    core::Workload warmup = w;
    warmup.frames = kWarmupFrames;
    std::vector<uint8_t> ref;
    std::vector<double> wallN, wall1, wallDec;
    repeatFor(o.seconds, [&] {
        // Every round opens with the set-up - start the pool at N
        // threads, encode the warm-up frames - so setup_s is a median
        // over the whole run, as the rates are.
        const double t0 = nowS();
        double unused = 0;
        encodePass(warmup, o.threads, &unused);
        r.setupS.push_back(nowS() - t0);

        double sN = 0, s1 = 0;
        r.hostKernelS.push_back(hostKernelS());
        const std::vector<uint8_t> streamN = encodePass(w, o.threads, &sN);
        const std::vector<uint8_t> stream1 = encodePass(w, 1, &s1);
        if (ref.empty())
            ref = streamN;
        r.check(streamN == ref, "pal_live N-thread stream repeats");
        r.check(stream1 == ref,
                "pal_live 1-thread stream equals the N-thread stream");
        wallN.push_back(sN);
        wall1.push_back(s1);
        r.hostKernelS.push_back(hostKernelS());
        wallDec.push_back(decodePass(ref, o.threads, r));
        r.samples["encode_fps"].push_back(kFrames / sN);
        r.samples["decode_fps"].push_back(kFrames * kDecodeRepeats /
                                          wallDec.back());
    });

    const uint64_t streamFnv = fnv(ref);
    r.config["stream_fnv"] = hex(streamFnv);
    if (o.seed == kDefaultSeed)
        r.check(streamFnv == kRecordedStreamFnv,
                "pal_live stream FNV equals the recorded " +
                    hex(kRecordedStreamFnv));
    const Decoded decN = decodeChecked(w, ref, o.threads);
    const Decoded dec1 = decodeChecked(w, ref, 1);
    r.check(decN.frames == kFrames && decN.digest == dec1.digest,
            "pal_live decoded frames are identical at N and 1 threads");
    r.check(decN.psnrY >= kMinPsnrDb,
            "pal_live decoded frames resemble the source scene");
    r.config["decoded_fnv"] = hex(decN.digest);
    r.config["psnr_y_db"] = std::to_string(decN.psnrY);
    if (!o.trace)
        return;

    r.layers["pool.encode_fps_1t"] = kFrames / median(wall1);
    r.layers["pool.encode_speedup"] = median(wall1) / median(wallN);

    double tracedN = 0, traced1 = 0;
    Capture::start();
    const std::vector<uint8_t> streamN = encodePass(w, o.threads, &tracedN);
    const Capture encN = Capture::stop();
    Capture::start();
    const std::vector<uint8_t> stream1 = encodePass(w, 1, &traced1);
    const Capture enc1 = Capture::stop();
    Capture::start();
    const double tracedDec = decodePass(ref, o.threads, r);
    const Capture dec = Capture::stop();
    r.check(streamN == ref && stream1 == ref,
            "pal_live streams are unchanged with tracing on");

    addCodecLayers(r, encN, kFrames, dec, kFrames * kDecodeRepeats);
    r.layers["trace_overhead"] =
        (tracedN + traced1 + tracedDec) /
            (median(wallN) + median(wall1) + median(wallDec)) -
        1;
    addSelfShares(r, {&encN, &enc1, &dec},
                  o.workDir + "/selftime-pal_live.json");
}

} // namespace m4ps::perfbench
