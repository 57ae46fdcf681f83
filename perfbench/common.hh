/**
 * @file
 * Shared plumbing for the end-to-end benchmark (perfbench/README.md):
 * run options, the raw result a workload fills in, the encode and
 * decode calls the workloads time, and the fold of recorded obs spans
 * and counters into per-layer numbers.
 */

#ifndef M4PS_PERFBENCH_COMMON_HH
#define M4PS_PERFBENCH_COMMON_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "codec/decoder.hh"
#include "core/workload.hh"
#include "memsim/address_space.hh"
#include "support/obs/obs.hh"

namespace m4ps::perfbench
{

/** Command-line options, as run.py passes them. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 0;
    bool trace = false;
    int threads = 1;        //!< N: codec threads and client connections.
    double arrivalPerS = 0; //!< serve_fec open-loop arrival rate.
    std::string workDir;    //!< Scratch files inside the checkout.
};

/** What one run measured; main() prints it as one JSON line. */
struct Result
{
    std::map<std::string, std::string> config;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> mismatches; //!< Outputs that were wrong.
    std::vector<std::string> errors;     //!< Operations that failed.

    std::vector<double> setupS; //!< Seconds of each set-up.
    /** Seconds of each hostKernelS() call, spread over the run. */
    std::vector<double> hostKernelS;
    /** Samples of each end-to-end rate; run.py reports the median. */
    std::map<std::string, std::vector<double>> samples;
    /** Per-layer metrics (--trace 1). */
    std::map<std::string, double> layers;
    /** serve_fec: latencies of completed sessions by kind, and lags. */
    std::map<std::string, std::vector<double>> latencyMs;
    uint64_t failedSessions = 0; //!< serve_fec: failed, shed or wrong.

    /** Count one checked output; a false @p ok is a mismatch. */
    void check(bool ok, const std::string &what);

    /** Count one operation that failed before it had an output. */
    void fail(const std::string &what);
};

double nowS();
double median(std::vector<double> v);

/** @p num / @p den, or 0 when @p den is 0. */
double ratio(double num, double den);

uint64_t fnv(const std::vector<uint8_t> &bytes);
std::string hex(uint64_t h);

/**
 * Calls @p round repeatedly, stopping once another round as long as
 * the last would end more than @p seconds after the first began.
 * Always runs at least one round.
 */
template <class Round>
void
repeatFor(double seconds, Round round)
{
    const double deadline = nowS() + seconds;
    for (;;) {
        const double t0 = nowS();
        round();
        const double t1 = nowS();
        if (t1 + (t1 - t0) > deadline)
            return;
    }
}

/**
 * The live encode path: per frame SceneFeeder::inputs then
 * Mpeg4Encoder::encodeFrame, then finish(), each public call inside an
 * obs span ("video.scene", "codec.encode").  @p wallS gets the time
 * from the first frame to the finished stream.
 */
std::vector<uint8_t> encodeLive(memsim::SimContext &ctx,
                                const core::Workload &w, double *wallS);

/** Mpeg4Decoder::decode into no sink, inside a "codec.decode" span. */
codec::DecodeStats decodeOnce(memsim::SimContext &ctx,
                              const std::vector<uint8_t> &stream,
                              bool tolerant);

/** Spans and counters recorded between start() and stop(). */
struct Capture
{
    std::vector<obs::TraceEvent> events;
    obs::MetricsSnapshot metrics;

    /** Drop earlier records; turn obs tracing and metrics on. */
    static void start();

    /** Turn them off and take what was recorded since start(). */
    static Capture stop();

    /** Total duration of the spans named @p name, in ms. */
    double spanMs(std::string_view name) const;

    double counter(const std::string &name) const;

    /** ms of @p outer spans not covered by @p inner spans on their
     *  thread. */
    double uncoveredMs(std::string_view outer,
                       std::string_view inner) const;
};

/** Zero every per-layer metric the binary reports, so each workload
 *  reports them all; a layer a workload does not exercise reads 0. */
void initLayers(Result &r);

/**
 * The video, codec and pool rows from an encode and a decode capture:
 * per-frame time in the wrapped public calls, stage ns per macroblock
 * (enc/dec.stage.* spans over the enc/dec.mbs counters), bits and
 * macroblocks per frame, and the pool's scheduling counters.
 */
void addCodecLayers(Result &r, const Capture &enc, double encFrames,
                    const Capture &dec, double decFrames);

/**
 * Self time per layer over @p caps - each span's duration minus its
 * direct children's on the same thread, summed by the layer its name
 * belongs to - reported as "<layer>.self_share" of the total.  The
 * per-span and per-layer table is written to @p path.
 */
void addSelfShares(Result &r, const std::vector<const Capture *> &caps,
                   const std::string &path);

/**
 * Makes the data hostKernelS() reads for @p threads threads, about
 * 1 MiB plus 16 MiB per thread, resident for the rest of the process.
 * Call it once, before the workload, so that it is in every peak of
 * the resident set and peakRssMb() can leave it out exactly.
 */
void initHostKernel(int threads);

/**
 * Runs a fixed kernel - a +-4 pel SAD search over two 720x576 planes,
 * a dependent table walk over them, then a dependent walk over the
 * thread's own 16 MiB table - on the initHostKernel() threads at once
 * and returns the wall seconds until all are done.  The kernel is the
 * benchmark's own code, so its time tracks only the shared host's
 * speed, which drifts by tens of percent over minutes; run.py scales
 * the end-to-end times by it (README.md, "Host speed").
 */
double hostKernelS();

/** Peak resident set of the process so far, in MiB, less the data of
 *  initHostKernel(). */
double peakRssMb();

void runPalLive(const Options &o, Result &r);
void runPaperGrid(const Options &o, Result &r);
void runServeFec(const Options &o, Result &r);

} // namespace m4ps::perfbench

#endif // M4PS_PERFBENCH_COMMON_HH
