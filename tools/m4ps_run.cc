/**
 * @file
 * m4ps_run: command-line driver for one characterization experiment.
 *
 * Runs a workload (size, VOs, layers, frames, bitrate, tool flags)
 * on one of the modelled machines, in encode or decode direction,
 * and prints the nine paper metrics plus the fallacy verdicts.
 *
 * Examples:
 *   m4ps_run --mode encode --width 720 --height 576 --machine o2
 *   m4ps_run --mode decode --vos 3 --layers 2 --machine onyx2 \
 *            --frames 12 --bitrate 384000
 *   m4ps_run --mode both --width 352 --height 288 --l2kb 256
 */

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "codec/faultinject.hh"
#include "codec/kernels/kernels.hh"
#include "core/fallacies.hh"
#include "fec/frame.hh"
#include "fec/interleave.hh"
#include "core/perfreport.hh"
#include "core/runner.hh"
#include "support/args.hh"
#include "support/logging.hh"
#include "support/obs/obs.hh"
#include "support/perfctr/perfctr.hh"
#include "support/threadpool.hh"

namespace
{

using namespace m4ps;

const std::set<std::string> kFlags{
    "mode",    "width",  "height", "frames",  "vos",
    "layers",  "bitrate", "machine", "l2kb",  "search-range",
    "b-frames", "intra-period", "no-half-pel", "no-4mv",
    "mpeg-quant", "seed", "threads", "resync-interval",
    "data-partition", "ber", "bursts", "burst-bytes", "truncate",
    "fault-seed", "snr", "fec", "fec-rate", "interleave-depth",
    "tolerant", "trace-out", "metrics-out", "perf", "report-out",
    "kernels", "help",
};

/**
 * Resolve --kernels / M4PS_KERNELS.  "list" prints every compiled-in
 * backend with its host support status and exits; anything else is a
 * backend name handed to kernels::select() ("auto" picks the widest
 * the host supports, unavailable backends degrade to scalar with a
 * warning, unknown names are a usage error).
 */
int
applyKernelsFlag(const std::string &choice)
{
    namespace kn = codec::kernels;
    if (choice == "list") {
        const kn::Isa act = kn::activeIsa();
        for (kn::Isa isa : kn::compiledIsas()) {
            std::printf("kernel backend: %s (%s%s)\n", kn::isaName(isa),
                        kn::hostSupports(isa) ? "supported"
                                              : "unsupported",
                        isa == act ? ", active" : "");
        }
        std::printf("active: %s\n", kn::isaName(act));
        return 0;
    }
    try {
        kn::select(choice);
    } catch (const std::invalid_argument &e) {
        throw ArgError(std::string(e.what()) +
                       " (expected auto, scalar, sse41, avx2, neon, "
                       "or list)");
    }
    std::printf("kernels: %s backend\n",
                kn::isaName(kn::activeIsa()));
    return -1;
}

void
usage()
{
    std::printf(
        "m4ps_run - run one MPEG-4 memory-characterization "
        "experiment\n\n"
        "  --mode encode|decode|both   direction (default both)\n"
        "  --width N --height N        frame size (default 720x576)\n"
        "  --frames N                  sequence length (default 30)\n"
        "  --vos N                     visual objects (default 1)\n"
        "  --layers 1|2                layers per VO (default 1)\n"
        "  --bitrate BPS               target bit/s (default 38400)\n"
        "  --machine o2|onyx|onyx2     platform model (default o2)\n"
        "  --l2kb N                    custom L2 size instead\n"
        "  --search-range N            full-pel ME range (default 8)\n"
        "  --b-frames N                B-VOPs between anchors\n"
        "  --intra-period N            I-VOP distance (default 12)\n"
        "  --no-half-pel / --no-4mv / --mpeg-quant   tool toggles\n"
        "  --seed N                    scene seed (default 7)\n"
        "  --threads N                 macroblock-row worker threads\n"
        "                              (default $M4PS_THREADS or 1;\n"
        "                              results are bit-identical for\n"
        "                              any value)\n"
        "  --resync-interval N         MB rows per video packet\n"
        "                              (default 0 = no resync markers)\n"
        "  --data-partition            split motion/texture partitions\n"
        "                              (needs --resync-interval)\n"
        "  --ber P                     corrupt the stream at bit-error\n"
        "                              rate P in [0, 1) before decoding\n"
        "                              (implies --tolerant; headers\n"
        "                              protected)\n"
        "  --bursts N                  N contiguous burst errors\n"
        "  --burst-bytes N             bytes per burst (default 16)\n"
        "  --truncate F                keep fraction F in (0, 1] of\n"
        "                              the stream (cut tail)\n"
        "  --fault-seed N              channel noise seed (default 1)\n"
        "  --snr DB                    AWGN channel at Es/N0 DB dB; the\n"
        "                              soft-symbol channel for --fec\n"
        "                              soft, else mapped to the\n"
        "                              equivalent hard BER\n"
        "                              Q(sqrt(2 Es/N0))\n"
        "  --fec off|hard|soft         convolutional FEC over the\n"
        "                              stream (K=7 {171,133} + Viterbi;\n"
        "                              docs/FEC.md): protect before\n"
        "                              the channel, recover after,\n"
        "                              conceal what remains\n"
        "  --fec-rate 1/2|2/3|3/4      punctured code rate (needs\n"
        "                              --fec; default 1/2)\n"
        "  --interleave-depth N        block-interleaver depth (needs\n"
        "                              --fec; default sized to the\n"
        "                              burst model when --bursts is\n"
        "                              set, else 1)\n"
        "  --tolerant                  conceal decode errors instead\n"
        "                              of aborting\n"
        "  --trace-out FILE            write a Chrome trace_event JSON\n"
        "                              of the run (open in Perfetto or\n"
        "                              about:tracing); bitstreams are\n"
        "                              byte-identical with it on or off\n"
        "  --metrics-out FILE          write the flat metrics dump\n"
        "                              (docs/OBSERVABILITY.md)\n"
        "  --perf                      measure host PMU counters over\n"
        "                              each run (perf_event_open;\n"
        "                              falls back to a software clock\n"
        "                              when the PMU is unavailable -\n"
        "                              docs/PROFILING.md)\n"
        "  --report-out FILE           write the m4ps-report-v1 JSON\n"
        "                              document (counters, derived\n"
        "                              metrics, verdicts, hw deltas);\n"
        "                              feed it to m4ps_report\n"
        "  --kernels NAME              SIMD kernel backend: auto\n"
        "                              (default), scalar, sse41, avx2,\n"
        "                              neon, or list to show what this\n"
        "                              host offers; also $M4PS_KERNELS\n"
        "                              (docs/KERNELS.md); bitstreams\n"
        "                              are bit-identical across\n"
        "                              backends\n");
}

void
reportHw(const core::RunResult &r)
{
    if (!r.hasHw)
        return;
    std::printf("  host PMU (%s backend%s):\n",
                perfctr::backendName(r.perfBackend),
                r.hw.multiplexed() ? ", multiplexed+scaled" : "");
    for (int e = 0; e < perfctr::kEventCount; ++e) {
        if (r.hw.valid[e])
            std::printf("    %-15s %.0f\n", perfctr::eventName(e),
                        r.hw.count[e]);
    }
}

void
report(const char *what, const core::RunResult &r,
       const core::MachineConfig &m)
{
    std::printf("\n%s on %s (%s): modelled time %.3f s, stream %zu "
                "bytes, resident %.1f MB\n",
                what, m.name.c_str(), m.label().c_str(),
                r.modelledSeconds, static_cast<size_t>(r.streamBytes),
                r.residentBytes / 1048576.0);
    for (const auto &[name, value] : r.whole.rows())
        std::printf("  %-20s %s\n", name.c_str(), value.c_str());
    if (r.displayedFrames > 0)
        std::printf("  %-20s %.2f dB over %d frames\n", "mean PSNR-Y",
                    r.meanPsnrY, r.displayedFrames);
    std::printf("  verdicts: %s\n",
                core::judge(r.whole, m).str().c_str());
    reportHw(r);
}

int
runMain(int argc, char **argv)
{
    ArgParser args(argc, argv, kFlags);
    if (args.getBool("help")) {
        usage();
        return 0;
    }

    if (args.has("kernels")) {
        const int rc = applyKernelsFlag(args.get("kernels", "auto"));
        if (rc >= 0)
            return rc;
    }

    core::Workload wl;
    wl.width = args.getInt("width", 720);
    wl.height = args.getInt("height", 576);
    wl.frames = args.getInt("frames", 30);
    wl.numVos = args.getInt("vos", 1);
    wl.layers = args.getInt("layers", 1);
    wl.targetBps = args.getDouble("bitrate", 38400.0);
    wl.searchRange = args.getInt("search-range", 8);
    wl.gop.bFrames = args.getInt("b-frames", 2);
    wl.gop.intraPeriod = args.getInt("intra-period", 12);
    wl.halfPel = !args.getBool("no-half-pel");
    wl.fourMv = !args.getBool("no-4mv");
    wl.mpegQuant = args.getBool("mpeg-quant");
    wl.seed = static_cast<uint64_t>(args.getInt("seed", 7));
    wl.resyncInterval = args.getInt("resync-interval", 0);
    wl.dataPartitioning = args.getBool("data-partition");
    wl.name = "cli";
    if (const std::string why = wl.whyInvalid(); !why.empty())
        throw ArgError(why);

    // Channel and FEC flags.  A value outside its domain is a usage
    // error (exit 2 via ArgError), never a fatal abort - same
    // contract as m4ps_batch's --storm-chance.
    const double ber = args.getDouble("ber", 0.0);
    if (ber < 0.0 || ber >= 1.0)
        throw ArgError("--ber must be in [0, 1), got " +
                       args.get("ber", ""));
    const int bursts = args.getInt("bursts", 0);
    if (bursts < 0)
        throw ArgError("--bursts must be >= 0, got " +
                       args.get("bursts", ""));
    const int burst_bytes = args.getInt("burst-bytes", 16);
    if (burst_bytes < 1)
        throw ArgError("--burst-bytes must be >= 1, got " +
                       args.get("burst-bytes", ""));
    const double truncate = args.getDouble("truncate", 1.0);
    if (truncate <= 0.0 || truncate > 1.0)
        throw ArgError("--truncate must be in (0, 1], got " +
                       args.get("truncate", ""));
    const int fault_seed_raw = args.getInt("fault-seed", 1);
    if (fault_seed_raw < 0)
        throw ArgError("--fault-seed must be >= 0, got " +
                       args.get("fault-seed", ""));
    const uint64_t fault_seed = static_cast<uint64_t>(fault_seed_raw);

    const std::string fec_mode = args.get("fec", "off");
    if (fec_mode != "off" && fec_mode != "hard" && fec_mode != "soft")
        throw ArgError("--fec must be off, hard, or soft, got '" +
                       fec_mode + "'");
    const bool fec_on = fec_mode != "off";
    if (!fec_on && args.has("fec-rate"))
        throw ArgError("--fec-rate requires --fec hard|soft");
    if (!fec_on && args.has("interleave-depth"))
        throw ArgError("--interleave-depth requires --fec hard|soft");
    fec::Rate fec_rate = fec::Rate::R1_2;
    if (!fec::parseRate(args.get("fec-rate", "1/2"), fec_rate))
        throw ArgError("--fec-rate must be 1/2, 2/3, or 3/4, got '" +
                       args.get("fec-rate", "") + "'");
    // Default the interleaver to the burst model it must disperse.
    const int interleave_depth =
        args.has("interleave-depth")
            ? args.getIntInRange("interleave-depth", 1, 1, 0xffff)
            : (bursts > 0 ? fec::interleaveDepthForBurst(burst_bytes)
                          : 1);
    const bool has_snr = args.has("snr");
    const double snr_db = args.getDouble("snr", 0.0);
    if (has_snr && args.has("ber"))
        throw ArgError(
            "--snr and --ber both set the channel noise; pick one");
    if (fec_mode == "soft" && (args.has("ber") || bursts > 0))
        throw ArgError("--fec soft uses the AWGN channel; set --snr "
                       "instead of --ber/--bursts");

    const bool channel_active =
        ber > 0 || bursts > 0 || truncate < 1.0 || has_snr;
    codec::DecodeOptions decode_opts;
    decode_opts.tolerant = args.getBool("tolerant") || channel_active;

    if (args.has("threads")) {
        support::ThreadPool::setGlobalThreads(
            args.getIntInRange("threads", 1, 1, 256));
    }

    const std::string trace_out = args.get("trace-out", "");
    const std::string metrics_out = args.get("metrics-out", "");
    const std::string report_out = args.get("report-out", "");
    if (!trace_out.empty())
        obs::setTracing(true);
    if (!metrics_out.empty())
        obs::setMetrics(true);
    if (args.getBool("perf")) {
        perfctr::setEnabled(true);
        std::printf("perf: %s backend\n",
                    perfctr::activeBackendName());
    }

    core::MachineConfig machine;
    std::string preset;
    if (args.has("l2kb")) {
        const int l2kb = args.getInt("l2kb", 1024);
        if (l2kb < 1)
            throw ArgError("--l2kb must be >= 1, got " +
                           std::to_string(l2kb));
        machine = core::customL2Machine(static_cast<uint64_t>(l2kb) * 1024);
        if (const std::string why = machine.l2.whyInvalid(); !why.empty())
            throw ArgError("--l2kb " + std::to_string(l2kb) + ": " + why);
        preset = "custom";
    } else {
        preset = args.get("machine", "o2");
        try {
            machine = core::machineByName(preset);
        } catch (const std::exception &e) {
            throw ArgError(e.what());
        }
    }

    const std::string mode = args.get("mode", "both");
    if (mode != "encode" && mode != "decode" && mode != "both")
        throw ArgError("--mode must be encode, decode, or both, got '" +
                       mode + "'");

    std::printf("workload: %dx%d, %d frames, %d VO(s) x %d layer(s), "
                "%.0f bit/s target, %d thread(s)\n",
                wl.width, wl.height, wl.frames, wl.numVos, wl.layers,
                wl.targetBps,
                support::ThreadPool::global().threads());

    // Runs collected for --report-out (m4ps-report-v1 document).
    std::vector<core::ReportRun> runs;
    auto collect = [&](const std::string &label,
                       const core::RunResult &r) {
        core::ReportRun run;
        run.label = label;
        run.preset = preset;
        run.machine = machine;
        run.ctrs = r.whole.ctrs;
        run.hasHw = r.hasHw;
        run.hw = r.hw;
        run.hwBackend = r.perfBackend;
        runs.push_back(std::move(run));
    };

    std::vector<uint8_t> stream;
    if (mode == "encode" || mode == "both") {
        const core::RunResult enc =
            core::ExperimentRunner::runEncode(wl, machine, &stream);
        report("encode", enc, machine);
        collect("encode", enc);
    } else {
        stream = core::ExperimentRunner::encodeUntraced(wl);
    }
    if (mode == "decode" || mode == "both") {
        // Model the lossy channel (docs/FEC.md "Channels").  With --fec
        // the stream is framed first, the channel damages only the
        // coded wire symbols, and recover() runs before the decoder
        // sees a byte - protect, then conceal.  --snr reaches a
        // hard-bit wire as its equivalent BER.
        fec::ChannelSpec channel;
        channel.faults.ber = has_snr ? fec::hardBerAtEsN0Db(snr_db) : ber;
        channel.faults.bursts = bursts;
        channel.faults.burstBytes = burst_bytes;
        channel.faults.truncateFraction = truncate;
        channel.faults.seed = fault_seed;
        if (has_snr)
            channel.esN0Db = snr_db;
        char faults[128];
        std::snprintf(faults, sizeof(faults),
                      "BER %.2g, %d burst(s) x %d bytes, keep %.2f, "
                      "seed %llu",
                      channel.faults.ber, bursts, burst_bytes, truncate,
                      static_cast<unsigned long long>(fault_seed));
        core::ReportFec run_fec;
        if (fec_on) {
            fec::FecConfig cfg;
            cfg.decision = fec_mode == "soft" ? fec::Decision::Soft
                                              : fec::Decision::Hard;
            cfg.rate = fec_rate;
            cfg.interleaveDepth = interleave_depth;
            const size_t clear_bytes = stream.size();
            std::vector<uint8_t> framed = fec::protect(stream, cfg);
            std::printf(
                "fec: %s decision, rate %s, interleave depth %d, "
                "%zu -> %zu bytes (overhead %.1f%%)\n",
                fec_mode.c_str(), fec::rateName(fec_rate),
                interleave_depth, clear_bytes, framed.size(),
                clear_bytes != 0
                    ? 100.0 * (static_cast<double>(framed.size()) /
                                   static_cast<double>(clear_bytes) -
                               1.0)
                    : 0.0);
            const bool soft = cfg.decision == fec::Decision::Soft;
            if (soft && has_snr)
                std::printf("channel: AWGN Es/N0 %.1f dB (hard-equivalent "
                            "BER %.2g), seed %llu\n",
                            snr_db, channel.faults.ber,
                            static_cast<unsigned long long>(fault_seed));
            else if (soft && truncate < 1.0)
                std::printf("channel: keep %.2f (truncation only)\n",
                            truncate);
            else if (!soft && (channel.faults.ber > 0 || bursts > 0 ||
                               truncate < 1.0))
                std::printf("channel: %s (wire symbols only)\n", faults);
            fec::RecoverResult rec = fec::recover(
                fec::transmit(std::move(framed), channel, &cfg));
            stream = std::move(rec.stream);
            run_fec.present = true;
            run_fec.blocks = rec.stats.blocks;
            run_fec.blocksCorrected = rec.stats.blocksCorrected;
            run_fec.blocksUncorrectable =
                rec.stats.blocksUncorrectable;
            run_fec.framingErrors = rec.stats.framingErrors;
            run_fec.correctedBits = rec.stats.correctedBits;
            std::printf("fec recover: %zu block(s), %zu corrected "
                        "(%llu wire bits), %zu uncorrectable, %zu "
                        "framing error(s)\n",
                        rec.stats.blocks, rec.stats.blocksCorrected,
                        static_cast<unsigned long long>(
                            rec.stats.correctedBits),
                        rec.stats.blocksUncorrectable,
                        rec.stats.framingErrors);
        } else {
            // Unprotected: the transport shields only the session
            // headers; every VOP is exposed to loss.
            if (channel_active)
                std::printf("channel: %s, %zu header bytes protected\n",
                            faults, codec::protectableHeaderBytes(stream));
            stream = fec::transmit(std::move(stream), channel, nullptr);
        }
        try {
            const core::RunResult dec = core::ExperimentRunner::runDecode(
                wl, machine, stream, decode_opts);
            report("decode", dec, machine);
            collect("decode", dec);
            runs.back().fec = run_fec;
            if (decode_opts.tolerant) {
                std::printf(
                    "  resilience: %d/%d VOPs corrupt, %d header "
                    "error(s), %d packet(s) (%d corrupt), %d MB(s) "
                    "concealed, %d row(s) lost\n",
                    dec.dec.corruptedVops, dec.dec.vops,
                    dec.dec.headerErrors, dec.dec.mb.packets,
                    dec.dec.mb.corruptPackets, dec.dec.mb.concealedMbs,
                    dec.dec.mb.corruptedRows);
            }
        } catch (const codec::DecodeError &e) {
            M4PS_FATAL("decode failed (", e.what(),
                       "); rerun with --tolerant to conceal");
        }
    }

    if (!trace_out.empty()) {
        std::ofstream os(trace_out, std::ios::binary);
        if (!os)
            M4PS_FATAL("cannot open --trace-out file '", trace_out,
                       "'");
        obs::writeChromeTrace(os);
        std::printf("trace: %s\n", trace_out.c_str());
    }
    if (!metrics_out.empty()) {
        std::ofstream os(metrics_out, std::ios::binary);
        if (!os)
            M4PS_FATAL("cannot open --metrics-out file '",
                       metrics_out, "'");
        obs::writeMetricsText(os);
        std::printf("metrics: %s\n", metrics_out.c_str());
    }
    if (!report_out.empty()) {
        const support::JsonValue doc =
            core::buildCounterReport(runs, 0.5);
        if (!support::writeJsonFile(report_out, doc))
            M4PS_FATAL("cannot write --report-out file '",
                       report_out, "'");
        std::printf("report: %s (%zu run(s))\n", report_out.c_str(),
                    runs.size());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runMain(argc, argv);
    } catch (const ArgError &e) {
        return reportArgError("m4ps_run", e);
    }
}
