/**
 * @file
 * paper_grid: what regenerating the paper's Tables 6/7 costs.  A
 * memsim-traced encode and decode of 720x576 at 3 VO / 2 VOL on each
 * of core::paperMachines(), each on a fresh MachineConfig hierarchy,
 * at N threads.  memsim dominates, and shape coding, arithmetic coding
 * and spatial scalability run, which pal_live never touches.  The
 * decode input comes from one untraced encode made during set-up.
 */

#include <memory>
#include <string>

#include "common.hh"
#include "core/machine.hh"
#include "core/runner.hh"
#include "support/json.hh"
#include "support/serialize.hh"
#include "support/threadpool.hh"

namespace m4ps::perfbench
{

namespace
{

/** Frames per machine per round. */
constexpr int kFrames = 3;

/** Reruns of the same frames without memsim, for memsim's share. */
constexpr int kUntracedRepeats = 2;

core::Workload
gridWorkload(uint64_t seed)
{
    core::Workload w = core::paperWorkload(720, 576, 3, 2);
    w.frames = kFrames;
    w.seed = seed;
    return w;
}

/** A fresh hierarchy of @p m, or none - an untraced context - for null. */
std::unique_ptr<memsim::MemoryHierarchy>
hierarchyOf(const core::MachineConfig *m)
{
    return m ? m->makeHierarchy() : nullptr;
}

/** Encodes @p w on @p m and checks the stream; returns wall seconds. */
double
encodeOn(const core::Workload &w, const core::MachineConfig *m,
         const std::vector<uint8_t> &expected, Result &r,
         memsim::CounterSet *ctrs)
{
    const auto mem = hierarchyOf(m);
    memsim::SimContext ctx(mem.get());
    double wallS = 0;
    r.check(encodeLive(ctx, w, &wallS) == expected,
            "paper_grid encode equals the untraced set-up stream");
    if (mem)
        *ctrs = mem->counters();
    return wallS;
}

/** Decodes @p stream on @p m; returns wall seconds. */
double
decodeOn(const core::MachineConfig *m, const std::vector<uint8_t> &stream,
         memsim::CounterSet *ctrs)
{
    const auto mem = hierarchyOf(m);
    memsim::SimContext ctx(mem.get());
    const double t0 = nowS();
    decodeOnce(ctx, stream, false);
    const double wallS = nowS() - t0;
    if (mem)
        *ctrs = mem->counters();
    return wallS;
}

} // namespace

void
runPaperGrid(const Options &o, Result &r)
{
    const core::Workload w = gridWorkload(o.seed);
    const std::vector<core::MachineConfig> machines = core::paperMachines();
    const size_t nm = machines.size();
    const double machineFrames = static_cast<double>(nm) * kFrames;
    support::ThreadPool::setGlobalThreads(o.threads);
    r.config["grid"] = w.name;
    r.config["frames_per_machine"] = std::to_string(kFrames);
    r.config["machines"] = std::to_string(nm);

    // The set-up encode makes the decode input.  Every round times it
    // again and checks it repeats, so setup_s is a median over the
    // whole run, as the rates are.
    auto setUp = [&] {
        const double t0 = nowS();
        std::vector<uint8_t> stream =
            core::ExperimentRunner::encodeUntraced(w);
        r.setupS.push_back(nowS() - t0);
        return stream;
    };
    const std::vector<uint8_t> input = setUp();

    // A round is a memsim-traced encode, then decode, on every machine.
    std::vector<memsim::CounterSet> enc(nm), dec(nm);
    std::vector<double> roundS;
    repeatFor(o.seconds, [&] {
        r.check(setUp() == input, "paper_grid set-up encode repeats");
        double encS = 0, decS = 0;
        for (size_t k = 0; k < nm; ++k) {
            memsim::CounterSet e, d;
            r.hostKernelS.push_back(hostKernelS());
            encS += encodeOn(w, &machines[k], input, r, &e);
            decS += decodeOn(&machines[k], input, &d);
            if (roundS.empty()) {
                enc[k] = e;
                dec[k] = d;
            } else {
                r.check(e == enc[k] && d == dec[k],
                        "paper_grid counters repeat on " +
                            machines[k].label());
            }
        }
        roundS.push_back(encS + decS);
        r.samples["encode_fps"].push_back(machineFrames / encS);
        r.samples["decode_fps"].push_back(machineFrames / decS);
    });

    std::string counterText;
    uint64_t accesses = 0;
    for (size_t k = 0; k < nm; ++k) {
        const std::string label = machines[k].label();
        r.check(core::ExperimentRunner::runEncode(w, machines[k])
                        .whole.ctrs == enc[k],
                "paper_grid encode counters equal runEncode on " + label);
        r.check(core::ExperimentRunner::runDecode(w, machines[k], input)
                        .whole.ctrs == dec[k],
                "paper_grid decode counters equal runDecode on " + label);
        counterText += support::writeJson(enc[k].toJson(), 0);
        counterText += support::writeJson(dec[k].toJson(), 0);
        accesses += enc[k].accesses() + dec[k].accesses();
    }
    const uint64_t digest = support::fnv1a64(counterText);
    r.config["counter_digest"] = hex(digest);
    if (!o.trace)
        return;

    std::vector<double> untracedS;
    for (int i = 0; i < kUntracedRepeats; ++i) {
        memsim::CounterSet none;
        untracedS.push_back(encodeOn(w, nullptr, input, r, &none) +
                            decodeOn(nullptr, input, &none));
    }
    const double tracedRound = median(roundS);
    const double untracedRound =
        median(untracedS) * static_cast<double>(nm);
    r.layers["memsim.share"] = 1 - untracedRound / tracedRound;
    r.layers["memsim.ns_per_access"] =
        ratio((tracedRound - untracedRound) * 1e9,
              static_cast<double>(accesses));
    r.layers["memsim.accesses_per_frame"] =
        static_cast<double>(accesses) / machineFrames;
    // 48 bits, so the digest survives a JSON double exactly.
    r.layers["memsim.counter_digest"] = static_cast<double>(digest >> 16);

    // One more round with obs on, encodes and decodes captured apart.
    double obsRoundS = 0;
    std::vector<memsim::CounterSet> tracedEnc(nm), tracedDec(nm);
    Capture::start();
    for (size_t k = 0; k < nm; ++k)
        obsRoundS += encodeOn(w, &machines[k], input, r, &tracedEnc[k]);
    const Capture encCap = Capture::stop();
    Capture::start();
    for (size_t k = 0; k < nm; ++k)
        obsRoundS += decodeOn(&machines[k], input, &tracedDec[k]);
    const Capture decCap = Capture::stop();
    for (size_t k = 0; k < nm; ++k)
        r.check(tracedEnc[k] == enc[k] && tracedDec[k] == dec[k],
                "paper_grid counters are unchanged with tracing on (" +
                    machines[k].label() + ")");

    addCodecLayers(r, encCap, machineFrames, decCap, machineFrames);
    r.layers["memsim.merge_ms_per_frame"] =
        (encCap.spanMs("memsim.merge") + decCap.spanMs("memsim.merge")) /
        machineFrames;
    r.layers["trace_overhead"] = obsRoundS / tracedRound - 1;
    addSelfShares(r, {&encCap, &decCap},
                  o.workDir + "/selftime-paper_grid.json");
}

} // namespace m4ps::perfbench
