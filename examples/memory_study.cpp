/**
 * @file
 * The paper's methodology as a library: run one workload over the
 * three SGI-class machine models, print the nine paper metrics, and
 * evaluate the five conventional-wisdom fallacies.
 *
 * This is a miniature of the full harness in bench/ - see
 * bench_paper, which renders every table and figure of the paper
 * from one memoized experiment grid.
 */

#include <cstdio>

#include "core/fallacies.hh"
#include "core/report.hh"
#include "core/runner.hh"

int
main()
{
    using namespace m4ps;

    core::Workload wl = core::paperWorkload(720, 576, 1, 1);
    wl.frames = 10; // keep the example quick; the paper uses 30

    std::vector<std::string> labels;
    std::vector<core::MemoryReport> columns;
    std::vector<core::FallacyVerdicts> verdicts;

    const std::vector<uint8_t> stream =
        core::ExperimentRunner::encodeUntraced(wl);

    for (const core::MachineConfig &m : core::paperMachines()) {
        std::printf("running encode + decode on %s (%s, L2 %s)...\n",
                    m.name.c_str(), m.cpu.c_str(), m.l2.str().c_str());
        const core::RunResult enc =
            core::ExperimentRunner::runEncode(wl, m);
        const core::RunResult dec =
            core::ExperimentRunner::runDecode(wl, m, stream);
        labels.push_back("enc " + m.label());
        columns.push_back(enc.whole);
        verdicts.push_back(core::judge(enc.whole, m));
        labels.push_back("dec " + m.label());
        columns.push_back(dec.whole);
        verdicts.push_back(core::judge(dec.whole, m));
    }

    std::printf("\n");
    core::printMetricTable("MPEG-4 memory behaviour, " +
                               wl.sizeLabel() + ", " +
                               std::to_string(wl.frames) + " frames",
                           labels, columns);

    std::printf("\nfallacy verdicts:\n");
    bool all_ok = true;
    for (size_t i = 0; i < labels.size(); ++i) {
        std::printf("  %-14s %s\n", labels[i].c_str(),
                    verdicts[i].str().c_str());
        all_ok = all_ok && verdicts[i].all();
    }
    std::printf("\n=> %s\n",
                all_ok
                    ? "MPEG-4 video is computation bound on these "
                      "machines; memory-system optimizations "
                      "would have little effect (the paper's thesis)."
                    : "unexpected: some fallacy was NOT refuted on "
                      "this run.");
    return all_ok ? 0 : 1;
}
