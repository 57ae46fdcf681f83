/**
 * @file
 * m4ps_report: turn counter dumps into the paper's derived metrics,
 * the five conventional-wisdom verdicts, and (when hardware counts
 * are attached) a memsim-vs-host divergence section.
 *
 * Input documents are "m4ps-report-v1" JSON, as written by
 * `m4ps_run --report-out` or built by hand from a counters object
 * (the derived fields are ignored on input and recomputed here, so a
 * report is also a counter dump).  Multiple files concatenate their
 * runs; with two or more runs the scaling verdict - "memory
 * performance does not degrade from the first run to the last" -
 * joins the four per-run refutations to complete the paper's five.
 *
 * Examples:
 *   m4ps_run --mode both --report-out run.json && m4ps_report run.json
 *   m4ps_report --json-out report.json small.json large.json
 *   m4ps_report --probe        # which perfctr backend would be used?
 */

#include <cstdio>
#include <iostream>

#include "core/perfreport.hh"
#include "support/args.hh"
#include "support/json.hh"
#include "support/perfctr/perfctr.hh"

namespace
{

using namespace m4ps;

const std::set<std::string> kFlags{
    "machine", "tolerance", "json-out", "probe", "help",
};

void
usage()
{
    std::printf(
        "m4ps_report - derive paper metrics and verdicts from "
        "counter dumps\n\n"
        "  m4ps_report [options] report.json [more.json ...]\n\n"
        "  --machine o2|onyx|onyx2  re-derive every run on this\n"
        "                           preset instead of the one\n"
        "                           recorded per run\n"
        "  --tolerance T            relative hw-vs-memsim divergence\n"
        "                           tolerance (default 0.5; the two\n"
        "                           sides measure different machines)\n"
        "  --json-out FILE          also write the full\n"
        "                           m4ps-report-v1 document\n"
        "  --probe                  report which perfctr backend this\n"
        "                           host selects and verify it\n"
        "                           functions; exits 0 when usable\n"
        "                           (the software fallback always is)\n");
}

/**
 * Backend probe for CI: open the counters, measure a trivial region,
 * and verify the cycles slot advances.  Never requires a PMU - the
 * point is that the *software fallback* must hold the contract on
 * PMU-less runners.
 */
int
probe()
{
    perfctr::setEnabled(true);
    const char *backend = perfctr::activeBackendName();

    perfctr::PerfRegion region("perf", "probe");
    // Enough work that even a coarse clock backend ticks.
    volatile double sink = 0;
    for (int i = 0; i < 2'000'000; ++i)
        sink = sink + static_cast<double>(i) * 1e-9;
    const perfctr::Counts delta = region.stop();

    const bool cyclesOk = delta.has(perfctr::Event::Cycles) &&
                          delta.get(perfctr::Event::Cycles) > 0;
    std::printf("perfctr backend: %s\n", backend);
    for (int e = 0; e < perfctr::kEventCount; ++e) {
        if (delta.valid[e])
            std::printf("  %-15s %.0f\n", perfctr::eventName(e),
                        delta.count[e]);
    }
    std::printf("functional: %s\n", cyclesOk ? "yes" : "NO");
    return cyclesOk ? 0 : 1;
}

int
reportMain(int argc, char **argv)
{
    ArgParser args(argc, argv, kFlags);
    if (args.getBool("help")) {
        usage();
        return 0;
    }
    if (args.getBool("probe"))
        return probe();

    if (args.positional().empty())
        throw ArgError("no input documents (or --probe) given");

    const double tolerance = args.getDouble("tolerance", 0.5);
    std::vector<core::ReportRun> runs;
    for (const std::string &path : args.positional()) {
        try {
            const support::JsonValue doc =
                support::parseJsonFile(path);
            std::vector<core::ReportRun> got =
                core::parseReportRuns(doc);
            for (core::ReportRun &r : got)
                runs.push_back(std::move(r));
        } catch (const support::JsonError &e) {
            std::fprintf(stderr, "m4ps_report: %s: %s\n",
                         path.c_str(), e.what());
            return 1;
        }
    }

    if (args.has("machine")) {
        const std::string preset = args.get("machine");
        try {
            const core::MachineConfig m = core::machineByName(preset);
            for (core::ReportRun &r : runs) {
                r.preset = preset;
                r.machine = m;
            }
        } catch (const std::exception &e) {
            throw ArgError(e.what());
        }
    }

    core::printCounterReport(std::cout, runs, tolerance);

    const std::string json_out = args.get("json-out", "");
    if (!json_out.empty()) {
        const support::JsonValue doc =
            core::buildCounterReport(runs, tolerance);
        if (!support::writeJsonFile(json_out, doc)) {
            std::fprintf(stderr, "m4ps_report: cannot write '%s'\n",
                         json_out.c_str());
            return 1;
        }
        std::printf("\nwrote %s (%zu run(s))\n", json_out.c_str(),
                    runs.size());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return reportMain(argc, argv);
    } catch (const ArgError &e) {
        return reportArgError("m4ps_report", e);
    }
}
