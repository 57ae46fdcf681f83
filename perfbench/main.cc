/**
 * @file
 * m4ps_perfbench: runs one workload of the end-to-end benchmark
 * (perfbench/README.md) and prints what it measured as one JSON line.
 * run.py builds this binary and reduces the line to the benchmark's
 * metrics.
 *
 *   m4ps_perfbench --workload pal_live|paper_grid|serve_fec --seed S
 *                  --seconds T --trace 0|1 --threads N
 *                  --arrival-rate R --work-dir DIR
 *
 * Exit status: 0 when every operation succeeded and every output check
 * passed, 1 when one did not (the line is still printed) or the run
 * could not finish, 2 on a usage error.
 */

#include <cstdio>
#include <exception>
#include <string>

#include "common.hh"
#include "support/args.hh"
#include "support/json.hh"

namespace
{

using namespace m4ps;
using support::JsonValue;

JsonValue
numbers(const std::vector<double> &values)
{
    JsonValue a = JsonValue::makeArray();
    for (double v : values)
        a.array.push_back(JsonValue::of(v));
    return a;
}

JsonValue
strings(const std::vector<std::string> &values)
{
    JsonValue a = JsonValue::makeArray();
    for (const std::string &v : values)
        a.array.push_back(JsonValue::of(v));
    return a;
}

JsonValue
document(const perfbench::Result &r)
{
    JsonValue config = JsonValue::makeObject();
    for (const auto &[key, value] : r.config)
        config.add(key, JsonValue::of(value));
    JsonValue samples = JsonValue::makeObject();
    for (const auto &[name, values] : r.samples)
        samples.add(name, numbers(values));
    JsonValue layers = JsonValue::makeObject();
    for (const auto &[name, value] : r.layers)
        layers.add(name, JsonValue::of(value));
    JsonValue latency = JsonValue::makeObject();
    for (const auto &[name, values] : r.latencyMs)
        latency.add(name, numbers(values));

    JsonValue doc = JsonValue::makeObject();
    doc.add("config", std::move(config));
    doc.add("attempted", JsonValue::of(r.attempted));
    doc.add("failed", JsonValue::of(r.failed));
    doc.add("mismatches", strings(r.mismatches));
    doc.add("errors", strings(r.errors));
    doc.add("setup_s", numbers(r.setupS));
    doc.add("host_kernel_s", numbers(r.hostKernelS));
    doc.add("peak_rss_mb", JsonValue::of(perfbench::peakRssMb()));
    doc.add("samples", std::move(samples));
    doc.add("layers", std::move(layers));
    doc.add("latency_ms", std::move(latency));
    doc.add("failed_sessions", JsonValue::of(r.failedSessions));
    return doc;
}

int
benchMain(int argc, char **argv)
{
    const ArgParser args(argc, argv,
                         {"workload", "seed", "seconds", "trace",
                          "threads", "arrival-rate", "work-dir"});
    perfbench::Options o;
    o.workload = args.get("workload");
    const std::string seed = args.get("seed", "1");
    if (seed.empty() || seed.size() > 19 ||
        seed.find_first_not_of("0123456789") != std::string::npos)
        throw ArgError("--seed must be a non-negative integer below 1e19");
    o.seed = std::stoull(seed);
    for (const char *name : {"seconds", "arrival-rate"})
        if (!args.has(name))
            throw ArgError(std::string("--") + name + " is required");
    o.seconds = args.getDouble("seconds", 0);
    o.trace = args.getIntInRange("trace", 0, 0, 1) == 1;
    o.threads = args.getIntInRange("threads", 1, 1, 256);
    o.arrivalPerS = args.getDouble("arrival-rate", 0);
    o.workDir = args.get("work-dir", ".");
    if (!(o.seconds > 0) || !(o.arrivalPerS > 0))
        throw ArgError("--seconds and --arrival-rate must be positive");

    perfbench::Result r;
    r.config["workload"] = o.workload;
    r.config["seed"] = seed;
    r.config["threads"] = std::to_string(o.threads);
    perfbench::initHostKernel(o.threads);
    if (o.trace)
        perfbench::initLayers(r);
    if (o.workload == "pal_live")
        perfbench::runPalLive(o, r);
    else if (o.workload == "paper_grid")
        perfbench::runPaperGrid(o, r);
    else if (o.workload == "serve_fec")
        perfbench::runServeFec(o, r);
    else
        throw ArgError(
            "--workload must be pal_live, paper_grid or serve_fec");
    std::printf("%s\n", support::writeJson(document(r), 0).c_str());
    return r.failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return benchMain(argc, argv);
    } catch (const m4ps::ArgError &e) {
        return m4ps::reportArgError("m4ps_perfbench", e);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "m4ps_perfbench: %s\n", e.what());
        return 1;
    }
}
