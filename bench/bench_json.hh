/**
 * @file
 * Unified machine-readable output for the bench harness.
 *
 * Every bench binary appends its results to a shared BENCH_*.json
 * document in the "m4ps-bench-v1" schema that tools/bench_compare and
 * the CI bench job consume:
 *
 *   {"schema": "m4ps-bench-v1",
 *    "benches": [{"bench":   "table2/720x576 R12K/1MB",
 *                 "config":  {...workload and machine...},
 *                 "metrics": {...numbers only...},
 *                 "backend": "memsim"}, ...]}
 *
 * Writing is read-modify-write keyed on the bench name, so the views
 * of bench_paper and repeated runs of one bench only replace their
 * own entries.  The file location resolves, in order: an explicit
 * `--json-out <path>` argument (for the binaries that take one), the
 * M4PS_BENCH_JSON_DIR environment directory, the repository root the
 * binary was configured from (so benches run from anywhere land their
 * artifacts in one predictable place), and finally the CWD.
 *
 * Metric naming matters: bench_compare treats names containing
 * "_ns"/"_us"/"_ms"/"seconds"/"wall"/"overhead"/"cycle" as
 * host-dependent
 * timings (warn-only) and everything else as deterministic simulator
 * output (hard-fails the comparison); see src/core/benchdiff.hh.
 */

#ifndef M4PS_BENCH_BENCH_JSON_HH
#define M4PS_BENCH_BENCH_JSON_HH

#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "support/json.hh"

namespace m4ps::bench
{

/** One bench result row of the m4ps-bench-v1 schema. */
struct BenchEntry
{
    std::string bench;
    support::JsonValue config = support::JsonValue::makeObject();
    support::JsonValue metrics = support::JsonValue::makeObject();
    std::string backend = "memsim"; //!< Counter source.
};

/**
 * Resolve where @p defaultName should be written, honouring a
 * `--json-out <path>` / `--json-out=<path>` argument if present.
 */
std::string benchJsonPath(int argc, char **argv,
                          const std::string &defaultName);

/** Where @p defaultName lands without a `--json-out` argument. */
std::string benchJsonPath(const std::string &defaultName);

/**
 * Merge @p entries into the document at @p path: existing entries
 * with the same bench name are replaced in place, others are kept,
 * new names append.  Creates the file (and schema) if absent.
 */
void writeBenchEntries(const std::string &path,
                       const std::vector<BenchEntry> &entries);

/** Grid cells as entries named "<prefix>/<cell label>". */
std::vector<BenchEntry>
gridBenchEntries(const std::string &prefix,
                 const std::vector<const GridCell *> &cells);

} // namespace m4ps::bench

#endif // M4PS_BENCH_BENCH_JSON_HH
