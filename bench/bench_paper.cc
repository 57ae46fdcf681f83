/**
 * @file
 * The paper's tables and figures, rendered from one memoized grid.
 *
 *   bench_paper [table1 ... table8 | fig2 | fig3 | fig4 | prefetch |
 *                blocking | cache_sweep | clock | codec_tools |
 *                rd_curve]...
 *
 * Each name renders one view, in the order given; with no names every
 * view renders, in paper order, the memsim sweeps last.  All views
 * read one PaperGrid (bench_util.hh), so a traced (workload, machine,
 * direction) cell runs once however many views show it.  Table
 * entries merge into BENCH_paper_tables.json, and figure and sweep
 * entries into BENCH_figs.json, in the directory bench_json.hh
 * resolves.  An unknown name or any flag is a usage error (exit 2).
 */

#include <algorithm>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench/bench_json.hh"
#include "bench/bench_util.hh"
#include "core/fallacies.hh"
#include "core/machine.hh"
#include "core/report.hh"
#include "support/args.hh"
#include "support/logging.hh"
#include "support/table.hh"

namespace
{

using namespace m4ps;
using bench::BenchEntry;
using bench::Direction;
using bench::GridCell;
using bench::PaperGrid;
using support::JsonValue;

/** The two image sizes of Tables 2-8 and Figures 3-4. */
const std::vector<std::pair<int, int>> kPaperSizes{{720, 576},
                                                   {1024, 768}};

/** BENCH entries the views produce, one list per document. */
struct Entries
{
    std::vector<BenchEntry> tables; //!< BENCH_paper_tables.json
    std::vector<BenchEntry> figs;   //!< BENCH_figs.json
};

/** Entry @p bench with the cell's workload and machine as config. */
BenchEntry
cellEntry(const std::string &bench, const GridCell &c)
{
    BenchEntry e;
    e.bench = bench;
    e.config.add("workload", JsonValue::of(c.run.workload));
    e.config.add("machine", JsonValue::of(c.run.machine));
    return e;
}

// --- Table 1 -----------------------------------------------------------

/** Common platform highlights of the three modelled SGI machines. */
void
renderTable1(PaperGrid &, Entries &)
{
    TextTable t("Table 1. Common Platform Highlights (modelled)");
    t.header({"machine", "CPU", "L1 D-cache", "L2 cache", "clock",
              "DRAM latency", "prefetch-hit ctr"});
    for (const core::MachineConfig &m : core::paperMachines()) {
        t.row({m.name, m.cpu, m.l1.str(), m.l2.str(),
               TextTable::num(m.cost.clockMhz, 0) + " MHz",
               TextTable::num(m.cost.dramLatency, 0) + " cyc",
               m.prefetchHitCounter ? "yes" : "no"});
    }
    t.print();

    const core::MachineConfig ref = core::paperMachines().front();
    std::cout << "\nShared memory system (Table 1):\n"
              << "  system bus: 64 bits, 133 MHz, split transaction\n"
              << "  main memory: 4-way interleaved SDRAM\n"
              << "  sustained bandwidth: "
              << TextTable::num(ref.busSustainedMBs, 0)
              << " MB/s (peak " << TextTable::num(ref.busPeakMBs, 0)
              << " MB/s)\n"
              << "  cost model: " << ref.cost.str() << "\n";
}

// --- Tables 2-7 --------------------------------------------------------

/** One of Tables 2-7: the nine metrics, both sizes x three machines. */
struct MetricTable
{
    const char *name; //!< Selector and BENCH entry prefix.
    const char *title;
    int numVos;
    int layers;
    Direction direction;
};

const MetricTable kMetricTables[] = {
    // Paper layout: nine memory metrics for 720x576 and 1024x768
    // frames across R12K/1MB, R10K/2MB, and R12K/8MB machines.
    // Expected shapes: L1C miss rate ~0.1%, line reuse near a
    // thousand, DRAM stall a few percent at most, and single-digit
    // MB/s bus traffic.
    {"table2", "Table 2. Video Encoding: One Visual Object, One Layer",
     1, 1, Direction::Encode},
    // Expected shapes: higher L1 miss rate than encoding (~0.3-0.4%)
    // but line reuse still in the hundreds; DRAM stall largest on the
    // 1 MB L2 (paper: ~11%) and small on the 8 MB L2; bandwidth use
    // remains a few percent of the 680 MB/s the bus sustains.
    {"table3", "Table 3. Video Decoding: One Visual Object, One Layer",
     1, 1, Direction::Decode},
    // Rectangular background VO plus two arbitrary-shape VOs.
    // Expected shape: cache performance does not degrade relative to
    // Table 2 despite the ~3x memory requirements - the paper's
    // "improving under pressure" paradox.
    {"table4",
     "Table 4. Video Encoding: Three Visual Objects, One Layer Each",
     3, 1, Direction::Encode},
    {"table5",
     "Table 5. Video Decoding: Three Visual Objects, One Layer Each",
     3, 1, Direction::Decode},
    // Spatially scalable: half-resolution base + enhancement.
    {"table6",
     "Table 6. Video Encoding: Three Visual Objects, Two Layers Each",
     3, 2, Direction::Encode},
    {"table7",
     "Table 7. Video Decoding: Three Visual Objects, Two Layers Each",
     3, 2, Direction::Decode},
};

/** Print the fallacy verdicts for each cell, on its own machine. */
void
printVerdicts(const std::vector<const GridCell *> &cells)
{
    std::cout << "\nFallacy checks (every row should refute the "
                 "conventional wisdom):\n";
    for (const GridCell *c : cells) {
        const core::FallacyVerdicts v =
            core::judge(c->run.whole, c->machine);
        std::cout << "  " << c->label() << ": " << v.str() << "\n";
    }
    std::cout << std::flush;
}

void
renderMetricTable(const MetricTable &spec, PaperGrid &grid,
                  Entries &out)
{
    std::vector<const GridCell *> cells;
    std::vector<std::string> labels;
    std::vector<core::MemoryReport> columns;
    for (const auto &[w, h] : kPaperSizes) {
        for (const core::MachineConfig &m : core::paperMachines()) {
            const GridCell &c = grid.cell(
                bench::benchWorkload(w, h, spec.numVos, spec.layers), m,
                spec.direction);
            cells.push_back(&c);
            labels.push_back(c.label());
            columns.push_back(c.run.whole);
        }
    }
    std::cout << "\n";
    core::printMetricTable(spec.title, labels, columns);
    printVerdicts(cells);
    for (BenchEntry &e : bench::gridBenchEntries(spec.name, cells))
        out.tables.push_back(std::move(e));
}

// --- Table 8 -----------------------------------------------------------

/** "region (whole)" cell, the paper's bracketed layout. */
std::string
bracketed(const std::string &metric, const core::MemoryReport &region,
          const core::MemoryReport &whole)
{
    const auto find = [&](const core::MemoryReport &r) {
        for (const auto &[name, value] : r.rows()) {
            if (name == metric)
                return value;
        }
        return std::string("?");
    };
    return find(region) + " (" + find(whole) + ")";
}

/**
 * Burstiness of VopEncode / VopDecode.  The paper wraps VopCode() and
 * DecodeVopCombMotionShapeTexture() in performance-counter operations
 * on the (R12K, 8MB L2) machine and compares the function-level
 * counters with the whole program (shown in brackets).  Expected
 * shape: the instrumented functions' memory behaviour is consistent
 * with the overall trends - "at the VOP level the comprehensive effect
 * of multiple streams is a working set that fits well into cache".
 */
void
renderTable8(PaperGrid &grid, Entries &out)
{
    const core::MachineConfig m = core::onyx2R12k8MB();

    struct Column
    {
        std::string label; //!< "VopEncode 720x576"
        const core::MemoryReport *region;
        const GridCell *cell;
    };
    std::vector<Column> columns;
    for (const auto &[w, h] : kPaperSizes) {
        for (const auto &[region, dir] :
             {std::pair{"VopEncode", Direction::Encode},
              std::pair{"VopDecode", Direction::Decode}}) {
            const GridCell &c =
                grid.cell(bench::benchWorkload(w, h, 1, 1), m, dir);
            M4PS_ASSERT(c.run.regions.count(region), "missing ", region,
                        " region");
            columns.push_back({std::string(region) + " " +
                                   c.workload.sizeLabel(),
                               &c.run.regions.at(region), &c});
        }
    }

    TextTable t("Table 8. VopEncode / VopDecode vs whole program "
                "(R12K, 8MB L2C); whole-program value in brackets");
    std::vector<std::string> header{"metrics"};
    for (const Column &c : columns)
        header.push_back(c.label);
    t.header(std::move(header));

    const std::vector<std::string> metrics{
        "L1C miss rate", "L2C miss rate", "L1-L2 b/w (MB/s)",
        "L2-DRAM b/w (MB/s)", "DRAM time"};
    for (const std::string &metric : metrics) {
        std::vector<std::string> row{metric};
        for (const Column &c : columns)
            row.push_back(bracketed(metric, *c.region, c.cell->run.whole));
        t.row(std::move(row));
    }
    std::cout << "\n";
    t.print();

    // The paper's conclusion: the hot functions' behaviour matches
    // the whole program's - no hidden bursts.  The verdict lands in
    // the entry as 0/1, so a flip hard-fails bench_compare.
    std::cout << "\nConsistency check (region vs whole):\n";
    for (const Column &c : columns) {
        const core::MemoryReport &region = *c.region;
        const core::MemoryReport &whole = c.cell->run.whole;
        const bool consistent =
            region.l1MissRate < 3.0 * whole.l1MissRate + 0.002 &&
            region.l2MissRate < whole.l2MissRate + 0.15;
        std::cout << "  " << c.label << ": "
                  << (consistent ? "consistent with whole program"
                                 : "BURSTY (inconsistent)")
                  << "\n";

        BenchEntry e = cellEntry("table8/" + c.label, *c.cell);
        e.config.add("frames",
                     JsonValue::of(int64_t(c.cell->workload.frames)));
        e.metrics.add("grad_loads", JsonValue::of(region.ctrs.gradLoads));
        e.metrics.add("grad_stores",
                      JsonValue::of(region.ctrs.gradStores));
        e.metrics.add("l1_misses", JsonValue::of(region.ctrs.l1Misses));
        e.metrics.add("l2_misses", JsonValue::of(region.ctrs.l2Misses));
        e.metrics.add("l1_miss_rate", JsonValue::of(region.l1MissRate));
        e.metrics.add("l2_miss_rate", JsonValue::of(region.l2MissRate));
        e.metrics.add("l1_l2_bw_mbs", JsonValue::of(region.l1l2BwMBs));
        e.metrics.add("l2_dram_bw_mbs",
                      JsonValue::of(region.l2DramBwMBs));
        e.metrics.add("dram_time", JsonValue::of(region.dramTime));
        e.metrics.add("consistent_with_whole",
                      JsonValue::of(int64_t(consistent)));
        out.tables.push_back(std::move(e));
    }
}

// --- Figures 2-4 -------------------------------------------------------

/** A figure entry: the counters and miss rates the figure plots. */
BenchEntry
figEntry(const std::string &bench, const GridCell &c)
{
    const core::MemoryReport &r = c.run.whole;
    BenchEntry e = cellEntry(bench, c);
    e.metrics.add("grad_loads", JsonValue::of(r.ctrs.gradLoads));
    e.metrics.add("l1_misses", JsonValue::of(r.ctrs.l1Misses));
    e.metrics.add("l2_misses", JsonValue::of(r.ctrs.l2Misses));
    e.metrics.add("l1_miss_rate", JsonValue::of(r.l1MissRate));
    e.metrics.add("l2_miss_rate", JsonValue::of(r.l2MissRate));
    return e;
}

/**
 * Figure 2: memory statistics for growing image size (decoding, 1 MB
 * L2C).  The paper decodes at growing frame sizes on the R12K/1MB
 * machine and observes that L2 miss rate, L2-DRAM bandwidth, and
 * DRAM stall time stay flat or *decrease* - "counterintuitively,
 * cache performance of MPEG-4 video proves to be independent of frame
 * size".  The sweep extends to the 2048x1024 frames the paper
 * mentions in the text.
 */
void
renderFig2(PaperGrid &grid, Entries &out)
{
    const core::MachineConfig m = core::o2R12k1MB();
    const std::vector<std::pair<int, int>> sizes{
        {352, 288}, {720, 576}, {1024, 768}, {2048, 1024}};

    TextTable t("Figure 2. Memory statistics for growing image size "
                "(decoding, 1MB L2C)");
    t.header({"image size", "L1C miss rate", "L2C miss rate",
              "L2-DRAM b/w (MB/s)", "DRAM time"});

    std::vector<const GridCell *> cells;
    for (const auto &[w, h] : sizes) {
        const GridCell &c = grid.cell(bench::benchWorkload(w, h, 1, 1), m,
                                      Direction::Decode);
        const core::MemoryReport &r = c.run.whole;
        cells.push_back(&c);

        BenchEntry e = figEntry("fig2/" + c.workload.sizeLabel(), c);
        e.metrics.add("l2_dram_bw_mbs", JsonValue::of(r.l2DramBwMBs));
        e.metrics.add("dram_time", JsonValue::of(r.dramTime));
        out.figs.push_back(std::move(e));

        t.row({c.workload.sizeLabel(), TextTable::pct(r.l1MissRate),
               TextTable::pct(r.l2MissRate),
               TextTable::num(r.l2DramBwMBs, 1),
               TextTable::pct(r.dramTime)});
    }
    std::cout << "\n";
    t.print();

    // The paper's claim covers 720x576 upward ("performance remains
    // almost the same when the image size is almost doubled ...
    // even with extremely large frames").  Below that, this leaner
    // decoder's working set partially fits the 1 MB L2, so the
    // smallest size looks *better* - see EXPERIMENTS.md.  Each step's
    // verdict lands in an entry as 0/1, so a flip hard-fails
    // bench_compare.
    const double slack = 0.35;
    std::cout << "\nScaling check (no degradation from 720x576 up, "
                 "35% slack):\n";
    for (size_t i = 2; i < cells.size(); ++i) {
        const GridCell &small = *cells[i - 1];
        const GridCell &large = *cells[i];
        const bool ok = core::sizeScalingHolds(small.run.whole,
                                               large.run.whole, slack);
        const std::string step = small.workload.sizeLabel() + " -> " +
                                 large.workload.sizeLabel();
        std::cout << "  " << step << ": "
                  << (ok ? "holds" : "DEGRADES") << "\n";

        BenchEntry e;
        e.bench = "fig2/scaling " + step;
        e.config.add("machine", JsonValue::of(m.label()));
        e.config.add("slack", JsonValue::of(slack));
        e.metrics.add("size_scaling_holds", JsonValue::of(int64_t(ok)));
        out.figs.push_back(std::move(e));
    }
}

/** Figures 3 and 4: one miss rate over the VO/layer configurations. */
struct MissFigure
{
    const char *name; //!< Selector and BENCH entry prefix.
    const char *title;
    double core::MemoryReport::*missRate;
};

// Figure 3.  Expected shape: bars stay essentially level (or improve
// slightly) from 1 VO/1 layer to 3 VOs/1 layer to 3 VOs/2 layers.
const MissFigure kFig3{"fig3",
                       "Figure 3. L1C Miss Rates for Varying Numbers of "
                       "Objects and Layers (R10K, 2MB L2C)",
                       &core::MemoryReport::l1MissRate};

// Figure 4.  Expected shape: as for Figure 3 but at L2 scale - no
// degradation as objects/layers grow, and if anything slight
// improvement ("improving under pressure").
const MissFigure kFig4{"fig4",
                       "Figure 4. L2C Miss Rates for Varying Numbers of "
                       "Objects and Layers (R10K, 2MB L2C)",
                       &core::MemoryReport::l2MissRate};

/** Encoding and decoding, both sizes, R10K with 2 MB L2. */
void
renderMissFigure(const MissFigure &fig, PaperGrid &grid, Entries &out)
{
    const core::MachineConfig m = core::onyxR10k2MB();
    const std::vector<std::tuple<std::string, int, int>> configs{
        {"1 VO, 1 layer", 1, 1},
        {"3 VOs, 1 layer each", 3, 1},
        {"3 VOs, 2 layers each", 3, 2},
    };

    TextTable t(fig.title);
    t.header({"configuration", "enc 720x576", "dec 720x576",
              "enc 1024x768", "dec 1024x768"});
    for (const auto &[label, vos, layers] : configs) {
        std::vector<std::string> row{label};
        for (const auto &[w, h] : kPaperSizes) {
            for (const auto &[dir, verb] :
                 {std::pair{Direction::Encode, "enc"},
                  std::pair{Direction::Decode, "dec"}}) {
                const GridCell &c = grid.cell(
                    bench::benchWorkload(w, h, vos, layers), m, dir);
                const std::string bench = std::string(fig.name) + "/" +
                                          verb + " " + c.workload.name;
                out.figs.push_back(figEntry(bench, c));
                row.push_back(TextTable::pct(c.run.whole.*fig.missRate));
            }
        }
        t.row(std::move(row));
    }
    std::cout << "\n";
    t.print();
}

// --- prefetch study ----------------------------------------------------

/**
 * Software prefetching effectiveness.  §3.2: "the number of executed
 * prefetches is around 1/7000 the number of graduated loads in
 * encoding and 1/1000 in decoding ... over half of the prefetches hit
 * the primary cache, and thus constitute a waste of system resources.
 * Prefetching is therefore unlikely to improve MPEG-4 performance on
 * the systems we study."  This view reports the modelled prefetch
 * ratios and the upper bound on what perfect prefetching could save.
 */
void
renderPrefetch(PaperGrid &grid, Entries &)
{
    const core::MachineConfig m = core::onyx2R12k8MB();

    TextTable t("Ablation: software prefetch effectiveness "
                "(R12K, 8MB L2C)");
    t.header({"run", "prefetch / loads", "L1-hit (wasted)",
              "useful fills / L1 misses", "max DRAM-time savings"});
    for (const auto &[w, h] : kPaperSizes) {
        for (const auto &[dir, verb] :
             {std::pair{Direction::Encode, "encode "},
              std::pair{Direction::Decode, "decode "}}) {
            const GridCell &cell =
                grid.cell(bench::benchWorkload(w, h, 1, 1), m, dir);
            const auto &c = cell.run.whole.ctrs;
            const double per_load =
                c.prefetches
                    ? static_cast<double>(c.gradLoads) / c.prefetches
                    : 0.0;
            const double wasted =
                c.prefetches
                    ? static_cast<double>(c.prefetchL1Hits) /
                          c.prefetches
                    : 0.0;
            const double useful =
                c.l1Misses ? static_cast<double>(c.prefetchFills) /
                                 c.l1Misses
                           : 0.0;
            t.row({verb + cell.workload.sizeLabel(),
                   "1/" + TextTable::num(per_load, 0),
                   TextTable::pct(wasted), TextTable::pct(useful),
                   TextTable::pct(cell.run.whole.dramTime)});
        }
    }
    std::cout << "\n";
    t.print();
    std::cout
        << "\nReading: prefetches are rare relative to loads and a "
           "large share are nops;\neven perfect prefetching could "
           "only recover the (already small) DRAM-time column.\n";
}

// --- memsim sweeps -----------------------------------------------------

/** A report field a sweep entry records, with its metric name. */
using ReportField = std::pair<const char *, double core::MemoryReport::*>;

/**
 * The BENCH entry of one sweep row: both cells' counters and @p fields
 * of both reports, each named with an enc_ or dec_ prefix.  Views add
 * their other printed columns.
 */
BenchEntry
sweepEntry(const std::string &bench, const GridCell &enc,
           const GridCell &dec, std::initializer_list<ReportField> fields)
{
    BenchEntry e = cellEntry(bench, enc);
    e.config.add("frames", JsonValue::of(int64_t(enc.workload.frames)));
    for (const auto &[prefix, cell] :
         {std::pair{"enc_", &enc}, std::pair{"dec_", &dec}}) {
        const core::MemoryReport &r = cell->run.whole;
        const std::string p = prefix;
        e.metrics.add(p + "grad_loads", JsonValue::of(r.ctrs.gradLoads));
        e.metrics.add(p + "grad_stores",
                      JsonValue::of(r.ctrs.gradStores));
        e.metrics.add(p + "l1_misses", JsonValue::of(r.ctrs.l1Misses));
        e.metrics.add(p + "l2_misses", JsonValue::of(r.ctrs.l2Misses));
        for (const auto &[name, field] : fields)
            e.metrics.add(p + name, JsonValue::of(r.*field));
    }
    return e;
}

/**
 * L1 size sweep.  §3.2 credits "the protocol-dictated blocking
 * structure" with MPEG-4's locality: the miss rate should stay near
 * the 32 KB value until the L1 is smaller than one motion-search
 * window's working set (a few KB).
 */
void
renderBlocking(PaperGrid &grid, Entries &out)
{
    const core::Workload wl = bench::benchWorkload(720, 576, 1, 1);

    TextTable t("Ablation: L1 size sweep (blocking locality), "
                "720x576, 1 VO, R12K-class core, 1MB L2");
    t.header({"L1 size", "enc L1C miss rate", "enc line reuse",
              "dec L1C miss rate", "dec line reuse"});
    for (const uint64_t kb : {1, 2, 4, 8, 16, 32, 64}) {
        core::MachineConfig m = core::o2R12k1MB();
        m.l1.sizeBytes = kb * 1024;
        const GridCell &enc = grid.cell(wl, m, Direction::Encode);
        const GridCell &dec = grid.cell(wl, m, Direction::Decode);
        const std::string size = std::to_string(kb) + "KB";
        t.row({size, TextTable::pct(enc.run.whole.l1MissRate),
               TextTable::num(enc.run.whole.l1LineReuse, 0),
               TextTable::pct(dec.run.whole.l1MissRate),
               TextTable::num(dec.run.whole.l1LineReuse, 0)});
        out.figs.push_back(
            sweepEntry("blocking/L1 " + size, enc, dec,
                       {{"l1_miss_rate", &core::MemoryReport::l1MissRate},
                        {"l1_line_reuse",
                         &core::MemoryReport::l1LineReuse}}));
    }
    std::cout << "\n";
    t.print();
    std::cout << "\nReading: the miss rate barely moves until L1 "
                 "drops below the search-window working set -\n"
                 "the blocking structure, not cache capacity, "
                 "creates the locality.\n";
}

/**
 * L2 capacity sweep beyond the paper's 1/2/8 MB points: how quickly L2
 * behaviour saturates, against the claim the paper refutes that large
 * images need 12x larger L2 caches.
 */
void
renderCacheSweep(PaperGrid &grid, Entries &out)
{
    const core::Workload wl = bench::benchWorkload(1024, 768, 1, 1);

    TextTable t("Ablation: L2 capacity sweep (1024x768, 1 VO)");
    t.header({"L2 size", "enc L2C miss rate", "enc DRAM time",
              "dec L2C miss rate", "dec DRAM time",
              "dec L2-DRAM b/w (MB/s)"});
    for (const uint64_t kb :
         {128, 256, 512, 1024, 2048, 4096, 8192, 16384}) {
        const core::MachineConfig m = core::customL2Machine(kb * 1024);
        const GridCell &enc = grid.cell(wl, m, Direction::Encode);
        const GridCell &dec = grid.cell(wl, m, Direction::Decode);
        const std::string size = m.label().substr(5);
        t.row({size, TextTable::pct(enc.run.whole.l2MissRate),
               TextTable::pct(enc.run.whole.dramTime),
               TextTable::pct(dec.run.whole.l2MissRate),
               TextTable::pct(dec.run.whole.dramTime),
               TextTable::num(dec.run.whole.l2DramBwMBs, 1)});
        out.figs.push_back(sweepEntry(
            "cache_sweep/L2 " + size, enc, dec,
            {{"l2_miss_rate", &core::MemoryReport::l2MissRate},
             {"dram_time", &core::MemoryReport::dramTime},
             {"l2_dram_bw_mbs", &core::MemoryReport::l2DramBwMBs}}));
    }
    std::cout << "\n";
    t.print();
}

/**
 * The paper's future-work question (§4): at what processor-to-memory
 * speed ratio does MPEG-4 become memory limited?  Scales the clock at
 * fixed DRAM nanoseconds until DRAM stall passes half the time.
 */
void
renderClock(PaperGrid &grid, Entries &out)
{
    const core::Workload wl = bench::benchWorkload(720, 576, 1, 1);
    const core::MachineConfig base = core::o2R12k1MB();
    const double dram_ns =
        base.cost.dramLatency / base.cost.clockMhz * 1000.0;

    TextTable f("Future work: when does MPEG-4 become memory "
                "limited?  (clock scaling, fixed DRAM ns, 1MB L2)");
    f.header({"clock", "CPU:DRAM ratio", "enc DRAM time",
              "dec DRAM time", "dec L2-DRAM b/w (MB/s)",
              "memory limited?"});
    for (const int mult : {1, 2, 4, 8, 16, 32}) {
        core::MachineConfig m = base;
        m.cost.clockMhz = base.cost.clockMhz * mult;
        // Same DRAM nanoseconds = proportionally more stall cycles.
        m.cost.dramLatency = dram_ns * m.cost.clockMhz / 1000.0;
        const GridCell &enc = grid.cell(wl, m, Direction::Encode);
        const GridCell &dec = grid.cell(wl, m, Direction::Decode);
        const bool limited = dec.run.whole.dramTime > 0.5;
        f.row({TextTable::num(m.cost.clockMhz, 0) + " MHz",
               TextTable::num(m.cost.dramLatency, 0) + " cyc",
               TextTable::pct(enc.run.whole.dramTime),
               TextTable::pct(dec.run.whole.dramTime),
               TextTable::num(dec.run.whole.l2DramBwMBs, 1),
               limited ? "YES" : "no"});

        BenchEntry e = sweepEntry(
            "clock/x" + std::to_string(mult), enc, dec,
            {{"dram_time", &core::MemoryReport::dramTime},
             {"l2_dram_bw_mbs", &core::MemoryReport::l2DramBwMBs}});
        e.metrics.add("clock_mhz", JsonValue::of(m.cost.clockMhz));
        e.metrics.add("dram_latency", JsonValue::of(m.cost.dramLatency));
        e.metrics.add("memory_limited", JsonValue::of(int64_t(limited)));
        out.figs.push_back(std::move(e));
    }
    std::cout << "\n";
    f.print();
    std::cout << "\nReading: at 2003-era clock ratios the workload "
                 "is compute bound; only at many-fold higher\n"
                 "processor-to-memory ratios does DRAM stall time "
                 "begin to dominate.\n";
}

/**
 * Coding-tool contributions on the R12K/8MB machine: half-pel MC,
 * INTER4V and MPEG matrices move bits and PSNR while the memory
 * picture stays compute bound.
 */
void
renderCodecTools(PaperGrid &grid, Entries &out)
{
    struct ToolConfig
    {
        const char *label;
        bool halfPel;
        bool fourMv;
        bool mpegQuant;
    };
    const ToolConfig configs[] = {
        {"full-pel, 1MV, H.263 quant", false, false, false},
        {"+ half-pel", true, false, false},
        {"+ INTER4V (4MV)", true, true, false},
        {"+ MPEG matrices", true, true, true},
    };
    const core::MachineConfig m = core::onyx2R12k8MB();

    TextTable t("Ablation: coding tools (720x576, 1 VO, R12K/8MB)");
    t.header({"tool set", "stream bytes", "mean PSNR-Y (dB)",
              "4MV MBs", "L1C miss rate", "DRAM time"});
    for (const ToolConfig &tc : configs) {
        core::Workload wl = bench::benchWorkload(720, 576, 1, 1);
        wl.targetBps = 5e6; // quality-limited, not rate-limited
        wl.halfPel = tc.halfPel;
        wl.fourMv = tc.fourMv;
        wl.mpegQuant = tc.mpegQuant;
        const GridCell &enc = grid.cell(wl, m, Direction::Encode);
        const GridCell &dec = grid.cell(wl, m, Direction::Decode);
        t.row({tc.label, std::to_string(enc.run.streamBytes),
               TextTable::num(dec.run.meanPsnrY, 2),
               std::to_string(enc.run.enc.mb.fourMvMbs),
               TextTable::pct(enc.run.whole.l1MissRate),
               TextTable::pct(enc.run.whole.dramTime)});

        BenchEntry e = sweepEntry(
            std::string("codec_tools/") + tc.label, enc, dec,
            {{"l1_miss_rate", &core::MemoryReport::l1MissRate},
             {"dram_time", &core::MemoryReport::dramTime}});
        e.metrics.add("stream_bytes", JsonValue::of(enc.run.streamBytes));
        e.metrics.add("mean_psnr_y", JsonValue::of(dec.run.meanPsnrY));
        e.metrics.add("four_mv_mbs",
                      JsonValue::of(int64_t(enc.run.enc.mb.fourMvMbs)));
        out.figs.push_back(std::move(e));
    }
    std::cout << "\n";
    t.print();
    std::cout << "\nReading: tools trade bits for quality, but every "
                 "configuration stays compute bound.\n";
}

/**
 * Rate-distortion due diligence: a monotone curve shows the memory
 * characterization rests on a functioning encoder, and memory
 * behaviour barely varies across the operating range.
 */
void
renderRdCurve(PaperGrid &grid, Entries &out)
{
    const core::MachineConfig m = core::onyx2R12k8MB();

    TextTable t("Rate-distortion sweep (352x288, 1 VO)");
    t.header({"target kbit/s", "actual kbit/s", "mean PSNR-Y (dB)",
              "enc L1C miss rate", "dec DRAM time"});
    for (const double kbps : {64.0, 192.0, 512.0, 1536.0, 4096.0}) {
        core::Workload wl = bench::benchWorkload(352, 288, 1, 1);
        wl.targetBps = kbps * 1000.0;
        const GridCell &enc = grid.cell(wl, m, Direction::Encode);
        const GridCell &dec = grid.cell(wl, m, Direction::Decode);
        const double actual = 8.0 * enc.run.streamBytes / wl.frames *
                              wl.frameRate / 1000.0;
        t.row({TextTable::num(kbps, 0), TextTable::num(actual, 0),
               TextTable::num(dec.run.meanPsnrY, 2),
               TextTable::pct(enc.run.whole.l1MissRate),
               TextTable::pct(dec.run.whole.dramTime)});

        BenchEntry e = sweepEntry(
            "rd_curve/" + TextTable::num(kbps, 0) + " kbit/s", enc, dec,
            {{"l1_miss_rate", &core::MemoryReport::l1MissRate},
             {"dram_time", &core::MemoryReport::dramTime}});
        e.metrics.add("target_kbps", JsonValue::of(kbps));
        e.metrics.add("actual_kbps", JsonValue::of(actual));
        e.metrics.add("mean_psnr_y", JsonValue::of(dec.run.meanPsnrY));
        out.figs.push_back(std::move(e));
    }
    std::cout << "\n";
    t.print();
}

// --- selection ---------------------------------------------------------

using View = std::pair<std::string,
                       std::function<void(PaperGrid &, Entries &)>>;

/** Every view: paper order, then the memsim sweeps. */
std::vector<View>
paperViews()
{
    std::vector<View> views{{"table1", renderTable1}};
    for (const MetricTable &spec : kMetricTables) {
        views.emplace_back(spec.name, [&spec](PaperGrid &g, Entries &e) {
            renderMetricTable(spec, g, e);
        });
    }
    views.emplace_back("table8", renderTable8);
    views.emplace_back("fig2", renderFig2);
    for (const MissFigure *fig : {&kFig3, &kFig4}) {
        views.emplace_back(fig->name, [fig](PaperGrid &g, Entries &e) {
            renderMissFigure(*fig, g, e);
        });
    }
    views.emplace_back("prefetch", renderPrefetch);
    views.emplace_back("blocking", renderBlocking);
    views.emplace_back("cache_sweep", renderCacheSweep);
    views.emplace_back("clock", renderClock);
    views.emplace_back("codec_tools", renderCodecTools);
    views.emplace_back("rd_curve", renderRdCurve);
    return views;
}

/** The views @p names select, in order; all of them when empty. */
std::vector<View>
selectViews(const std::vector<std::string> &names)
{
    const std::vector<View> all = paperViews();
    if (names.empty())
        return all;
    std::vector<View> chosen;
    for (const std::string &name : names) {
        const auto it =
            std::find_if(all.begin(), all.end(),
                         [&](const View &v) { return v.first == name; });
        if (it == all.end()) {
            std::string known;
            for (const View &v : all)
                known += " " + v.first;
            throw ArgError("unknown view '" + name + "' (choose from" +
                           known + ")");
        }
        chosen.push_back(*it);
    }
    return chosen;
}

void
writeEntries(const std::string &file,
             const std::vector<BenchEntry> &entries)
{
    if (entries.empty())
        return;
    const std::string path = bench::benchJsonPath(file);
    bench::writeBenchEntries(path, entries);
    std::cout << "wrote " << path << " (" << entries.size()
              << " entries)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<View> views;
    try {
        views = selectViews(ArgParser(argc, argv, {}).positional());
    } catch (const ArgError &e) {
        std::cerr << "bench_paper: " << e.what() << "\n";
        return ArgError::kExitCode;
    }

    PaperGrid grid;
    Entries entries;
    for (const View &v : views)
        v.second(grid, entries);
    writeEntries("BENCH_paper_tables.json", entries.tables);
    writeEntries("BENCH_figs.json", entries.figs);
    return 0;
}
