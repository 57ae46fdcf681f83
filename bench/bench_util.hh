/**
 * @file
 * Shared plumbing for the bench binaries: the paper workload helper
 * and the memoized experiment grid behind bench_paper.
 *
 * Every table and figure of the paper is a view of one grid of traced
 * runs: (workload, machine, direction) cells over the VO/layer
 * configurations, the image sizes and the three SGI machines.
 * PaperGrid runs each cell at most once and keeps the result, so the
 * tables, figures and the prefetch study that show the same cell
 * share one run.  Frame count defaults to the paper's 30 and can be
 * reduced via M4PS_FRAMES for quick runs.
 */

#ifndef M4PS_BENCH_BENCH_UTIL_HH
#define M4PS_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/machine.hh"
#include "core/runner.hh"

namespace m4ps::bench
{

/** Encode or decode direction of a grid cell. */
enum class Direction
{
    Encode,
    Decode,
};

/** A paper workload's coordinates: image size, VOs, layers per VO. */
struct WorkloadShape
{
    int width = 0;
    int height = 0;
    int numVos = 1;
    int layers = 1;
};

/** One traced run of the grid, with the machine it ran on. */
struct GridCell
{
    core::Workload workload;
    core::MachineConfig machine;
    core::RunResult run;

    /** "720x576 R12K/1MB", the column label of Tables 2-7. */
    std::string label() const;
};

/**
 * The paper's experiment grid, memoized.  A cell runs traced on its
 * first request and is stored; later requests return the stored
 * cell.  Decode cells of one workload share one untraced encode as
 * their input, which is exact because traced and untraced encodes
 * produce the same stream.
 */
class PaperGrid
{
  public:
    /** Grid whose workloads run @p frames frames each. */
    explicit PaperGrid(int frames = core::benchFrames(30));

    /**
     * The cell for the paper workload @p shape on @p machine in
     * direction @p dir, keyed by workload name, machine label and
     * direction.  Running it prints one "running ..." line.  The
     * reference stays valid for the grid's lifetime.
     */
    const GridCell &cell(const WorkloadShape &shape,
                         const core::MachineConfig &machine,
                         Direction dir);

  private:
    /** Untraced encode of @p wl: the input of its decode cells. */
    const std::vector<uint8_t> &stream(const core::Workload &wl);

    int frames_;
    std::map<std::string, GridCell> cells_;
    std::map<std::string, std::vector<uint8_t>> streams_;
};

/** Paper workload for a sweep entry (frames from M4PS_FRAMES). */
core::Workload benchWorkload(int w, int h, int num_vos, int layers);

} // namespace m4ps::bench

#endif // M4PS_BENCH_BENCH_UTIL_HH
