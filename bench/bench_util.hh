/**
 * @file
 * Shared plumbing for the bench binaries: the paper workload helper
 * and the memoized experiment grid behind bench_paper.
 *
 * Every table, figure and memsim sweep of the paper is a view of one
 * grid of traced runs: (workload, machine, direction) cells over the
 * VO/layer configurations, the image sizes, the three SGI machines
 * and the machines and workloads the ablations vary.  PaperGrid runs
 * each cell at most once and keeps the result, so the views that show
 * the same cell share one run.  Frame count defaults to the paper's
 * 30 and can be reduced via M4PS_FRAMES for quick runs.
 */

#ifndef M4PS_BENCH_BENCH_UTIL_HH
#define M4PS_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
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

/** One traced run of the grid, with the machine it ran on. */
struct GridCell
{
    core::Workload workload;
    core::MachineConfig machine;
    Direction direction = Direction::Encode;
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
    /**
     * The cell for @p wl on @p machine in direction @p dir.  A stored
     * cell is returned when its whole workload and whole machine
     * equal the request's, so sweep points that share a name or a
     * label stay cells of their own.  Running a cell prints one
     * "running ..." line.  The reference stays valid for the grid's
     * lifetime.
     */
    const GridCell &cell(const core::Workload &wl,
                         const core::MachineConfig &machine,
                         Direction dir);

  private:
    /** Untraced encode of @p wl: the input of its decode cells. */
    const std::vector<uint8_t> &stream(const core::Workload &wl);

    /** A deque: adding a cell never moves the ones views hold. */
    std::deque<GridCell> cells_;
    std::vector<std::pair<core::Workload, std::vector<uint8_t>>> streams_;
};

/** Paper workload for a grid cell (frames from M4PS_FRAMES). */
core::Workload benchWorkload(int w, int h, int num_vos, int layers);

} // namespace m4ps::bench

#endif // M4PS_BENCH_BENCH_UTIL_HH
