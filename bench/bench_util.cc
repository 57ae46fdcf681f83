#include "bench/bench_util.hh"

#include <algorithm>

#include "core/workload.hh"
#include "support/logging.hh"

namespace m4ps::bench
{

core::Workload
benchWorkload(int w, int h, int num_vos, int layers)
{
    core::Workload wl = core::paperWorkload(w, h, num_vos, layers);
    wl.frames = core::benchFrames(30);
    return wl;
}

std::string
GridCell::label() const
{
    return workload.sizeLabel() + " " + machine.label();
}

const GridCell &
PaperGrid::cell(const core::Workload &wl,
                const core::MachineConfig &machine, Direction dir)
{
    const auto it =
        std::find_if(cells_.begin(), cells_.end(), [&](const GridCell &c) {
            return c.direction == dir && c.workload == wl &&
                   c.machine == machine;
        });
    if (it != cells_.end())
        return *it;

    const char *verb = dir == Direction::Encode ? "encode" : "decode";
    inform("running ", wl.name, " on ", machine.label(), " (", verb,
           ", ", wl.frames, " frames)");
    core::RunResult r =
        dir == Direction::Encode
            ? core::ExperimentRunner::runEncode(wl, machine)
            : core::ExperimentRunner::runDecode(wl, machine, stream(wl));
    return cells_.emplace_back(GridCell{wl, machine, dir, std::move(r)});
}

const std::vector<uint8_t> &
PaperGrid::stream(const core::Workload &wl)
{
    const auto it = std::find_if(streams_.begin(), streams_.end(),
                                 [&](const auto &s) { return s.first == wl; });
    if (it != streams_.end())
        return it->second;
    return streams_
        .emplace_back(wl, core::ExperimentRunner::encodeUntraced(wl))
        .second;
}

} // namespace m4ps::bench
