#include "bench/bench_util.hh"

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

PaperGrid::PaperGrid(int frames) : frames_(frames) {}

const GridCell &
PaperGrid::cell(const WorkloadShape &shape,
                const core::MachineConfig &machine, Direction dir)
{
    core::Workload wl = core::paperWorkload(shape.width, shape.height,
                                            shape.numVos, shape.layers);
    wl.frames = frames_;
    const char *verb = dir == Direction::Encode ? "encode" : "decode";
    const std::string key = wl.name + " " + machine.label() + " " + verb;
    if (const auto it = cells_.find(key); it != cells_.end())
        return it->second;

    inform("running ", wl.name, " on ", machine.label(), " (", verb,
           ", ", wl.frames, " frames)");
    core::RunResult r =
        dir == Direction::Encode
            ? core::ExperimentRunner::runEncode(wl, machine)
            : core::ExperimentRunner::runDecode(wl, machine, stream(wl));
    return cells_
        .emplace(key, GridCell{std::move(wl), machine, std::move(r)})
        .first->second;
}

const std::vector<uint8_t> &
PaperGrid::stream(const core::Workload &wl)
{
    auto it = streams_.find(wl.name);
    if (it == streams_.end())
        it = streams_
                 .emplace(wl.name,
                          core::ExperimentRunner::encodeUntraced(wl))
                 .first;
    return it->second;
}

} // namespace m4ps::bench
