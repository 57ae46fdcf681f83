#include "core/workload.hh"

#include <cstdlib>
#include <sstream>

#include "support/logging.hh"

namespace m4ps::core
{

codec::EncoderConfig
Workload::encoderConfig() const
{
    codec::EncoderConfig cfg;
    cfg.width = width;
    cfg.height = height;
    cfg.numVos = numVos;
    cfg.layers = layers;
    cfg.gop = gop;
    cfg.searchRange = searchRange;
    cfg.searchRangeB = searchRangeB;
    cfg.halfPel = halfPel;
    cfg.mpegQuant = mpegQuant;
    cfg.fourMv = fourMv;
    cfg.targetBps = targetBps;
    cfg.frameRate = frameRate;
    cfg.resyncInterval = resyncInterval;
    cfg.dataPartitioning = dataPartitioning;
    cfg.initialQp = initialQp;
    return cfg;
}

std::string
Workload::sizeLabel() const
{
    std::ostringstream os;
    os << width << "x" << height;
    return os.str();
}

std::string
Workload::whyInvalid() const
{
    if (width <= 0 || height <= 0 || width % 16 != 0 || height % 16 != 0)
        return "frame size must be positive multiples of 16, got " +
               sizeLabel();
    if (frames < 1)
        return "frames must be >= 1";
    if (numVos < 1 || numVos > 16)
        return "vos must be in [1, 16]";
    if (layers != 1 && layers != 2)
        return "layers must be 1 or 2";
    // Negated so that NaN fails too.
    if (!(targetBps > 0))
        return "bitrate must be positive";
    if (!(frameRate > 0))
        return "frame-rate must be positive";
    if (searchRange < 0)
        return "search-range must be >= 0";
    if (searchRangeB < 0)
        return "search-range-b must be >= 0";
    if (gop.bFrames < 0)
        return "b-frames must be >= 0";
    // b-frames >= intra-period first, so b-frames + 1 cannot overflow.
    if (gop.intraPeriod < 1 || gop.bFrames >= gop.intraPeriod ||
        gop.intraPeriod % (gop.bFrames + 1) != 0)
        return "intra-period must be a positive multiple of "
               "b-frames + 1";
    if (resyncInterval < 0)
        return "resync-interval must be >= 0";
    if (dataPartitioning && resyncInterval == 0)
        return "data-partition requires resync-interval > 0";
    return "";
}

void
Workload::validate() const
{
    const std::string why = whyInvalid();
    M4PS_ASSERT(why.empty(), "workload ", name, ": ", why);
}

Workload
paperWorkload(int width, int height, int num_vos, int layers)
{
    Workload w;
    w.width = width;
    w.height = height;
    w.numVos = num_vos;
    w.layers = layers;
    std::ostringstream os;
    os << num_vos << "VO-" << layers << "VOL-" << width << "x" << height;
    w.name = os.str();
    w.validate();
    return w;
}

int
benchFrames(int default_frames)
{
    if (const char *env = std::getenv("M4PS_FRAMES")) {
        const int n = std::atoi(env);
        if (n > 0)
            return n;
        warn("ignoring invalid M4PS_FRAMES='", env, "'");
    }
    return default_frames;
}

} // namespace m4ps::core
