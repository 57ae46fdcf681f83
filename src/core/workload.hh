/**
 * @file
 * Workload descriptors.
 *
 * The paper "manipulates a 30-frame video at two resolutions: the
 * 720x576 used for PAL, and a 1024x768 size that exceeds NTSC but is
 * less than HDTV.  Pixel depth is eight bits.  The frame rate is 30
 * Hz, and the target bitrate is 38400" (§3.1), with 1 or 3 visual
 * objects and 1 or 2 layers per object.
 */

#ifndef M4PS_CORE_WORKLOAD_HH
#define M4PS_CORE_WORKLOAD_HH

#include <string>

#include "codec/encoder.hh"

namespace m4ps::core
{

/** One experiment workload (scene + codec parameters). */
struct Workload
{
    std::string name;
    int width = 720;
    int height = 576;
    int frames = 30;          //!< 30-frame sequences, as in the paper.
    int numVos = 1;           //!< 1, or 3 for the multi-object runs.
    int layers = 1;           //!< 1, or 2 for the multi-layer runs.
    double targetBps = 38400.0;
    double frameRate = 30.0;
    codec::GopConfig gop{12, 2};
    int searchRange = 8;
    int searchRangeB = 4;
    bool halfPel = true;
    bool mpegQuant = false;
    bool fourMv = true;
    int resyncInterval = 0;       //!< MB rows per video packet; 0 = off.
    bool dataPartitioning = false;
    uint64_t seed = 7;
    /**
     * Starting quantizer; <= 0 derives it from the target rate.  The
     * job supervisor's degradation ladder (docs/OPERATIONS.md) pins
     * this high to cheapen encodes that keep blowing their deadline.
     */
    int initialQp = 0;

    /** Encoder configuration equivalent to this workload. */
    codec::EncoderConfig encoderConfig() const;

    /** "720x576", "1024x768", ... */
    std::string sizeLabel() const;

    /**
     * Why the codec cannot run this workload, or "" when it can.
     * Tests every condition the codec's configuration asserts test
     * (EncoderConfig, GopConfig, VolConfig) and frames >= 1, without
     * aborting, and names the offending setting by its spec key, so
     * m4ps_run and JobSpec::validate() (manifests, worker specs and
     * serve requests) can turn untrusted input into a usage error.
     */
    std::string whyInvalid() const;

    /** Aborts with whyInvalid() unless it is empty. */
    void validate() const;

    bool operator==(const Workload &) const = default;
};

/** The paper's workload for a given size / VO / layer combination. */
Workload paperWorkload(int width, int height, int num_vos, int layers);

/**
 * Environment-tunable frame count for the benchmark harness: the
 * paper uses 30 frames; M4PS_FRAMES overrides for quicker runs.
 */
int benchFrames(int default_frames = 30);

} // namespace m4ps::core

#endif // M4PS_CORE_WORKLOAD_HH
