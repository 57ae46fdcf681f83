/**
 * @file
 * Job descriptions for the batch supervisor.
 *
 * A manifest is a line-oriented text file describing a fleet of
 * encode/decode/transcode jobs (docs/OPERATIONS.md):
 *
 *   # comment
 *   default deadline-ms=8000 retries=3 width=352 height=288
 *   job enc0 type=encode frames=10 out=enc0.m4v
 *   job dec0 type=decode input=enc0.m4v frames=10
 *
 * `default` lines set key=value defaults for every subsequent job;
 * `job <id>` lines define one job each.  Unknown keys, duplicate ids,
 * and unparseable values throw ManifestError with the line number -
 * a bad manifest is a usage error (exit 2), never a fatal abort.
 *
 * The same key=value syntax round-trips a JobSpec to the m4ps_worker
 * command line, so the supervisor and the worker parse with one code
 * path.
 */

#ifndef M4PS_SERVICE_JOBSPEC_HH
#define M4PS_SERVICE_JOBSPEC_HH

#include <string>
#include <vector>

#include "core/workload.hh"
#include "fec/frame.hh"

namespace m4ps::service
{

/** A manifest (or spec string) that cannot be honored. */
class ManifestError : public std::runtime_error
{
  public:
    explicit ManifestError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** What a job does. */
enum class JobType
{
    Encode,    //!< Scene -> elementary stream (checkpointable).
    Decode,    //!< Stream file -> tolerant decode + stats.
    Transcode, //!< Encode, then decode the result to verify it.
};

const char *jobTypeName(JobType t);

/** One supervised job. */
struct JobSpec
{
    std::string id;
    JobType type = JobType::Encode;

    /** Codec workload; frames/sizes as in core::Workload. */
    core::Workload workload;

    /** Input elementary stream (decode/transcode-from-file jobs). */
    std::string input;

    /** Output path: stream for encodes, report for decodes. */
    std::string output;

    /** Watchdog deadline per attempt; 0 = supervisor default. */
    int deadlineMs = 0;

    /** Retry budget for transient failures; -1 = supervisor default. */
    int retries = -1;

    /** Circuit-breaker class; empty = the job type's name. */
    std::string jobClass;

    /** Checkpoint encode progress at VOP granularity. */
    bool checkpoint = true;

    /** Tolerant decode (conceal instead of abort). */
    bool tolerant = true;

    /** Deterministic fault injection: crash after this VOP (<0 off). */
    int crashAtVop = -1;

    /** Deterministic fault injection: hang after this VOP (<0 off). */
    int hangAtVop = -1;

    /**
     * Forward error correction over the job's stream (docs/FEC.md):
     * "off", "hard", or "soft".  Encode/transcode jobs write an
     * FEC-framed stream; decode jobs recover the framing before
     * decoding.  Shapes the output bytes, so it participates in
     * configHash().
     */
    std::string fecMode = "off";

    /** Code rate after puncturing: "1/2", "2/3", or "3/4". */
    std::string fecRate = "1/2";

    /** Block-interleaver depth; <= 1 disables interleaving. */
    int interleaveDepth = 1;

    /** FEC requested (any mode but "off"). */
    bool fecEnabled() const { return fecMode != "off"; }

    /**
     * The framing protect() applies when fecEnabled().  The spec
     * must have passed validate().
     */
    fec::FecConfig fecConfig() const;

    /**
     * Measure host PMU counters over the job (perfctr; falls back to
     * the software backend when the PMU is unavailable).  Supervision
     * detail: excluded from configHash(), so flipping it never stales
     * a checkpoint.
     */
    bool perf = false;

    /** Write an m4ps-report-v1 document here after the job. */
    std::string reportOut;

    /** Breaker class actually in effect. */
    std::string effectiveClass() const
    {
        return jobClass.empty() ? jobTypeName(type) : jobClass;
    }

    /** Throws ManifestError if the spec cannot be run. */
    void validate() const;

    /**
     * Canonical key=value form: parseSpecLine(toSpecLine()) is the
     * identity, and the string is the hash domain for checkpoint
     * compatibility (two specs with equal canonical forms produce
     * equal bitstreams).
     */
    std::string toSpecLine() const;

    /** FNV-1a hash of toSpecLine() minus non-bitstream keys. */
    uint64_t configHash() const;
};

/** Parse one `key=value ...` spec body (no leading `job <id>`). */
JobSpec parseSpecLine(const std::string &id, const std::string &body);

/** Parse a whole manifest text; throws ManifestError with line info. */
std::vector<JobSpec> parseManifest(const std::string &text);

/** Read and parse a manifest file. */
std::vector<JobSpec> loadManifest(const std::string &path);

} // namespace m4ps::service

#endif // M4PS_SERVICE_JOBSPEC_HH
