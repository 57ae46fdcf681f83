/**
 * @file
 * The steps of one job - encode, checkpoint, protect, channel,
 * recover, decode, report - written once for every front end.
 *
 * m4ps_worker (service/worker.cc), serve sessions (serve/server.cc)
 * and bench_resilience_ber_sweep call these steps and keep only their
 * own frame loops.  The channel is fec::transmit() (fec/frame.hh).
 * Steps throw on failure: std::runtime_error for a job that cannot
 * succeed, codec::DecodeError from a strict decode.
 */

#ifndef M4PS_SERVICE_PIPELINE_HH
#define M4PS_SERVICE_PIPELINE_HH

#include <optional>
#include <string>
#include <vector>

#include "codec/decoder.hh"
#include "codec/encoder.hh"
#include "fec/frame.hh"
#include "service/jobspec.hh"

namespace m4ps::service
{

/** What decodeStream() saw; fec is set when recover() ran. */
struct DecodeOutcome
{
    codec::DecodeStats stats;
    std::optional<fec::FecStats> fec;
};

/** spec.input, which must be a regular file (docs/OPERATIONS.md). */
std::vector<uint8_t> readInput(const JobSpec &spec);

/**
 * Restore @p enc from the sidecar at @p path if it was written for
 * @p spec's config hash.  Returns the first frame left to encode.
 */
int restoreEncoder(const std::string &path, const JobSpec &spec,
                   codec::Mpeg4Encoder &enc);

/** Durably save @p enc's state to @p path, resuming at @p nextFrame. */
void checkpointEncoder(const std::string &path, const JobSpec &spec,
                       int nextFrame, const codec::Mpeg4Encoder &enc);

/**
 * Untraced decode of @p stream, tolerant if spec.tolerant, after
 * fec::recover() when spec.fecEnabled() - protect, then conceal.
 */
DecodeOutcome decodeStream(const JobSpec &spec,
                           const std::vector<uint8_t> &stream,
                           const codec::Mpeg4Decoder::Sink &sink = {});

/** Throws unless decodeStream(@p spec, @p stream) yields a VOP. */
void verifyTranscode(const JobSpec &spec,
                     const std::vector<uint8_t> &stream);

/**
 * The decode report (docs/OPERATIONS.md): the summary lines serve
 * sends, then with @p fecDetail the FEC lines of the worker's file.
 */
std::string decodeReport(const DecodeOutcome &d, bool fecDetail);

} // namespace m4ps::service

#endif // M4PS_SERVICE_PIPELINE_HH
