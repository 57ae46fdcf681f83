/**
 * @file
 * Checkpoint sidecar files for resumable encode jobs.
 *
 * After each completed frame time the worker serializes the whole
 * encoder state (src/support/serialize.hh) and writes it next to the
 * output stream as `<output>.ckpt`.  A later attempt of the same job
 * restores that state and continues from the recorded frame, and the
 * finished bitstream is byte-identical to an uninterrupted run.
 *
 * The sidecar wraps the raw state blob in a header:
 *
 *   magic "M4CK", version u32, configHash u64, nextFrame i32,
 *   length-prefixed state blob, crc32(state blob)
 *
 * Loading validates all four guards and reports any mismatch as
 * "no usable checkpoint" rather than an error: a stale hash (the job
 * was degraded, so the bitstream recipe changed), a truncated file
 * (the worker died mid-write of a non-atomic filesystem), or a
 * corrupt blob all mean the job simply starts from frame 0 again.
 * Writes go through a temp file + rename so a kill during
 * checkpointing never destroys the previous good checkpoint.
 */

#ifndef M4PS_SERVICE_CHECKPOINT_HH
#define M4PS_SERVICE_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace m4ps::service
{

/** A decoded checkpoint sidecar. */
struct Checkpoint
{
    uint64_t configHash = 0;
    int nextFrame = 0;               //!< First frame not yet encoded.
    std::vector<uint8_t> state;      //!< Mpeg4Encoder::saveState blob.
};

/** Sidecar path for an output stream path. */
std::string checkpointPath(const std::string &output);

/** Durably write @p c to @p path (support::writeFileAtomic). */
void saveCheckpoint(const std::string &path, const Checkpoint &c);

/**
 * Load @p path if it holds a valid checkpoint whose hash matches
 * @p configHash.  Returns false (and removes a stale/corrupt file)
 * when there is nothing usable to resume from.
 */
bool loadCheckpoint(const std::string &path, uint64_t configHash,
                    Checkpoint *out);

/**
 * Read only the header of @p path.  Returns true and fills
 * @p configHash / @p nextFrame if the magic and version check out;
 * the state blob is not validated.  The supervisor uses this to
 * report resume-from-checkpoint events without paying for a load.
 */
bool peekCheckpoint(const std::string &path, uint64_t *configHash,
                    int *nextFrame);

/** Delete the sidecar (after the job completes); missing is fine. */
void removeCheckpoint(const std::string &path);

} // namespace m4ps::service

#endif // M4PS_SERVICE_CHECKPOINT_HH
