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
 *
 * A finished job leaves a second, empty sidecar, `<output>.done`:
 * the worker writes it once everything the job publishes is in
 * place, and only then deletes the checkpoint.  A kill at any instant
 * therefore leaves a checkpoint to resume from or a record that the
 * job is done, and the supervisor that reaps the attempt counts a
 * recorded one as finished.
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

/**
 * Durably record that the job writing @p output has published all of
 * it.  No-op for an empty @p output (a decode job without a report).
 */
void markDone(const std::string &output);

/**
 * Delete @p output's completion record.  Returns whether there was
 * one: the supervisor calls this before each attempt, so a record
 * from an earlier run cannot vouch for it, and again when it reaps
 * the attempt.
 */
bool takeDone(const std::string &output);

} // namespace m4ps::service

#endif // M4PS_SERVICE_CHECKPOINT_HH
