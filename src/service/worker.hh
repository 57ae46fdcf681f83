/**
 * @file
 * Sandboxed job execution: the code that runs inside a worker child.
 *
 * A worker receives one JobSpec (as a `--spec "k=v ..."` command
 * line, or directly when the supervisor forks without exec'ing) and
 * runs it to completion in its own process, so an encoder crash, a
 * hang, or an abort takes down only the child.  Encode jobs
 * checkpoint after every frame time (service/checkpoint.hh) and
 * resume from the sidecar if one matches their config hash, which
 * makes SIGKILL at any instant recoverable with a byte-identical
 * final bitstream.
 *
 * Exit protocol (the supervisor's classification contract):
 *   0  success
 *   2  usage / bad spec          -> permanent (BadConfig)
 *   3  permanent job failure     -> permanent (e.g. missing input)
 *   other exits and any signal   -> transient (WorkerCrash)
 *
 * A job that succeeds writes its completion record
 * (`<output>.done`, service/checkpoint.hh) after everything it
 * publishes and before it deletes its checkpoint, so a kill between
 * the last write and the exit costs the supervisor nothing.
 *
 * Fault injection for tests and drills: the `crash-at=<N>` /
 * `hang-at=<N>` spec keys abort or hang the worker the first time its
 * encoded-VOP count crosses N.  The trigger fires after that frame's
 * checkpoint is written, so a resumed attempt starts beyond the
 * trigger and does not fire it again.
 */

#ifndef M4PS_SERVICE_WORKER_HH
#define M4PS_SERVICE_WORKER_HH

#include "service/jobspec.hh"

namespace m4ps::service
{

/** Worker exit codes (see the classification contract above). */
constexpr int kWorkerOk = 0;
constexpr int kWorkerUsage = 2;
constexpr int kWorkerPermanent = 3;

/**
 * Run @p spec in this process and return the worker exit code.
 * Injected crashes abort(); injected hangs never return.
 */
int runJob(const JobSpec &spec);

/** main() body for tools/m4ps_worker.cc: `--id X --spec "k=v ..."`. */
int workerMain(int argc, const char *const *argv);

} // namespace m4ps::service

#endif // M4PS_SERVICE_WORKER_HH
