/**
 * @file
 * CPU scaling ablation: thread scaling.
 *
 * The paper measures a single-threaded codec on single-CPU machines;
 * this bench asks the orthogonal modern question: how far does the
 * same workload scale when macroblock rows are spread across host
 * threads (docs/THREADING.md)?
 * Everything modelled -- bitstreams, memsim counters, modelled
 * seconds -- is invariant under the thread count; only real
 * wall-clock time changes, so this is the one table in the harness
 * that measures the host rather than the model.  For each thread
 * count we time an untraced 720x576 encode and a decode of the same
 * stream, and verify the bitstream is byte-equal to the
 * single-threaded reference.  Speedup requires the host to actually
 * have that many cores; on a 1-core machine the curve is flat and
 * that is the correct answer.  The paper's processor-to-memory
 * ratio question, which memsim models, is `bench_paper clock`.
 */

#include <chrono>
#include <iostream>
#include <thread>

#include "bench/bench_util.hh"
#include "support/table.hh"
#include "support/threadpool.hh"

namespace
{

using namespace m4ps;

double
seconds(const std::chrono::steady_clock::time_point &t0)
{
    const auto dt = std::chrono::steady_clock::now() - t0;
    return std::chrono::duration<double>(dt).count();
}

/** Wall-clock time of one untraced encode of @p wl. */
double
timeEncode(const core::Workload &wl, std::vector<uint8_t> *stream)
{
    const auto t0 = std::chrono::steady_clock::now();
    *stream = core::ExperimentRunner::encodeUntraced(wl);
    return seconds(t0);
}

/** Wall-clock time of one untraced decode of @p stream. */
double
timeDecode(const std::vector<uint8_t> &stream)
{
    memsim::SimContext ctx; // untraced
    codec::Mpeg4Decoder dec(ctx);
    const auto t0 = std::chrono::steady_clock::now();
    dec.decode(stream, [](const codec::DecodedEvent &) {});
    return seconds(t0);
}

} // namespace

int
main()
{
    const core::Workload wl = bench::benchWorkload(720, 576, 1, 1);

    const unsigned cores = std::thread::hardware_concurrency();
    std::cout << "CPU scaling ablation: " << wl.width << "x"
              << wl.height << ", " << wl.frames
              << " frames, host reports " << cores
              << " hardware thread(s)\n\n";

    // Single-threaded reference: timing baseline and the bitstream
    // every other configuration must reproduce bit-for-bit.
    support::ThreadPool::setGlobalThreads(1);
    std::vector<uint8_t> reference;
    const double encBase = timeEncode(wl, &reference);
    const double decBase = timeDecode(reference);

    TextTable t("Macroblock-row threading: host wall-clock scaling "
                "(modelled metrics are thread-invariant)");
    t.header({"threads", "encode s", "speedup", "efficiency",
              "decode s", "speedup", "bitstream"});
    t.row({"1", TextTable::num(encBase, 2), "1.00x", "100%",
           TextTable::num(decBase, 2), "1.00x", "reference"});

    for (const int n : {2, 4, 8}) {
        support::ThreadPool::setGlobalThreads(n);
        std::vector<uint8_t> stream;
        const double enc = timeEncode(wl, &stream);
        const double dec = timeDecode(stream);
        const double encSpeed = encBase / enc;
        const bool same = stream == reference;
        t.row({TextTable::num(n, 0), TextTable::num(enc, 2),
               TextTable::num(encSpeed, 2) + "x",
               TextTable::num(100.0 * encSpeed / n, 0) + "%",
               TextTable::num(dec, 2),
               TextTable::num(decBase / dec, 2) + "x",
               same ? "identical" : "MISMATCH"});
        if (!same) {
            std::cerr << "FATAL: " << n << "-thread bitstream differs "
                      << "from the single-threaded reference\n";
            return 1;
        }
    }

    std::cout << "\n";
    t.print();
    std::cout
        << "\nReading: rows of one VOP are coded as independent "
           "slices, so encode scales with\ncores until the "
           "sequential shape pass and per-VOP merge dominate "
           "(Amdahl); the\nbitstream column proves the parallel "
           "schedule never changes the output.\n";
    return 0;
}
