/**
 * @file
 * Modelled machine configurations.
 *
 * The paper experiments on three SGI systems (Table 1): an O2
 * (R12000, 1 MB L2), an Onyx VTX (R10000, 2 MB L2), and an Onyx2
 * InfiniteReality (R12000, 8 MB L2), all with 32 KB 2-way primary
 * data caches, a 64-bit 133 MHz split-transaction system bus, and
 * 4-way interleaved SDRAM sustaining 680 MB/s (800 MB/s peak).
 * MachineConfig captures those parameters for the simulator.
 */

#ifndef M4PS_CORE_MACHINE_HH
#define M4PS_CORE_MACHINE_HH

#include <memory>
#include <string>
#include <vector>

#include "memsim/hierarchy.hh"

namespace m4ps::core
{

/** One modelled platform. */
struct MachineConfig
{
    std::string name;       //!< e.g. "O2".
    std::string cpu;        //!< "R10K" or "R12K".
    memsim::CacheConfig l1{32 * 1024, 2, 32};
    memsim::CacheConfig l2{1024 * 1024, 2, 128};
    memsim::CostModel cost;

    /**
     * The R10000 cannot count prefetches that hit in L1 (paper §3.1);
     * reports on R10K machines show "n/a" for that metric.
     */
    bool prefetchHitCounter = true;

    /** Sustained / peak memory bandwidth (Table 1). */
    double busSustainedMBs = 680.0;
    double busPeakMBs = 800.0;

    /** Short identifier like "R12K/1MB". */
    std::string label() const;

    /** Build a fresh hierarchy for one experiment run. */
    std::unique_ptr<memsim::MemoryHierarchy> makeHierarchy() const;

    bool operator==(const MachineConfig &) const = default;
};

/** SGI O2: R12000, 1 MB secondary cache. */
MachineConfig o2R12k1MB();

/** SGI Onyx VTX: R10000, 2 MB secondary cache. */
MachineConfig onyxR10k2MB();

/** SGI Onyx2 InfiniteReality: R12000, 8 MB secondary cache. */
MachineConfig onyx2R12k8MB();

/** The three platforms, in the column order of the paper's tables. */
std::vector<MachineConfig> paperMachines();

/** A machine with an arbitrary L2 size (ablation studies). */
MachineConfig customL2Machine(uint64_t l2_bytes);

/**
 * Preset by CLI/report name: "o2", "onyx", "onyx2" (case-sensitive).
 * Throws std::runtime_error naming the valid presets otherwise; the
 * tools and the report pipeline share this one mapping.
 */
MachineConfig machineByName(const std::string &name);

} // namespace m4ps::core

#endif // M4PS_CORE_MACHINE_HH
