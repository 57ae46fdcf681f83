/**
 * @file
 * Cycle/time cost model for the simulated machine.
 *
 * The paper measures wall-clock-derived quantities (stall-time
 * fractions, MB/s of bus traffic), so the trace-driven cache model
 * needs a notion of time.  The model is deliberately simple and
 * documented: compute cycles accrue per graduated memory access
 * (standing in for the surrounding ALU/issue work at a sustained
 * IPC), and each miss adds the *exposed* fraction of its service
 * latency - the fraction the out-of-order core and the MIPSpro
 * compiler fail to hide (paper §3.2, "Out-of-order issue and the
 * MIPS optimizing compiler hide another portion of the latency").
 */

#ifndef M4PS_MEMSIM_COST_MODEL_HH
#define M4PS_MEMSIM_COST_MODEL_HH

#include <string>

namespace m4ps::memsim
{

/** Latency, clock, and overlap parameters of the modelled CPU. */
struct CostModel
{
    /** Core clock in MHz (R12K O2/Onyx2 class: 300 MHz). */
    double clockMhz = 300.0;

    /**
     * Compute cycles charged per graduated load/store.  Loads and
     * stores are roughly 40% of the dynamic instruction mix of the
     * codec and the sustained IPC is near 1, so each access stands
     * for about 2.5 cycles of issue/ALU work.
     */
    double cyclesPerAccess = 2.5;

    /** L2 hit service latency in cycles. */
    double l2HitLatency = 12.0;

    /** DRAM service latency in cycles (beyond the L2 probe). */
    double dramLatency = 90.0;

    /** Fraction of L2-hit latency the core cannot hide. */
    double l2Exposure = 0.35;

    /** Fraction of DRAM latency the core cannot hide. */
    double dramExposure = 0.65;

    /** Seconds for a cycle count at this clock. */
    double seconds(double cycles) const
    {
        return cycles / (clockMhz * 1e6);
    }

    std::string str() const;

    bool operator==(const CostModel &) const = default;
};

} // namespace m4ps::memsim

#endif // M4PS_MEMSIM_COST_MODEL_HH
