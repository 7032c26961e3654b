/**
 * @file
 * The benchmark's four workloads, one pass each.
 *
 * A pass is a fixed amount of simulated work whose inputs derive from
 * the seed alone. Host time is measured around the simulator's public
 * entry points; the simulated results of every cell are folded into a
 * digest so that a traced pass can be proven to have simulated
 * exactly what the untraced pass did.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>

namespace perfbench
{

enum class Workload
{
    stampFig2,
    kvReadMostly,
    kvSaturated,
    oracleSweep,
};

const char* workloadName(Workload workload);

/** Parse a workload name; @return recognized. */
bool parseWorkload(const char* name, Workload& out);

/** Simulated (virtual-time) results of a pass: exact, host-independent
 *  apart from the heap image the model still hashes. */
struct ModelStats
{
    std::uint64_t digest = 0;
    /** Geomean of the best per-cell speed-ups, bayes excluded. */
    double speedupGeomean = 0.0;
    /** Mean |ln(measured / paper)| against the Fig. 2 chart readings,
     *  bayes excluded. */
    double fig2LogErr = 0.0;
    double abortRatio = 0.0;
    double wastedWorkRatio = 0.0;
    std::uint64_t txAccesses = 0;
    std::uint64_t aborts = 0;
    std::uint64_t lockWaitCycles = 0;
    /** Virtual latency percentiles: per atomic section (STAMP), per
     *  request (KV), per committed attempt (oracle). */
    std::uint64_t p50Cycles = 0;
    std::uint64_t p99Cycles = 0;
    std::uint64_t p999Cycles = 0;
};

/** Host-side outcome of one pass. */
struct PassResult
{
    std::uint64_t cells = 0;
    std::uint64_t failedCells = 0;
    /** Host time of the whole pass. */
    double wallNs = 0.0;
    /** Host time building inputs, schedulers, runtimes and stacks. */
    double setupNs = 0.0;
    /** Host time inside the simulations (set-up excluded). */
    double simulateNs = 0.0;
    /** Host time of the Scheduler::run, runServer and runDifferential
     *  calls whole, by steady_clock: the yardstick the traced layer
     *  times are checked against. */
    double spanNs = 0.0;
    /** Committed simulated sections (fixed by the workload). */
    std::uint64_t commits = 0;
    ModelStats model;
};

/** Run one pass of @p workload with inputs derived from @p seed. */
PassResult runPass(Workload workload, std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
