/**
 * @file
 * Execution-backend selector: what an atomic section *is*.
 *
 * RuntimeConfig::backend picks how Runtime::atomic() executes its
 * body (the retry driver itself is Runtime::runSection):
 *
 *  - htm: best-effort hardware transactions driven by a per-thread
 *    RetryPolicy, with the global-lock fallback — the machine
 *    behaviour the paper measures;
 *  - globalLock: every section runs irrevocably under the global
 *    fallback lock — the honest software baseline a speculation-free
 *    runtime would give, and the floor HTM must beat to justify
 *    itself (cf. "Inherent Limitations of Hybrid Transactional
 *    Memory", PAPERS.md);
 *  - idealHtm: transactions with unlimited capacity and free
 *    begin/end/abort — an upper-bound oracle isolating how much the
 *    real machines' capacity limits and bookkeeping overheads cost
 *    (only true data and lock conflicts remain). Its relaxations are
 *    applied where the Runtime resolves its effective machine
 *    parameters, so it shares the htm driver and hot path;
 *  - hybrid: hardware attempts with a concurrent software-TM slow
 *    path (stm.hh) replacing most global-lock fallbacks — the design
 *    point the hybrid-TM bounds literature analyzes ("Inherent
 *    Limitations of Hybrid Transactional Memory"; "On the Cost of
 *    Concurrency in Hybrid Transactional Memory", PAPERS.md).
 */

#ifndef HTMSIM_HTM_BACKEND_HH
#define HTMSIM_HTM_BACKEND_HH

#include <cstdint>
#include <optional>
#include <string_view>

namespace htmsim::htm
{

/** Execution backend selector (RuntimeConfig::backend). */
enum class BackendKind : std::uint8_t
{
    /** Best-effort HTM with retry policy + global-lock fallback. */
    htm,
    /** Every atomic section runs irrevocably under the global lock. */
    globalLock,
    /** HTM with unlimited capacity and free begin/end (oracle). */
    idealHtm,
    /** Best-effort HTM with a concurrent software-TM slow path
     *  (stm.hh) between the retries and the global lock. */
    hybrid,
};

/** Human-readable backend name ("htm", "lock", "ideal", "hybrid"). */
const char* backendKindName(BackendKind kind);

/** The backend whose backendKindName() is @p name, if any. */
std::optional<BackendKind> parseBackendKind(std::string_view name);

} // namespace htmsim::htm

#endif // HTMSIM_HTM_BACKEND_HH
