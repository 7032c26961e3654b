/**
 * @file
 * Span tracer for the host-performance benchmark.
 *
 * Every boundary the benchmark can see from outside the simulator --
 * its own calls into App setup/worker/verify, runServer and
 * runDifferential, the wrapped Tx accesses of STAMP bodies, and the
 * lifecycle events of a TxObserver -- calls event(). With tracing off
 * that is one predictable branch. With tracing on, the time since the
 * previous event is charged to exactly one layer bucket:
 *
 *  - both events on the same fiber: that fiber's innermost open span;
 *  - events on different fibers: sim.switch, or sim.poll when the
 *    earlier fiber was waiting to begin or for the fallback lock;
 *  - a hand-over to or from the host main stack: the main stack's
 *    innermost span (scheduler harness, runServer or
 *    runDifferential internals).
 *
 * The charges telescope, so the buckets sum to the traced interval.
 * All tracer state lives in static storage or in one region
 * mapped at start-up in both modes, never on the malloc heap: host
 * allocation order is simulated state, and a traced pass must
 * reproduce the untraced pass's simulated results bit for bit.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <cstddef>
#include <cstdint>
#include <exception>

namespace perfbench::trace
{

/** Fiber id of the host main stack (simulated threads are 0..255). */
inline constexpr unsigned kMain = 256;

/** Boundary events. */
enum class Ev : std::uint8_t
{
    // Host main stack (fiber kMain).
    passEnter,
    passExit,
    setupEnter,   ///< App::setup
    setupExit,
    buildEnter,   ///< scheduler/runtime/barrier construction, spawns
    buildExit,
    verifyEnter,  ///< App::verify
    verifyExit,
    schedEnter,   ///< Scheduler::run of a STAMP cell
    schedExit,
    serverEnter,  ///< server::runServer
    serverExit,
    checkEnter,   ///< check::runDifferential
    checkExit,
    // Simulated threads.
    workerEnter,  ///< App::worker under the transactional executor
    seqWorkerEnter, ///< App::worker of the sequential baseline
    workerExit,
    sectionEnter, ///< executor atomic() entry
    sectionExit,
    bodyEnter,    ///< atomic-section body / check-workload apply
    bodyExit,
    bodyUnwind,   ///< body left by an abort exception
    accessEnter,  ///< one Tx load/store/create/destroy
    accessExit,
    accessUnwind, ///< access left by an abort exception
    // TxObserver lifecycle events.
    txBegin,
    txCommit,
    txAbort,
    txLockAcquired,
    txLockReleased,
    txFallbackCommit,
    txNonSpecCommit,
};

/** Layer buckets; every traced tick lands in exactly one. */
enum Bucket : unsigned
{
    simSwitch,
    simPoll,
    simHarness,  ///< fiber start/finish, barriers, scheduler entry/exit
    simSetup,    ///< scheduler/runtime/stack construction
    htmBegin,    ///< atomic() entry to body entry: wait, tbegin
    htmAttempt,  ///< in-attempt time whose body is not visible
    htmCommit,   ///< body exit to commit
    htmAbort,    ///< unwind, rollback, retry decision, backoff
    htmFallback, ///< global-lock acquire/hold/release overhead
    htmTail,     ///< commit to atomic() exit
    htmAccess,   ///< wrapped Tx accesses
    workloadBody,
    workloadNonTx,
    workloadSeq, ///< sequential-baseline worker
    workloadSetup,
    workloadVerify,
    serverInternal, ///< runServer's own host-side set-up and checks
    checkInternal,  ///< runDifferential's own work outside bodies
    benchSelf,      ///< the benchmark's own code between spans
    kBuckets
};

/** Human-readable bucket name ("sim.switch", ...). */
const char* bucketName(unsigned bucket);

/** Map the trace storage region. Call once, first thing in main(),
 *  in traced and untraced runs alike. */
void reserveStorage();

/** Switch recording on or off (between passes only). */
void setEnabled(bool enabled);

namespace detail
{
extern bool enabled;
void record(Ev event, unsigned fiber);
} // namespace detail

/** Whether recording is on. */
inline bool
enabled()
{
    return detail::enabled;
}

/** Record one boundary event on @p fiber. */
inline void
event(Ev ev, unsigned fiber)
{
    if (detail::enabled) [[unlikely]]
        detail::record(ev, fiber);
}

/** Totals of one traced interval, converted to host nanoseconds. */
struct Breakdown
{
    double bucketNs[kBuckets] = {};
    /** Buckets charged while a simulation span (sched/server/check)
     *  was open. */
    double attributedSimNs = 0.0;
    /** Span-stack overflows: events whose span was not recorded. */
    std::uint64_t stackOverflows = 0;
    std::uint64_t switches = 0;
    std::uint64_t sections = 0;
    std::uint64_t accesses = 0;
    std::uint64_t attempts = 0;
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t fallbacks = 0;
    std::uint64_t checkRuns = 0;
    double sectionSelfP50Ns = 0.0;
    double sectionSelfP99Ns = 0.0;
    double checkRunP50Ns = 0.0;
    double checkRunP99Ns = 0.0;
};

/** Start a traced interval: clears every accumulator. */
void begin();

/** Close the interval started by begin() and return its totals. */
Breakdown end();

/** RAII pair of events on one fiber; a body or access exit becomes
 *  its unwind event when an exception leaves the scope. With tracing
 *  off a Span is one branch on entry and one on exit. */
class Span
{
  public:
    Span(Ev enter, Ev exit, unsigned fiber)
        : exit_(exit), fiber_(fiber), active_(enabled())
    {
        if (active_) [[unlikely]] {
            uncaught_ = std::uncaught_exceptions();
            detail::record(enter, fiber_);
        }
    }

    ~Span()
    {
        if (!active_) [[likely]]
            return;
        Ev exit = exit_;
        if (std::uncaught_exceptions() > uncaught_) {
            if (exit == Ev::bodyExit)
                exit = Ev::bodyUnwind;
            else if (exit == Ev::accessExit)
                exit = Ev::accessUnwind;
        }
        detail::record(exit, fiber_);
    }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    Ev exit_;
    unsigned fiber_;
    bool active_;
    int uncaught_ = 0;
};

} // namespace perfbench::trace

#endif // PERFBENCH_TRACER_HH
