/**
 * @file
 * Discrete-event scheduler for simulated threads.
 *
 * Every simulated thread owns a virtual clock measured in cycles. The
 * scheduler always resumes the runnable thread with the smallest clock,
 * so shared-memory events issued at scheduling points occur in global
 * virtual-time order. This is what makes speed-up measurements on a
 * single host core meaningful: the makespan (maximum finish time) of a
 * run is the simulated parallel execution time.
 *
 * Epoch batching (DESIGN.md Section 5): while one thread runs, every
 * other thread is frozen, so the smallest other runnable clock cannot
 * change between two of the running thread's scheduling points. The
 * scheduler therefore hands the dispatched thread a *lease* — the
 * virtual time up to which sync() is provably a no-op — and sync()
 * reduces to a single compare until the lease expires. A batched run
 * is bit-identical to an unbatched one by construction: only scheduling
 * points that could not have switched threads are elided.
 */

#ifndef HTMSIM_SIM_SCHEDULER_HH
#define HTMSIM_SIM_SCHEDULER_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fiber.hh"
#include "random.hh"

namespace htmsim::sim
{

/** Virtual time, in processor cycles. */
using Cycles = std::uint64_t;

/** Thrown when the simulation cannot make progress (virtual livelock). */
class SimError : public std::runtime_error
{
  public:
    explicit SimError(const std::string& what) : std::runtime_error(what) {}
};

class Scheduler;

/**
 * Hook consulted at every scheduling point (sync / yieldNow).
 *
 * Returning a non-zero delay pushes the current thread's clock forward
 * before the scheduler picks the next runnable thread, which reorders
 * globally visible events relative to the deterministic
 * earliest-time-first baseline while preserving the virtual-time
 * semantics (events still occur in virtual-time order). This is the
 * mechanism simcheck's FuzzScheduler (src/check) uses to explore
 * distinct interleavings per seed; with no perturber registered the
 * scheduler's behaviour is bit-identical to before the hook existed.
 *
 * Draw discipline (schedule format v2): the perturber is consulted
 * exactly once per scheduling point — sync() no longer draws a second
 * time when it enters the yield path, so per-thread point indices are
 * stable regardless of whether a point actually switched threads.
 * Schedules recorded under the old double-draw discipline do not
 * replay; re-record them. While a perturber is registered the sync()
 * fast path is disabled entirely, so epoch batching never elides a
 * point index.
 */
class SchedulePerturber
{
  public:
    virtual ~SchedulePerturber() = default;

    /**
     * Called once per scheduling point of thread @p tid, whose clock
     * reads @p now. @return extra cycles to charge the thread before
     * the scheduling decision (0 = leave the schedule alone).
     */
    virtual Cycles preemptDelay(unsigned tid, Cycles now) = 0;
};

/**
 * Per-thread handle passed to simulated-thread bodies.
 *
 * All methods must be called from within the owning thread's fiber,
 * except now() and id() which are always safe.
 */
class ThreadContext
{
  public:
    /** Simulated thread id, dense from 0. */
    unsigned id() const { return id_; }

    /** This thread's virtual clock. */
    Cycles now() const { return now_; }

    /** This thread's deterministic random stream. */
    Rng& rng() { return rng_; }

    /** Charge @p cycles of compute time without a scheduling point.
     *  The per-thread time scale models core sharing (SMT): a thread
     *  on an oversubscribed core advances proportionally slower. */
    void
    advance(Cycles cycles)
    {
        // The scaled rounding below yields exactly `cycles` for a unit
        // scale (any realistic cycle count is below 2^52), so the
        // integer fast path is bit-identical, just cheaper.
        if (timeScale_ == 1.0) {
            now_ += cycles;
            return;
        }
        now_ += Cycles(double(cycles) * timeScale_ + 0.5);
    }

    /** Set the execution-rate multiplier (>= 1; 1 = dedicated core). */
    void setTimeScale(double scale) { timeScale_ = scale; }
    double timeScale() const { return timeScale_; }

    /**
     * Scheduling point: if another runnable thread is behind this
     * thread in virtual time, switch to it. Call this before every
     * globally visible event so events happen in virtual-time order.
     *
     * Defined inline below the Scheduler: while the thread's clock is
     * inside its dispatch lease the point is provably a no-op and
     * costs one compare.
     */
    void sync();

    /** advance() then sync(); the common per-event pattern. */
    void step(Cycles cycles) { advance(cycles); sync(); }

    /** Unconditional scheduling point (used by spin loops). */
    void yieldNow();

    /**
     * Block until another thread calls Scheduler::wake(id()).
     * On wake-up the clock is advanced to at least the waker's clock.
     */
    void block();

    /**
     * Spin in virtual time until @p pred returns true, charging
     * @p poll_cycles per probe; every probe is a yielding scheduling
     * point. Throws SimError after an enormous number of probes
     * (virtual livelock / deadlock guard).
     *
     * While the thread waits it is *parked*: the scheduler evaluates
     * its later probes itself, on whatever stack is current, instead
     * of switching to this fiber for each one (DESIGN.md Section 5c).
     * @p pred must therefore be a pure read of simulated state: it may
     * not reach a scheduling point (sync, step, yieldNow, block, wake)
     * and may not throw.
     */
    template <typename Pred>
    void
    spinUntil(Pred pred, Cycles poll_cycles)
    {
        if (pred())
            return;
        SpinWait wait{
            [](void* p) { return bool((*static_cast<Pred*>(p))()); },
            &pred, poll_cycles, 0};
        park(wait);
        advance(poll_cycles);
        // Returns once a probe saw pred hold or the probe limit pass.
        yieldNow();
        if (wait.probes > spinProbeLimit)
            throw SimError("spinUntil: virtual livelock detected");
    }

    /** The scheduler running this thread. */
    Scheduler& scheduler() { return *scheduler_; }

    /** Probe guard for spinUntil. */
    static constexpr std::uint64_t spinProbeLimit = 50'000'000;

  private:
    friend class Scheduler;

    /** A parked spinUntil() wait, type-erased. It lives in the
     *  poller's own spinUntil() frame. */
    struct SpinWait
    {
        bool (*test)(void* pred);
        void* pred;
        Cycles poll;
        /** Yields so far; checked against spinProbeLimit. */
        std::uint64_t probes;
    };

    /** Mark this thread parked on @p wait until a probe ends it. */
    void park(SpinWait& wait);

    /** Out-of-line sync() tail: lease expired, perturbed, or a switch
     *  is actually due. */
    void syncSlow();

    Scheduler* scheduler_ = nullptr;
    unsigned id_ = 0;
    Cycles now_ = 0;
    double timeScale_ = 1.0;
    Rng rng_;
};

/**
 * How a scheduler provisions its fibers' stacks (all from the
 * process-wide StackPool; the mode only decides *when* a slot is
 * committed, never *where* a stack lives, so the two modes are
 * bit-identical by construction — proven by a forked A/B test).
 */
enum class StackPolicy
{
    /** Commit a fiber's stack at first dispatch and decommit it when
     *  the fiber finishes: resident memory tracks live fibers. The
     *  default. */
    pooled,
    /** Commit every fiber's stack up front at run() and keep them
     *  until the scheduler dies (the historical behaviour). */
    eager,
};

/**
 * Owns the simulated threads and runs them to completion in
 * earliest-virtual-time-first order.
 */
class Scheduler
{
  public:
    /** @param seed master seed for all per-thread random streams. */
    explicit Scheduler(std::uint64_t seed = 1);
    ~Scheduler();

    Scheduler(const Scheduler&) = delete;
    Scheduler& operator=(const Scheduler&) = delete;

    /**
     * Add a simulated thread. Threads start with clock 0.
     * @return the new thread's id.
     */
    unsigned spawn(std::function<void(ThreadContext&)> body);

    /** Run until every spawned thread finishes. Rethrows body errors. */
    void run();

    /** Make a blocked thread runnable; clock pulled up to @p at_least. */
    void wake(unsigned tid, Cycles at_least);

    /** Maximum finish time over all threads (valid after run()). */
    Cycles makespan() const;

    /** Finish time of one thread (valid after run()). */
    Cycles finishTime(unsigned tid) const;

    /** Sum of all threads' finish times (total busy virtual time). */
    Cycles totalThreadTime() const;

    unsigned numThreads() const { return unsigned(threads_.size()); }

    /** Context access (e.g. for post-run inspection). */
    ThreadContext& context(unsigned tid) { return threads_[tid]->context; }

    /**
     * Register a scheduling perturber (nullptr to remove). Non-owning;
     * the perturber must outlive run(). One perturber per scheduler.
     * Registering one disables the sync() fast path so every
     * scheduling point consults the hook (see SchedulePerturber).
     */
    void setPerturber(SchedulePerturber* perturber)
    {
        perturber_ = perturber;
    }

    /**
     * Enable/disable epoch batching (the sync() fast path). On by
     * default; results are bit-identical either way — the switch
     * exists as an escape hatch and for A/B verification
     * (`--no-batch` in the tools). @p max_epoch_cycles bounds how far
     * a lease may extend past the dispatched thread's clock.
     */
    void
    setBatching(bool enabled, Cycles max_epoch_cycles = defaultEpochCycles)
    {
        batching_ = enabled;
        epochCycles_ = max_epoch_cycles;
    }

    bool batchingEnabled() const { return batching_; }

    /** Default per-dispatch lease bound (virtual cycles). */
    static constexpr Cycles defaultEpochCycles = Cycles(1) << 20;

    /** Select this scheduler's stack provisioning mode (before run()). */
    void
    setStackPolicy(StackPolicy policy)
    {
        stackPolicy_ = policy;
    }

    StackPolicy stackPolicy() const { return stackPolicy_; }

    /** Per-fiber stack size (before run()); capped by the pool's slot
     *  capacity. Raise it for workloads with deep recursion. */
    void
    setStackBytes(std::size_t bytes)
    {
        stackBytes_ = std::min(bytes, StackPool::maxStackBytes);
    }

    /**
     * Process-wide default stack policy new schedulers start from.
     * Exists so A/B tests (and tools) can flip schedulers constructed
     * deep inside harness code; analogous to the --no-batch switch.
     */
    static void
    setDefaultStackPolicy(StackPolicy policy)
    {
        defaultStackPolicy_ = policy;
    }

    static StackPolicy defaultStackPolicy()
    {
        return defaultStackPolicy_;
    }

  private:
    friend class ThreadContext;

    static constexpr unsigned kNone = ~0u;

    enum class State { runnable, blocked, finished };

    struct Thread
    {
        ThreadContext context;
        std::unique_ptr<Fiber> fiber;
        State state = State::runnable;
        /** The spinUntil() wait; meaningful only while parked. */
        ThreadContext::SpinWait* wait = nullptr;
    };

    /** "No other runnable thread" in lease math. Real clocks never
     *  reach it. */
    static constexpr Cycles never = ~Cycles(0);

    /**
     * Per-thread scheduling record, indexed by tid. (time, order) is
     * the run-queue key while the thread is queued: order is a global
     * enqueue stamp, so the key is unique and ties resolve in enqueue
     * (FIFO) order — a re-enqueued thread is stamped later than every
     * waiting thread and loses all ties. pos is the thread's index in
     * the heap, or its successor in the poller lane (kLaneEnd at the
     * tail); kNone while running, blocked or finished. Threads leave
     * the queue only at its minimum, so pos is read only by the lane
     * walk and enqueue()'s double-enqueue assertion. leaseEnd is
     * the sync() fast-path bound of the running thread: scheduling
     * points with now < leaseEnd are provably no-ops. parked marks a
     * thread waiting in spinUntil(), whose probes the scheduler runs.
     * A queued thread's clock equals its slot time (nothing advances a
     * frozen clock), so dispatch never reads the Thread record for it.
     *
     * Until simulated addresses stop depending on the host heap, the
     * element sizes of slots_ (32 bytes) and queue_ (4 bytes) are part
     * of every simulated result: their growth allocations at spawn()
     * place everything allocated after them (DESIGN.md Section 5b).
     */
    struct SlotRec
    {
        Cycles time;
        std::uint64_t order;
        Cycles leaseEnd;
        unsigned pos;
        bool parked;
    };

    static constexpr unsigned kLaneEnd = kNone - 1;

    /** Run-queue order of queued threads @p a and @p b. */
    bool
    before(unsigned a, unsigned b) const
    {
        const SlotRec& x = slots_[a];
        const SlotRec& y = slots_[b];
        return x.time < y.time || (x.time == y.time && x.order < y.order);
    }

    /** No runnable thread besides the running one. */
    bool queueEmpty() const { return queue_.empty() && laneHead_ == kNone; }

    /** Whether the lane head precedes the heap root (the queue's
     *  minimum is in the lane). */
    bool
    laneLeads() const
    {
        return laneHead_ != kNone &&
               (queue_.empty() || before(laneHead_, queue_[0]));
    }

    /** Smallest queued clock, or `never`: the earliest other runnable
     *  thread's clock from the running thread's point of view. */
    Cycles
    minQueuedTime() const
    {
        const Cycles heap = queue_.empty() ? never : slots_[queue_[0]].time;
        return laneHead_ == kNone ? heap
                                  : std::min(heap, slots_[laneHead_].time);
    }

    /**
     * Scheduling point of the running thread @p self, then the parked
     * probes it leads to (probeParked()); switch fibers only if the
     * thread that ends up running is not self.
     */
    void reschedule(ThreadContext& self, bool yield_ties);

    /**
     * One scheduling point of the running thread @p self: consult the
     * perturber, then hand over to the queue minimum if it is strictly
     * behind self (or level with it when @p yield_ties — an explicit
     * yield lets equal clocks go first), queueing self; otherwise
     * renew self's lease. @return the thread now running.
     */
    unsigned schedulingPoint(ThreadContext& self, bool yield_ties);

    /**
     * Run the probes of parked threads in place of switching to them:
     * while the running thread @p tid is parked, replay its next
     * spinUntil() iteration — count the probe, test the predicate,
     * advance by the poll period, and take its yielding scheduling
     * point. Stops, unparking the thread, when the predicate holds or
     * the probe limit passes. @return the running thread, not parked.
     */
    unsigned probeParked(unsigned tid);

    /** Set the sync() fast-path bound of the running thread @p tid,
     *  whose clock is @p now. */
    void grantLease(unsigned tid, Cycles now);

    /** Make @p tid (clock @p now) the running thread and grant its
     *  lease. */
    void dispatch(unsigned tid, Cycles now);

    /** Remove the queue minimum and dispatch it. @return its tid. */
    unsigned dispatchMin();

    /** Switch from the current fiber to thread @p tid's. */
    void switchTo(unsigned tid);

    /** Put @p tid on the run queue at @p time (fresh order stamp). */
    void enqueue(unsigned tid, Cycles time);

    /** Queue @p tid, key already set: in the lane if laneTakes() it,
     *  otherwise in the heap. */
    void insert(unsigned tid);

    /** Whether queued thread @p tid (key already set) may join the
     *  lane: only a parked thread, and only at or after the tail's
     *  time, which keeps the lane sorted. */
    bool
    laneTakes(unsigned tid) const
    {
        return slots_[tid].parked &&
               (laneHead_ == kNone ||
                slots_[laneTail_].time <= slots_[tid].time);
    }

    /** Remove and @return the queue minimum: the lane head or the
     *  heap root, whichever precedes. */
    unsigned popMin();

    /** Fill the root hole with @p tid (key already set) and restore
     *  heap order. */
    void siftDownFromRoot(unsigned tid);

    /** Reserve this run's contiguous pool slot range; under the eager
     *  policy also commit and attach every fiber's stack now. */
    void provisionStacks();

    /** Commit slot rangeBase_ + tid and attach it — the pooled path's
     *  lazy fiber activation, called at first dispatch. */
    void ensureStack(unsigned tid);

    std::uint64_t seed_;
    SchedulePerturber* perturber_ = nullptr;
    std::uint64_t orderCounter_ = 0;
    bool batching_ = true;
    Cycles epochCycles_ = defaultEpochCycles;
    StackPolicy stackPolicy_ = defaultStackPolicy_;
    unsigned rangeBase_ = kNone;
    std::size_t stackBytes_ = Fiber::defaultStackBytes;
    std::vector<std::unique_ptr<Thread>> threads_;
    std::vector<SlotRec> slots_;
    /**
     * The run queue holds every runnable thread except the running
     * one, split in two. queue_ is a binary min-heap of tids by slot
     * (time, order). The poller lane is a FIFO of queued parked
     * threads linked through SlotRec::pos, sorted by (time, order)
     * because a thread joins only at or after the tail's time (its
     * fresh stamp orders it last). A re-queued poller's key is almost
     * always the largest queued, so the lane spares it a sift to a
     * heap leaf.
     */
    std::vector<unsigned> queue_;
    unsigned laneHead_ = kNone;
    unsigned laneTail_ = kNone;
    unsigned runningTid_ = 0;
    bool running_ = false;

    static inline StackPolicy defaultStackPolicy_ = StackPolicy::pooled;
};

inline void
ThreadContext::sync()
{
    // Inside the dispatch lease no other runnable thread can be
    // strictly behind this clock, so the point cannot switch threads
    // (and no perturber is registered — leases are 0 then).
    if (now_ < scheduler_->slots_[id_].leaseEnd) [[likely]]
        return;
    syncSlow();
}

} // namespace htmsim::sim

#endif // HTMSIM_SIM_SCHEDULER_HH
