#include "scheduler.hh"

#include <algorithm>
#include <cassert>

namespace htmsim::sim
{

namespace
{
/// leaseEnd is exclusive: a point at now == min_other must not yield
/// (the peer is not *strictly* behind), so the lease extends to
/// min_other + 1, saturating at the top of the cycle range.
Cycles
leaseBound(Cycles bound)
{
    return bound == ~Cycles(0) ? bound : bound + 1;
}
} // namespace

void
ThreadContext::syncSlow()
{
    scheduler_->reschedule(*this, false);
}

void
ThreadContext::yieldNow()
{
    scheduler_->reschedule(*this, true);
}

void
ThreadContext::park(SpinWait& wait)
{
    scheduler_->threads_[id_]->wait = &wait;
    scheduler_->slots_[id_].parked = true;
}

void
ThreadContext::block()
{
    Scheduler& s = *scheduler_;
    s.threads_[id_]->state = Scheduler::State::blocked;
    if (s.queueEmpty()) {
        // Nothing runnable: return to the owner loop, which declares
        // deadlock (or finishes the run if everyone is done).
        Fiber::yieldToOwner();
        return;
    }
    s.switchTo(s.probeParked(s.dispatchMin()));
}

Scheduler::Scheduler(std::uint64_t seed) : seed_(seed) {}

Scheduler::~Scheduler()
{
    // Fibers first (their stacks must not outlive the slots), then the
    // whole slot range back to the pool — including slots still
    // committed when a run ended early (deadlock) or eagerly.
    threads_.clear();
    if (rangeBase_ != kNone)
        StackPool::instance().releaseRange(rangeBase_,
                                           unsigned(slots_.size()));
}

unsigned
Scheduler::spawn(std::function<void(ThreadContext&)> body)
{
    assert(!running_ && "spawn() during run() is not supported");
    assert(rangeBase_ == kNone && "spawn() after run() started");
    const unsigned tid = unsigned(threads_.size());
    auto thread = std::make_unique<Thread>();
    thread->context.scheduler_ = this;
    thread->context.id_ = tid;
    thread->context.rng_ = Rng(seed_, tid);
    ThreadContext* context = &thread->context;
    auto wrapped = [body = std::move(body), context] { body(*context); };
    // Deferred stack: the Fiber object exists from spawn (the heap
    // allocation sequence is identical under every stack policy), but
    // the stack slot is committed per the policy — up front or at
    // first dispatch.
    thread->fiber =
        std::make_unique<Fiber>(Fiber::DeferStack{}, std::move(wrapped));
    threads_.push_back(std::move(thread));
    slots_.push_back(SlotRec{never, 0, 0, kNone, false});
    enqueue(tid, 0);
    return tid;
}

void
Scheduler::provisionStacks()
{
    if (rangeBase_ != kNone || threads_.empty())
        return;
    rangeBase_ =
        StackPool::instance().reserveRange(unsigned(threads_.size()));
    if (stackPolicy_ == StackPolicy::eager) {
        for (unsigned tid = 0; tid < unsigned(threads_.size()); ++tid)
            ensureStack(tid);
    }
}

void
Scheduler::ensureStack(unsigned tid)
{
    Fiber& fiber = *threads_[tid]->fiber;
    if (fiber.hasStack()) [[likely]]
        return;
    fiber.attachStack(
        StackPool::instance().commit(rangeBase_ + tid, stackBytes_));
}

void
Scheduler::run()
{
    provisionStacks();
    running_ = true;
    while (!queueEmpty()) {
        const unsigned next = probeParked(dispatchMin());
        ensureStack(next);
        threads_[next]->fiber->resume();
        // Control is back at the owner: the fiber that ran last (not
        // necessarily `next` — threads switch among themselves)
        // finished, or blocked with nothing left runnable.
        Thread& last = *threads_[runningTid_];
        if (last.fiber->finished()) {
            last.fiber->rethrowPending();
            last.state = State::finished;
            // Pooled stacks go back to the kernel as soon as their
            // fiber is done — peak residency tracks *live* fibers.
            if (stackPolicy_ == StackPolicy::pooled)
                StackPool::instance().decommit(rangeBase_ + runningTid_);
        }
    }
    running_ = false;
    for (const auto& thread : threads_) {
        if (thread->state != State::finished) {
            throw SimError("simulation deadlock: thread " +
                           std::to_string(thread->context.id()) +
                           " blocked forever");
        }
    }
}

void
Scheduler::wake(unsigned tid, Cycles at_least)
{
    Thread& thread = *threads_[tid];
    if (thread.state != State::blocked)
        return;
    thread.context.now_ = std::max(thread.context.now_, at_least);
    thread.state = State::runnable;
    enqueue(tid, thread.context.now_);
    // The waker's lease no longer covers the woken thread's clock.
    if (running_) {
        SlotRec& self = slots_[runningTid_];
        self.leaseEnd =
            std::min(self.leaseEnd, leaseBound(slots_[tid].time));
    }
}

Cycles
Scheduler::makespan() const
{
    Cycles result = 0;
    for (unsigned tid = 0; tid < numThreads(); ++tid)
        result = std::max(result, finishTime(tid));
    return result;
}

Cycles
Scheduler::finishTime(unsigned tid) const
{
    // Nothing advances a finished thread's clock.
    const Thread& thread = *threads_[tid];
    return thread.state == State::finished ? thread.context.now_ : 0;
}

Cycles
Scheduler::totalThreadTime() const
{
    Cycles result = 0;
    for (unsigned tid = 0; tid < numThreads(); ++tid)
        result += finishTime(tid);
    return result;
}

// Inlined into both callers: in reschedule() it is the ordinary
// switch path of every sync() and yieldNow(), which a call frame of
// its own measurably slows.
[[gnu::always_inline]] inline unsigned
Scheduler::schedulingPoint(ThreadContext& self, bool yield_ties)
{
    if (perturber_ != nullptr) {
        // Preemption point: a registered perturber may push this
        // thread's clock forward, letting another thread's events
        // overtake. Exactly one draw per scheduling point (schedule
        // format v2).
        self.now_ += perturber_->preemptDelay(self.id_, self.now_);
    }
    const Cycles now = self.now_;
    const Cycles head = minQueuedTime();
    if (head > now || (head == now && !yield_ties)) {
        // No-op scheduling point (nobody is strictly behind; `never`
        // when nobody is runnable at all): renew the lease. Other
        // threads cannot have moved since dispatch, but the lease is
        // also bounded by the epoch budget, which may have expired.
        grantLease(self.id_, now);
        return self.id_;
    }
    // Hand over to the queue minimum, which precedes self's fresh
    // stamp, and queue self in its place — when both belong to the
    // heap, in one sift-down from the root. The new minimum — the
    // smallest key among the threads the dispatched one leaves behind
    // — bounds its lease.
    SlotRec& slot = slots_[self.id_];
    slot.time = now;
    slot.order = orderCounter_++;
    unsigned next;
    if (laneLeads() || laneTakes(self.id_)) {
        next = popMin();
        insert(self.id_);
    } else {
        next = queue_[0];
        slots_[next].pos = kNone;
        siftDownFromRoot(self.id_);
    }
    dispatch(next, slots_[next].time);
    return next;
}

void
Scheduler::reschedule(ThreadContext& self, bool yield_ties)
{
    unsigned next = schedulingPoint(self, yield_ties);
    if (slots_[next].parked)
        next = probeParked(next);
    if (next != self.id_)
        switchTo(next);
}

unsigned
Scheduler::probeParked(unsigned tid)
{
    // Step for step what the parked fiber's spinUntil() loop would do
    // once switched to, so the schedule, perturber draws and leases
    // are those of switching to it; only the fiber switch is saved.
    while (slots_[tid].parked) {
        Thread& poller = *threads_[tid];
        ThreadContext::SpinWait& wait = *poller.wait;
        if (++wait.probes > ThreadContext::spinProbeLimit ||
            wait.test(wait.pred)) {
            slots_[tid].parked = false;
            break;
        }
        poller.context.advance(wait.poll);
        tid = schedulingPoint(poller.context, true);
    }
    return tid;
}

void
Scheduler::grantLease(unsigned tid, Cycles now)
{
    // The smallest other runnable clock cannot move while this thread
    // runs (wake() shrinks the lease itself), so every point before it
    // is a no-op. A perturber must see every point: no lease then.
    slots_[tid].leaseEnd =
        batching_ && perturber_ == nullptr
            ? leaseBound(std::min(minQueuedTime(), now + epochCycles_))
            : 0;
}

void
Scheduler::dispatch(unsigned tid, Cycles now)
{
    runningTid_ = tid;
    grantLease(tid, now);
}

unsigned
Scheduler::dispatchMin()
{
    const unsigned next = popMin();
    dispatch(next, slots_[next].time);
    return next;
}

void
Scheduler::switchTo(unsigned tid)
{
    ensureStack(tid);
    Fiber::switchTo(*threads_[tid]->fiber);
}

void
Scheduler::enqueue(unsigned tid, Cycles time)
{
    SlotRec& slot = slots_[tid];
    slot.time = time;
    slot.order = orderCounter_++;
    insert(tid);
}

void
Scheduler::insert(unsigned tid)
{
    SlotRec& slot = slots_[tid];
    assert(slot.pos == kNone && "enqueue() of an already-queued thread");
    if (laneTakes(tid)) {
        slot.pos = kLaneEnd;
        if (laneHead_ == kNone)
            laneHead_ = tid;
        else
            slots_[laneTail_].pos = tid;
        laneTail_ = tid;
        return;
    }
    const Cycles time = slot.time;
    // The fresh stamp loses every tie: climb past strictly later
    // parents only.
    auto hole = unsigned(queue_.size());
    queue_.push_back(tid);
    while (hole > 0) {
        const unsigned parent = (hole - 1) / 2;
        const unsigned above = queue_[parent];
        if (slots_[above].time <= time)
            break;
        queue_[hole] = above;
        slots_[above].pos = hole;
        hole = parent;
    }
    queue_[hole] = tid;
    slot.pos = hole;
}

unsigned
Scheduler::popMin()
{
    if (laneLeads()) {
        const unsigned head = laneHead_;
        SlotRec& slot = slots_[head];
        laneHead_ = slot.pos == kLaneEnd ? kNone : slot.pos;
        slot.pos = kNone;
        return head;
    }
    const unsigned root = queue_[0];
    slots_[root].pos = kNone;
    const unsigned last = queue_.back();
    queue_.pop_back();
    if (!queue_.empty())
        siftDownFromRoot(last);
    return root;
}

void
Scheduler::siftDownFromRoot(unsigned tid)
{
    // The key is read once: the pos stores below alias slots_.
    const Cycles time = slots_[tid].time;
    const std::uint64_t order = slots_[tid].order;
    const auto size = unsigned(queue_.size());
    unsigned hole = 0;
    for (;;) {
        unsigned child = 2 * hole + 1;
        if (child >= size)
            break;
        if (child + 1 < size && before(queue_[child + 1], queue_[child]))
            ++child;
        const unsigned below = queue_[child];
        const SlotRec& next = slots_[below];
        if (next.time > time || (next.time == time && next.order > order))
            break;
        queue_[hole] = below;
        slots_[below].pos = hole;
        hole = child;
    }
    queue_[hole] = tid;
    slots_[tid].pos = hole;
}

} // namespace htmsim::sim
