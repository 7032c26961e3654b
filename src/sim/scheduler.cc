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
ThreadContext::block()
{
    Scheduler& s = *scheduler_;
    s.threads_[id_]->state = Scheduler::State::blocked;
    if (s.queue_.empty()) {
        // Nothing runnable: return to the owner loop, which declares
        // deadlock (or finishes the run if everyone is done).
        Fiber::yieldToOwner();
        return;
    }
    const unsigned next = s.dispatchRoot();
    Fiber::switchTo(*s.threads_[next]->fiber);
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
    slots_.push_back(SlotRec{never, 0, 0, kNone});
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
    while (!queue_.empty()) {
        const unsigned next = dispatchRoot();
        threads_[next]->fiber->resume();
        // Control is back at the owner: the fiber that ran last (not
        // necessarily `next` — threads switch among themselves)
        // finished, or blocked with nothing left runnable.
        Thread& last = *threads_[runningTid_];
        if (last.fiber->finished()) {
            last.fiber->rethrowPending();
            last.state = State::finished;
            last.finishTime = last.context.now();
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
    for (const auto& thread : threads_)
        result = std::max(result, thread->finishTime);
    return result;
}

Cycles
Scheduler::finishTime(unsigned tid) const
{
    return threads_[tid]->finishTime;
}

Cycles
Scheduler::totalThreadTime() const
{
    Cycles result = 0;
    for (const auto& thread : threads_)
        result += thread->finishTime;
    return result;
}

void
Scheduler::reschedule(ThreadContext& self, bool yield_ties)
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
        return;
    }
    // Switch to the root: self takes its place in one sift-down. Self's
    // fresh stamp loses every tie, and the new root — the smallest key
    // among the threads the dispatched one leaves behind — bounds its
    // lease.
    const unsigned next = queue_[0];
    slots_[next].pos = kNone;
    SlotRec& slot = slots_[self.id_];
    slot.time = now;
    slot.order = orderCounter_++;
    siftDownFromRoot(self.id_);
    dispatch(next, slots_[next].time);
    Fiber::switchTo(*threads_[next]->fiber);
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
    ensureStack(tid);
}

unsigned
Scheduler::dispatchRoot()
{
    const unsigned root = queue_[0];
    slots_[root].pos = kNone;
    const unsigned last = queue_.back();
    queue_.pop_back();
    if (!queue_.empty())
        siftDownFromRoot(last);
    dispatch(root, slots_[root].time);
    return root;
}

void
Scheduler::enqueue(unsigned tid, Cycles time)
{
    SlotRec& slot = slots_[tid];
    assert(slot.pos == kNone && "enqueue() of an already-queued thread");
    slot.time = time;
    slot.order = orderCounter_++;
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
