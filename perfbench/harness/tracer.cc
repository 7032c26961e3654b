#include "tracer.hh"

#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace perfbench::trace
{

namespace detail
{
bool enabled = false;
} // namespace detail

namespace
{

using Clock = std::chrono::steady_clock;

std::uint64_t
ticks()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return std::uint64_t(Clock::now().time_since_epoch().count());
#endif
}

enum FrameKind : std::uint8_t
{
    fWorker,
    fSeqWorker,
    fSection,
    fBody,
    fAccess,
    // Host main stack.
    mPass,
    mSetup,
    mBuild,
    mVerify,
    mSched,
    mServer,
    mCheck,
};

enum Phase : std::uint8_t
{
    pWait,     ///< atomic() entered, no attempt begun yet
    pBegin,    ///< attempt begun, body not yet entered
    pCommit,   ///< body returned, commit in progress
    pAbort,    ///< attempt aborted; retrying or waiting
    pFallback, ///< global-lock path
    pTail,     ///< committed; returning from atomic()
};

struct Frame
{
    FrameKind kind = fWorker;
    Phase phase = pWait;
    /** Section opened by an observer event (no atomic() boundary
     *  visible); it closes at its commit. */
    bool implicit = false;
    /** The current attempt's body was seen. */
    bool sawBody = false;
    /** Ticks of the current phase, not yet assigned a bucket. */
    std::uint64_t pending = 0;
    /** Section self ticks (htm phases only, children excluded). */
    std::uint64_t self = 0;
    /** Enter tick of a runDifferential span. */
    std::uint64_t enteredAt = 0;
};

constexpr unsigned kDepth = 16;
constexpr unsigned kFibers = kMain + 1;

struct FiberState
{
    Frame stack[kDepth];
    unsigned depth = 0;

    Frame* top() { return depth == 0 ? nullptr : &stack[depth - 1]; }
};

/** Samples kept for percentiles: section self times and per-call
 *  runDifferential durations, in ticks. */
constexpr std::size_t kSectionSamples = std::size_t(32) << 20;
constexpr std::size_t kCheckSamples = std::size_t(1) << 20;
constexpr std::size_t kRegionBytes =
    (kSectionSamples + kCheckSamples) * sizeof(std::uint64_t);

std::uint64_t* sectionSamples = nullptr;
std::uint64_t* checkSamples = nullptr;

// Everything below is static storage (.bss): never on the heap.
FiberState fibers[kFibers];
std::uint64_t bucketTicks[kBuckets];
std::uint64_t attributedSimTicks = 0;
std::uint64_t nSwitches = 0, nSections = 0, nAccesses = 0,
              nAttempts = 0, nCommits = 0, nAborts = 0, nFallbacks = 0,
              nCheckRuns = 0, nSectionSamples = 0, nDroppedSamples = 0,
              nStackOverflows = 0;
std::uint64_t lastTick = 0;
unsigned lastFiber = kMain;
unsigned simSpansOpen = 0;
Bucket fiberDefault = simHarness;
std::uint64_t beginTick = 0;
Clock::time_point beginTime;

Bucket
phaseBucket(Phase phase)
{
    switch (phase) {
    case pWait:
    case pBegin: return htmBegin;
    case pCommit: return htmCommit;
    case pAbort: return htmAbort;
    case pFallback: return htmFallback;
    case pTail: return htmTail;
    }
    return htmTail;
}

Bucket
frameBucket(const Frame& frame)
{
    switch (frame.kind) {
    case fWorker: return workloadNonTx;
    case fSeqWorker: return workloadSeq;
    case fBody: return workloadBody;
    case fAccess: return htmAccess;
    case mPass: return benchSelf;
    case mSetup: return workloadSetup;
    case mBuild: return simSetup;
    case mVerify: return workloadVerify;
    case mSched: return simHarness;
    case mServer: return serverInternal;
    case mCheck: return checkInternal;
    case fSection: return phaseBucket(frame.phase);
    }
    return benchSelf;
}

void
addTicks(Bucket bucket, std::uint64_t delta)
{
    bucketTicks[bucket] += delta;
    if (simSpansOpen != 0)
        attributedSimTicks += delta;
}

/** Charge @p delta to the innermost open span of @p fiber. Section
 *  time is held as pending until its phase ends. */
void
charge(unsigned fiber, std::uint64_t delta)
{
    Frame* top = fibers[fiber].top();
    if (top == nullptr) {
        addTicks(fiber == kMain ? benchSelf : fiberDefault, delta);
        return;
    }
    if (top->kind == fSection) {
        top->pending += delta;
        if (simSpansOpen != 0)
            attributedSimTicks += delta;
        return;
    }
    addTicks(frameBucket(*top), delta);
}

/** Assign a section's pending ticks to @p bucket. */
void
flush(Frame& section, Bucket bucket)
{
    bucketTicks[bucket] += section.pending;
    section.self += section.pending;
    section.pending = 0;
}

/** Flush at the end of an attempt: a begin phase whose body was never
 *  seen is opaque in-attempt time. */
void
flushAttempt(Frame& section)
{
    flush(section, section.phase == pBegin && !section.sawBody
                       ? htmAttempt
                       : phaseBucket(section.phase));
}

bool
waiting(unsigned fiber)
{
    const Frame* top = fibers[fiber].top();
    return top != nullptr && top->kind == fSection &&
           (top->phase == pWait || top->phase == pAbort);
}

Frame*
push(unsigned fiber, FrameKind kind)
{
    FiberState& state = fibers[fiber];
    if (state.depth == kDepth) {
        ++nStackOverflows;
        return nullptr;
    }
    Frame& frame = state.stack[state.depth++];
    frame = Frame{};
    frame.kind = kind;
    return &frame;
}

void
closeSection(Frame& section)
{
    flushAttempt(section);
    ++nSections;
    if (nSectionSamples < kSectionSamples)
        sectionSamples[nSectionSamples++] = section.self;
    else
        ++nDroppedSamples;
}

/** Pop frames down to and including the innermost of @p kind. */
void
popThrough(unsigned fiber, FrameKind kind)
{
    FiberState& state = fibers[fiber];
    while (state.depth > 0) {
        Frame& frame = state.stack[--state.depth];
        if (frame.kind == fSection)
            closeSection(frame);
        if (frame.kind == kind)
            return;
    }
}

/** @p fiber's innermost open section, dropping stray access/body
 *  frames above it; nullptr when another span kind comes first. */
Frame*
sectionTop(unsigned fiber)
{
    FiberState& state = fibers[fiber];
    for (unsigned depth = state.depth; depth > 0; --depth) {
        Frame& frame = state.stack[depth - 1];
        if (frame.kind == fSection) {
            state.depth = depth;
            return &frame;
        }
        if (frame.kind != fAccess && frame.kind != fBody)
            return nullptr;
    }
    return nullptr;
}

/** The section an observer event belongs to, opening an implicit one
 *  (in @p phase) when no section is open on the fiber. */
Frame&
eventSection(unsigned fiber, Phase phase, bool& opened)
{
    Frame* top = fibers[fiber].top();
    opened = false;
    if (top != nullptr && top->kind == fSection)
        return *top;
    Frame* frame = push(fiber, fSection);
    static Frame scratch;
    if (frame == nullptr)
        return scratch;
    frame->implicit = true;
    frame->phase = phase;
    opened = true;
    return *frame;
}

/** Assign every open section's pending ticks to its phase bucket and
 *  drop all simulated-thread frames (a new simulation starts). */
void
resetFibers()
{
    for (unsigned fiber = 0; fiber < kMain; ++fiber) {
        FiberState& state = fibers[fiber];
        for (unsigned depth = 0; depth < state.depth; ++depth) {
            if (state.stack[depth].kind == fSection)
                flushAttempt(state.stack[depth]);
        }
        state.depth = 0;
    }
}

void
enterSimSpan(FrameKind kind, Bucket fiber_default)
{
    resetFibers();
    fiberDefault = fiber_default;
    Frame* frame = push(kMain, kind);
    if (frame != nullptr)
        frame->enteredAt = lastTick;
    ++simSpansOpen;
}

void
exitSimSpan(FrameKind kind)
{
    FiberState& main = fibers[kMain];
    Frame* top = main.top();
    if (top == nullptr || top->kind != kind)
        return;
    if (kind == mCheck) {
        ++nCheckRuns;
        if (nCheckRuns <= kCheckSamples)
            checkSamples[nCheckRuns - 1] = lastTick - top->enteredAt;
    }
    --main.depth;
    --simSpansOpen;
}

void
mainEvent(Ev ev)
{
    switch (ev) {
    case Ev::passEnter: push(kMain, mPass); break;
    case Ev::setupEnter: push(kMain, mSetup); break;
    case Ev::buildEnter: push(kMain, mBuild); break;
    case Ev::verifyEnter: push(kMain, mVerify); break;
    case Ev::passExit: popThrough(kMain, mPass); break;
    case Ev::setupExit: popThrough(kMain, mSetup); break;
    case Ev::buildExit: popThrough(kMain, mBuild); break;
    case Ev::verifyExit: popThrough(kMain, mVerify); break;
    case Ev::schedEnter: enterSimSpan(mSched, simHarness); break;
    case Ev::serverEnter: enterSimSpan(mServer, workloadNonTx); break;
    case Ev::checkEnter: enterSimSpan(mCheck, checkInternal); break;
    case Ev::schedExit: exitSimSpan(mSched); break;
    case Ev::serverExit: exitSimSpan(mServer); break;
    case Ev::checkExit: exitSimSpan(mCheck); break;
    default: break;
    }
}

void
fiberEvent(Ev ev, unsigned fiber)
{
    bool opened = false;
    switch (ev) {
    case Ev::workerEnter: push(fiber, fWorker); break;
    case Ev::seqWorkerEnter: push(fiber, fSeqWorker); break;
    case Ev::workerExit:
        if (fibers[fiber].depth > 0)
            popThrough(fiber, fibers[fiber].stack[0].kind);
        break;
    case Ev::sectionEnter: push(fiber, fSection); break;
    case Ev::sectionExit: popThrough(fiber, fSection); break;
    case Ev::bodyEnter: {
        Frame* top = fibers[fiber].top();
        if (top != nullptr && top->kind == fSection) {
            flush(*top, phaseBucket(top->phase));
            top->sawBody = true;
        }
        push(fiber, fBody);
        break;
    }
    case Ev::bodyExit:
    case Ev::bodyUnwind: {
        FiberState& state = fibers[fiber];
        while (state.depth > 0 &&
               state.stack[state.depth - 1].kind == fAccess)
            --state.depth;
        if (state.depth > 0 &&
            state.stack[state.depth - 1].kind == fBody)
            --state.depth;
        Frame* top = state.top();
        if (top != nullptr && top->kind == fSection &&
            top->phase != pFallback)
            top->phase = ev == Ev::bodyUnwind ? pAbort : pCommit;
        break;
    }
    case Ev::accessEnter:
        ++nAccesses;
        push(fiber, fAccess);
        break;
    case Ev::accessExit:
    case Ev::accessUnwind: {
        Frame* top = fibers[fiber].top();
        if (top != nullptr && top->kind == fAccess)
            --fibers[fiber].depth;
        break;
    }
    case Ev::txBegin: {
        ++nAttempts;
        Frame& section = eventSection(fiber, pBegin, opened);
        if (!opened)
            flush(section, phaseBucket(section.phase));
        section.phase = pBegin;
        section.sawBody = false;
        break;
    }
    case Ev::txLockAcquired: {
        ++nAttempts;
        ++nFallbacks;
        Frame& section = eventSection(fiber, pFallback, opened);
        if (!opened)
            flush(section, phaseBucket(section.phase));
        section.phase = pFallback;
        break;
    }
    case Ev::txAbort: {
        ++nAborts;
        Frame* section = sectionTop(fiber);
        if (section == nullptr) {
            eventSection(fiber, pAbort, opened);
            break;
        }
        flushAttempt(*section);
        section->phase = pAbort;
        break;
    }
    case Ev::txCommit:
    case Ev::txLockReleased:
    case Ev::txNonSpecCommit: {
        if (ev == Ev::txCommit)
            ++nCommits;
        if (ev == Ev::txNonSpecCommit) {
            ++nCommits;
            ++nAttempts;
        }
        Frame* section = sectionTop(fiber);
        if (section == nullptr)
            break;
        flushAttempt(*section);
        if (section->implicit)
            popThrough(fiber, fSection);
        else
            section->phase = pTail;
        break;
    }
    case Ev::txFallbackCommit: ++nCommits; break;
    default: break;
    }
}

double
percentile(std::uint64_t* samples, std::size_t count, double p)
{
    if (count == 0)
        return 0.0;
    std::size_t rank = std::size_t(p * double(count));
    if (rank >= count)
        rank = count - 1;
    std::nth_element(samples, samples + rank, samples + count);
    return double(samples[rank]);
}

} // namespace

const char*
bucketName(unsigned bucket)
{
    static const char* const names[kBuckets] = {
        "sim.switch",       "sim.poll",         "sim.harness",
        "sim.setup",        "htm.begin",        "htm.attempt",
        "htm.commit",       "htm.abort",        "htm.fallback",
        "htm.tail",         "htm.access",       "workload.body",
        "workload.nontx",   "workload.seq",     "workload.setup",
        "workload.verify",  "server.internal",  "check.internal",
        "bench.self",
    };
    return bucket < kBuckets ? names[bucket] : "?";
}

void
reserveStorage()
{
    // Address space only (MAP_NORESERVE): an untraced run maps the
    // same region and never touches it, so both modes see one memory
    // map and one heap.
    void* region = mmap(nullptr, kRegionBytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1,
                        0);
    if (region == MAP_FAILED) {
        std::perror("perfbench: trace storage mmap");
        std::exit(3);
    }
    sectionSamples = static_cast<std::uint64_t*>(region);
    checkSamples = sectionSamples + kSectionSamples;
}

void
setEnabled(bool enabled)
{
    detail::enabled = enabled;
}

void
begin()
{
    for (FiberState& state : fibers)
        state.depth = 0;
    std::fill(std::begin(bucketTicks), std::end(bucketTicks), 0);
    attributedSimTicks = 0;
    nSwitches = nSections = nAccesses = nAttempts = nCommits = 0;
    nAborts = nFallbacks = nCheckRuns = nSectionSamples = 0;
    nDroppedSamples = nStackOverflows = 0;
    simSpansOpen = 0;
    fiberDefault = simHarness;
    lastFiber = kMain;
    beginTime = Clock::now();
    beginTick = lastTick = ticks();
}

Breakdown
end()
{
    const std::uint64_t end_tick = ticks();
    const double elapsed_ns = double(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - beginTime)
            .count());
    charge(lastFiber, end_tick - lastTick);
    lastTick = end_tick;
    resetFibers();
    const double ns_per_tick =
        end_tick == beginTick ? 0.0
                              : elapsed_ns / double(end_tick - beginTick);

    Breakdown out;
    for (unsigned bucket = 0; bucket < kBuckets; ++bucket)
        out.bucketNs[bucket] = double(bucketTicks[bucket]) * ns_per_tick;
    out.attributedSimNs = double(attributedSimTicks) * ns_per_tick;
    out.switches = nSwitches;
    out.sections = nSections;
    out.accesses = nAccesses;
    out.attempts = nAttempts;
    out.commits = nCommits;
    out.aborts = nAborts;
    out.fallbacks = nFallbacks;
    out.checkRuns = nCheckRuns;
    out.stackOverflows = nStackOverflows;
    out.sectionSelfP50Ns =
        percentile(sectionSamples, nSectionSamples, 0.50) * ns_per_tick;
    out.sectionSelfP99Ns =
        percentile(sectionSamples, nSectionSamples, 0.99) * ns_per_tick;
    const std::size_t check_count =
        std::min<std::uint64_t>(nCheckRuns, kCheckSamples);
    out.checkRunP50Ns =
        percentile(checkSamples, check_count, 0.50) * ns_per_tick;
    out.checkRunP99Ns =
        percentile(checkSamples, check_count, 0.99) * ns_per_tick;
    if (nDroppedSamples != 0 || nStackOverflows != 0) {
        std::fprintf(stderr,
                     "perfbench: trace dropped %llu section samples, "
                     "%llu span-stack overflows\n",
                     (unsigned long long)nDroppedSamples,
                     (unsigned long long)nStackOverflows);
    }
    return out;
}

namespace detail
{

void
record(Ev ev, unsigned fiber)
{
    if (fiber > kMain)
        return;
    const std::uint64_t now = ticks();
    const std::uint64_t delta = now - lastTick;
    lastTick = now;
    if (fiber == lastFiber &&
        (ev == Ev::accessUnwind || ev == Ev::bodyUnwind)) {
        // Throwing and unwinding an abort is abort-path cost, not the
        // access's or the body's.
        addTicks(htmAbort, delta);
    } else if (fiber == lastFiber) {
        charge(fiber, delta);
    } else if (fiber == kMain || lastFiber == kMain) {
        charge(kMain, delta);
    } else {
        ++nSwitches;
        addTicks(waiting(lastFiber) ? simPoll : simSwitch, delta);
    }
    lastFiber = fiber;
    if (fiber == kMain)
        mainEvent(ev);
    else
        fiberEvent(ev, fiber);
}

} // namespace detail

} // namespace perfbench::trace
