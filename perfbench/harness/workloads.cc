#include "workloads.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>

#include "check/oracle.hh"
#include "check/workload.hh"
#include "htm/observer.hh"
#include "server/server.hh"
#include "suite.hh"
#include "tracer.hh"

namespace perfbench
{

namespace
{

using namespace htmsim;
using trace::Ev;
using trace::Span;
using Clock = std::chrono::steady_clock;

// ---- Workload sizes ---------------------------------------------------

/** Simulated threads of every STAMP cell (the paper's Fig. 2). */
constexpr unsigned kStampThreads = 4;
/** Requests per client: read-mostly at 64 clients, saturated at 256. */
constexpr unsigned kReadMostlyClients = 64;
constexpr unsigned kReadMostlyOps = 256;
constexpr unsigned kSaturatedClients = 256;
constexpr unsigned kSaturatedOps = 64;
/** Oracle seeds per (check workload, machine) in one pass. */
constexpr unsigned kOracleSeeds = 16;

/** Paper Fig. 2 chart readings (4 threads, modified STAMP), in
 *  bench::suiteNames() order, machines BG/Q, zEC12, Intel, POWER8. */
constexpr double kPaperFig2[10][4] = {
    {2.4, 1.5, 0.8, 2.9},  // bayes (excluded from averages)
    {2.2, 3.5, 3.0, 2.4},  // genome
    {1.3, 3.2, 2.7, 1.8},  // intruder
    {2.3, 3.6, 3.5, 4.4},  // kmeans-high
    {2.5, 5.5, 3.7, 4.5},  // kmeans-low
    {1.1, 0.8, 1.0, 0.9},  // labyrinth
    {1.6, 2.1, 1.5, 2.0},  // ssca2
    {1.6, 3.3, 2.7, 1.4},  // vacation-high
    {1.7, 3.5, 3.0, 1.7},  // vacation-low
    {1.4, 0.8, 1.0, 0.75}, // yada
};

double
nsSince(Clock::time_point start)
{
    return double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - start)
                      .count());
}

// ---- Digest of simulated results ---------------------------------------

void
fold(std::uint64_t& digest, std::uint64_t value)
{
    digest = check::foldHash(digest, value);
}

/** Fold every word of a padding-free aggregate of uint64 counters. */
template <typename T>
void
foldWords(std::uint64_t& digest, const T& value)
{
    static_assert(std::has_unique_object_representations_v<T> &&
                  sizeof(T) % sizeof(std::uint64_t) == 0);
    std::uint64_t words[sizeof(T) / sizeof(std::uint64_t)];
    std::memcpy(words, &value, sizeof(T));
    for (const std::uint64_t word : words)
        fold(digest, word);
}

/** Model totals accumulated over a pass's transactional runs. */
struct ModelAccum
{
    std::uint64_t attempts = 0;
    std::uint64_t aborts = 0;
    std::uint64_t committedCycles = 0;
    std::uint64_t wastedCycles = 0;
    std::uint64_t txAccesses = 0;
    std::uint64_t lockWaitCycles = 0;

    void
    add(const htm::TxStats& stats)
    {
        aborts += stats.totalAborts();
        attempts += stats.totalAborts() + stats.htmCommits +
                    stats.constrainedCommits + stats.stmCommits;
        committedCycles += stats.committedTxCycles +
                           stats.committedStmCycles;
        wastedCycles += stats.wastedTxCycles + stats.wastedStmCycles;
        txAccesses += stats.txLoads + stats.txStores;
        lockWaitCycles += stats.lockWaitCycles;
    }

    void
    store(ModelStats& model) const
    {
        model.abortRatio =
            attempts == 0 ? 0.0 : double(aborts) / double(attempts);
        const std::uint64_t work = committedCycles + wastedCycles;
        model.wastedWorkRatio =
            work == 0 ? 0.0 : double(wastedCycles) / double(work);
        model.txAccesses = txAccesses;
        model.aborts = aborts;
        model.lockWaitCycles = lockWaitCycles;
    }
};

// ---- Lifecycle events -------------------------------------------------

Ev
eventOf(htm::TxEventKind kind)
{
    switch (kind) {
    case htm::TxEventKind::begin: return Ev::txBegin;
    case htm::TxEventKind::commit: return Ev::txCommit;
    case htm::TxEventKind::abort: return Ev::txAbort;
    case htm::TxEventKind::lockAcquired: return Ev::txLockAcquired;
    case htm::TxEventKind::lockReleased: return Ev::txLockReleased;
    case htm::TxEventKind::fallbackCommit: return Ev::txFallbackCommit;
    case htm::TxEventKind::nonSpecCommit: return Ev::txNonSpecCommit;
    }
    return Ev::txCommit;
}

/**
 * Time-stamps lifecycle events for the tracer and forwards them to
 * the observer it displaced (the oracle's event ring), so the oracle
 * sees exactly the stream it would see alone. It also notes when a
 * run's first event arrives: for runServer that closes the set-up
 * phase. KV and oracle runs attach it in both modes; STAMP runs only
 * when tracing.
 */
class EventTap final : public htm::TxObserver
{
  public:
    void
    onEvent(const htm::TxEvent& event) override
    {
        if (!sawEvent_) {
            sawEvent_ = true;
            firstEvent_ = Clock::now();
        }
        trace::event(eventOf(event.kind), event.tid);
        switch (event.kind) {
        case htm::TxEventKind::begin: ++attempts_; break;
        case htm::TxEventKind::abort: ++aborts_; break;
        case htm::TxEventKind::lockAcquired:
            lockWaitCycles_ += event.cycles - event.sectionStart;
            break;
        case htm::TxEventKind::commit:
        case htm::TxEventKind::fallbackCommit:
        case htm::TxEventKind::nonSpecCommit:
            if (commitLatency_ != nullptr)
                commitLatency_->record(event.cycles - event.sectionStart);
            break;
        default: break;
        }
        if (next_ != nullptr)
            next_->onEvent(event);
    }

    void
    onConflict(const htm::TxConflictEvent& event) override
    {
        if (next_ != nullptr)
            next_->onConflict(event);
    }

    /** Interpose on @p runtime's observer (once per runtime). */
    void
    attach(htm::Runtime& runtime)
    {
        if (runtime.observer() == this)
            return;
        next_ = runtime.observer();
        runtime.setObserver(this);
    }

    void
    startRun()
    {
        sawEvent_ = false;
        next_ = nullptr;
    }

    /** Record committed-attempt latencies into @p histogram (nullptr:
     *  do not record). */
    void
    recordCommitLatency(server::LatencyHistogram* histogram)
    {
        commitLatency_ = histogram;
    }

    bool sawEvent() const { return sawEvent_; }
    Clock::time_point firstEvent() const { return firstEvent_; }
    std::uint64_t attempts() const { return attempts_; }
    std::uint64_t aborts() const { return aborts_; }
    std::uint64_t lockWaitCycles() const { return lockWaitCycles_; }

  private:
    htm::TxObserver* next_ = nullptr;
    server::LatencyHistogram* commitLatency_ = nullptr;
    std::uint64_t lockWaitCycles_ = 0;
    bool sawEvent_ = false;
    Clock::time_point firstEvent_;
    std::uint64_t attempts_ = 0;
    std::uint64_t aborts_ = 0;
};

// ---- STAMP: executor and access context wrappers -----------------------

/** Access context handed to STAMP bodies: times each Tx call. */
class TracedTx
{
  public:
    TracedTx(htm::Tx& inner, unsigned fiber) : inner_(&inner), fiber_(fiber)
    {
    }

    template <typename T>
    T
    load(const T* addr)
    {
        Span span(Ev::accessEnter, Ev::accessExit, fiber_);
        return inner_->load(addr);
    }

    template <typename T>
    void
    store(T* addr, T value)
    {
        Span span(Ev::accessEnter, Ev::accessExit, fiber_);
        inner_->store(addr, value);
    }

    void work(sim::Cycles cycles) { inner_->work(cycles); }

    void*
    allocBytes(std::size_t bytes)
    {
        Span span(Ev::accessEnter, Ev::accessExit, fiber_);
        return inner_->allocBytes(bytes);
    }

    void
    deallocBytes(void* ptr, std::size_t bytes)
    {
        Span span(Ev::accessEnter, Ev::accessExit, fiber_);
        inner_->deallocBytes(ptr, bytes);
    }

    template <typename T, typename... Args>
    T*
    create(Args&&... args)
    {
        Span span(Ev::accessEnter, Ev::accessExit, fiber_);
        return inner_->template create<T>(std::forward<Args>(args)...);
    }

    template <typename T>
    void
    destroy(T* ptr)
    {
        Span span(Ev::accessEnter, Ev::accessExit, fiber_);
        inner_->destroy(ptr);
    }

  private:
    htm::Tx* inner_;
    unsigned fiber_;
};

/** stamp::TmExec with spans around sections, bodies and accesses. */
class TracedExec
{
  public:
    TracedExec(htm::Runtime& runtime, sim::ThreadContext& ctx,
               sim::Barrier& barrier, unsigned num_threads,
               server::LatencyHistogram& latency)
        : inner_(runtime, ctx, barrier, num_threads), fiber_(ctx.id()),
          latency_(&latency)
    {
    }

    static constexpr bool isSequential = false;

    template <typename F>
    void
    atomic(htm::TxSiteId site, F&& body)
    {
        Span section(Ev::sectionEnter, Ev::sectionExit, fiber_);
        const sim::Cycles start = inner_.ctx().now();
        inner_.atomic(site, [&](htm::Tx& tx) {
            Span span(Ev::bodyEnter, Ev::bodyExit, fiber_);
            TracedTx traced(tx, fiber_);
            body(traced);
        });
        // Virtual section latency, as runServer reports per operation.
        latency_->record(inner_.ctx().now() - start);
    }

    void barrier() { inner_.barrier(); }
    void work(sim::Cycles cycles) { inner_.work(cycles); }

    template <typename T>
    T
    sharedLoad(const T* addr)
    {
        Span span(Ev::accessEnter, Ev::accessExit, fiber_);
        return inner_.sharedLoad(addr);
    }

    template <typename T>
    T
    fetchAdd(T* addr, T delta)
    {
        Span span(Ev::accessEnter, Ev::accessExit, fiber_);
        return inner_.fetchAdd(addr, delta);
    }

    unsigned tid() const { return inner_.tid(); }
    unsigned numThreads() const { return inner_.numThreads(); }
    sim::Rng& rng() { return inner_.rng(); }

  private:
    stamp::TmExec inner_;
    unsigned fiber_;
    server::LatencyHistogram* latency_;
};

// ---- STAMP: one run, one cell, one pass --------------------------------

struct Pass
{
    PassResult result;
    ModelAccum model;
    std::uint64_t digest = 0x68746d73696d3031ULL;
    EventTap tap;
    /** Virtual latency samples behind model.p50/p99/p999_cycles. */
    server::LatencyHistogram latency;
};

struct RunOut
{
    sim::Cycles cycles = 0;
    bool valid = false;
    htm::TxStats stats;
};

/**
 * Mirrors stamp::runTransactional / runSequential (harness.hh) with
 * the benchmark's spans; the scheduler, runtime, barrier and fibers
 * are built as there. Untraced, the workers run on the program's own
 * stamp::TmExec with no observer, as runTransactional does; traced,
 * on the wrapping executor with the event tap attached. The traced
 * pass's digest proves the swap changes nothing simulated.
 */
template <typename App, typename Params>
RunOut
runStamp(Pass& pass, const Params& params, const htm::RuntimeConfig* config,
         const htm::MachineConfig& machine, std::uint64_t seed)
{
    RunOut out;
    App app(params);
    auto start = Clock::now();
    {
        Span setup(Ev::setupEnter, Ev::setupExit, trace::kMain);
        app.setup();
    }
    const bool tm = config != nullptr;
    const bool traced = trace::enabled();
    const unsigned threads = tm ? kStampThreads : 1;
    trace::event(Ev::buildEnter, trace::kMain);
    sim::Scheduler scheduler(seed);
    scheduler.setBatching(tm ? config->batchEpoch : true);
    std::optional<htm::Runtime> runtime;
    if (tm) {
        runtime.emplace(*config, threads);
        if (traced)
            runtime->setObserver(&pass.tap);
    }
    sim::Barrier barrier(threads);
    sim::Cycles begin = 0;
    sim::Cycles finish = 0;
    for (unsigned t = 0; t < threads; ++t) {
        scheduler.spawn([&](sim::ThreadContext& ctx) {
            if (!tm) {
                stamp::SeqExec exec(ctx, machine);
                begin = ctx.now();
                {
                    Span worker(Ev::seqWorkerEnter, Ev::workerExit,
                                ctx.id());
                    app.worker(exec);
                }
                finish = ctx.now();
                return;
            }
            ctx.setTimeScale(machine.threadTimeScale(ctx.id(), threads));
            const auto work = [&](auto& exec) {
                barrier.arrive(ctx);
                if (ctx.id() == 0)
                    begin = ctx.now();
                {
                    Span worker(Ev::workerEnter, Ev::workerExit, ctx.id());
                    app.worker(exec);
                }
                barrier.arrive(ctx);
                if (ctx.id() == 0)
                    finish = ctx.now();
            };
            if (traced) {
                TracedExec exec(*runtime, ctx, barrier, threads,
                                pass.latency);
                work(exec);
            } else {
                stamp::TmExec exec(*runtime, ctx, barrier, threads);
                work(exec);
            }
        });
    }
    trace::event(Ev::buildExit, trace::kMain);
    pass.result.setupNs += nsSince(start);

    start = Clock::now();
    trace::event(Ev::schedEnter, trace::kMain);
    try {
        scheduler.run();
    } catch (const std::exception& error) {
        trace::event(Ev::schedExit, trace::kMain);
        std::fprintf(stderr, "perfbench: simulation raised: %s\n",
                     error.what());
        return out;
    }
    trace::event(Ev::schedExit, trace::kMain);
    const double run_ns = nsSince(start);
    pass.result.simulateNs += run_ns;
    pass.result.spanNs += run_ns;

    out.cycles = finish - begin;
    if (tm)
        out.stats = runtime->stats();
    Span verify(Ev::verifyEnter, Ev::verifyExit, trace::kMain);
    out.valid = app.verify();
    return out;
}

/** One Fig. 2 cell: sequential baseline plus every tuning candidate.
 *  @return the best speed-up over the candidates. */
template <typename App, typename Params>
double
runStampCell(Pass& pass, const Params& params,
             const htm::MachineConfig& machine, std::uint64_t seed)
{
    const RunOut seq =
        runStamp<App>(pass, params, nullptr, machine, seed);
    fold(pass.digest, seq.cycles);
    fold(pass.digest, seq.valid);
    bool ok = seq.valid && seq.cycles != 0;
    double best = 0.0;
    for (htm::RuntimeConfig config :
         bench::SuiteRunner::tuningCandidates(machine)) {
        config.machine = machine;
        const RunOut tm = runStamp<App>(pass, params, &config, machine,
                                        seed);
        fold(pass.digest, tm.cycles);
        fold(pass.digest, tm.valid);
        foldWords(pass.digest, tm.stats);
        pass.model.add(tm.stats);
        pass.result.commits += tm.stats.sections;
        ok = ok && tm.valid && tm.cycles != 0;
        if (tm.cycles != 0)
            best = std::max(best, double(seq.cycles) / double(tm.cycles));
    }
    ++pass.result.cells;
    if (!ok)
        ++pass.result.failedCells;
    return best;
}

/** Shift a STAMP input seed by the benchmark seed (seed 1 keeps the
 *  suite's own inputs). */
template <typename Params>
Params
reseeded(Params params, std::uint64_t seed)
{
    params.seed += (seed - 1) * 0x9e3779b97f4a7c15ULL;
    return params;
}

double
runStampBench(Pass& pass, const std::string& name,
              const htm::MachineConfig& machine, std::uint64_t seed)
{
    using Suite = bench::SuiteRunner;
    if (name == "bayes")
        return runStampCell<stamp::BayesApp>(
            pass, reseeded(Suite::bayesParams(), seed), machine, seed);
    if (name == "genome")
        return runStampCell<stamp::GenomeApp>(
            pass, reseeded(Suite::genomeParams(machine, true), seed),
            machine, seed);
    if (name == "intruder")
        return runStampCell<stamp::IntruderApp>(
            pass, reseeded(Suite::intruderParams(), seed), machine, seed);
    if (name == "kmeans-high" || name == "kmeans-low")
        return runStampCell<stamp::KmeansApp>(
            pass,
            reseeded(Suite::kmeansParams(name == "kmeans-high", true,
                                         machine),
                     seed),
            machine, seed);
    if (name == "labyrinth")
        return runStampCell<stamp::LabyrinthApp>(
            pass, reseeded(Suite::labyrinthParams(), seed), machine,
            seed);
    if (name == "ssca2")
        return runStampCell<stamp::Ssca2App>(
            pass, reseeded(Suite::ssca2Params(), seed), machine, seed);
    if (name == "vacation-high" || name == "vacation-low")
        return runStampCell<stamp::VacationApp>(
            pass,
            reseeded(Suite::vacationParams(name == "vacation-high"),
                     seed),
            machine, seed);
    return runStampCell<stamp::YadaApp>(
        pass, reseeded(Suite::yadaParams(), seed), machine, seed);
}

void
runStampFig2(Pass& pass, std::uint64_t seed)
{
    const auto& names = bench::suiteNames();
    double log_speedup = 0.0;
    double log_err = 0.0;
    unsigned counted = 0;
    unsigned m = 0;
    for (const htm::MachineConfig& machine : htm::MachineConfig::all()) {
        for (std::size_t b = 0; b < names.size(); ++b) {
            const double best =
                runStampBench(pass, names[b], machine, seed);
            if (names[b] == "bayes" || best <= 0.0)
                continue;
            log_speedup += std::log(best);
            log_err += std::fabs(std::log(best / kPaperFig2[b][m]));
            ++counted;
        }
        ++m;
    }
    if (counted != 0) {
        pass.result.model.speedupGeomean =
            std::exp(log_speedup / double(counted));
        pass.result.model.fig2LogErr = log_err / double(counted);
    }
}

// ---- KV server ----------------------------------------------------------

/** bench_server's read-mostly profile. */
server::TrafficConfig
readMostlyTraffic()
{
    server::TrafficConfig traffic;
    traffic.numKeys = 4096;
    traffic.numAccounts = 256;
    traffic.zipfTheta = 0.8;
    traffic.getWeight = 70;
    traffic.putWeight = 15;
    traffic.rmwWeight = 8;
    traffic.transferWeight = 4;
    traffic.scanWeight = 3;
    traffic.transferSpan = 2;
    traffic.scanLen = 8;
    return traffic;
}

/** bench_server's contended profile. */
server::TrafficConfig
contendedTraffic()
{
    server::TrafficConfig traffic;
    traffic.numKeys = 512;
    traffic.numAccounts = 64;
    traffic.zipfTheta = 0.95;
    traffic.getWeight = 30;
    traffic.putWeight = 10;
    traffic.rmwWeight = 30;
    traffic.transferWeight = 25;
    traffic.scanWeight = 5;
    traffic.transferSpan = 4;
    traffic.scanLen = 8;
    return traffic;
}

void
runKvCell(Pass& pass, const htm::MachineConfig& machine,
          htm::BackendKind backend, unsigned clients,
          const server::TrafficConfig& traffic, unsigned ops_per_client,
          std::uint64_t seed)
{
    server::ServerConfig config;
    config.runtime = htm::RuntimeConfig(machine);
    config.runtime.backend = backend;
    config.clients = clients;
    config.traffic = traffic;
    config.traffic.opsPerClient = ops_per_client;
    // bench_server's offered load: one request per 256 cycles in
    // aggregate, however many clients share it.
    config.traffic.meanInterarrivalCycles = std::uint64_t(256) * clients;
    config.seed = seed;
    config.observer = &pass.tap;

    pass.tap.startRun();
    const auto start = Clock::now();
    trace::event(Ev::serverEnter, trace::kMain);
    const server::ServerResult result = server::runServer(config);
    trace::event(Ev::serverExit, trace::kMain);
    const double total_ns = nsSince(start);
    // runServer builds the store, scheduler, runtime and stacks before
    // its first client reaches a transaction; that is its set-up.
    const double setup_ns =
        pass.tap.sawEvent()
            ? double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                         pass.tap.firstEvent() - start)
                         .count())
            : 0.0;
    pass.result.setupNs += setup_ns;
    pass.result.simulateNs += total_ns - setup_ns;
    pass.result.spanNs += total_ns;
    pass.result.commits += result.committedOps;

    fold(pass.digest, result.committedOps);
    fold(pass.digest, result.horizonCycles);
    fold(pass.digest, result.invariantsOk);
    foldWords(pass.digest, result.latency);
    for (const server::LatencyHistogram& op : result.perOp)
        foldWords(pass.digest, op);
    foldWords(pass.digest, result.queueDelay);
    foldWords(pass.digest, result.stats);
    pass.model.add(result.stats);
    pass.latency += result.latency;

    ++pass.result.cells;
    if (!result.invariantsOk ||
        result.committedOps != std::uint64_t(clients) * ops_per_client)
        ++pass.result.failedCells;
}

void
runKv(Pass& pass, std::uint64_t seed, bool saturated)
{
    if (saturated) {
        const htm::MachineConfig machine = htm::MachineConfig::intelCore();
        for (const htm::BackendKind backend :
             {htm::BackendKind::htm, htm::BackendKind::globalLock}) {
            runKvCell(pass, machine, backend, kSaturatedClients,
                      contendedTraffic(), kSaturatedOps, seed);
        }
    } else {
        for (const htm::MachineConfig& machine :
             htm::MachineConfig::all()) {
            for (const htm::BackendKind backend :
                 {htm::BackendKind::htm, htm::BackendKind::hybrid}) {
                runKvCell(pass, machine, backend,
                          kReadMostlyClients, readMostlyTraffic(),
                          kReadMostlyOps, seed);
            }
        }
    }
}

// ---- Differential oracle ------------------------------------------------

/**
 * A check workload wrapped so its bodies are spans. runDifferential
 * takes a factory of plain function pointers, so the wrapped factory
 * and the pass it reports to are reached through these statics.
 */
const check::WorkloadFactory* innerFactory = nullptr;
Pass* oraclePass = nullptr;
Clock::time_point makeStart;
bool awaitingFirstApply = false;

void
noteApply(htm::Runtime& runtime)
{
    if (awaitingFirstApply) {
        // From building the workload to its first operation: the
        // oracle phase's set-up (workload, scheduler, runtime, fuzzer).
        awaitingFirstApply = false;
        oraclePass->result.setupNs += nsSince(makeStart);
    }
    oraclePass->tap.attach(runtime);
}

class TracedWorkload final : public check::CheckWorkload
{
  public:
    explicit TracedWorkload(std::unique_ptr<check::CheckWorkload> inner)
        : inner_(std::move(inner))
    {
    }

    std::uint64_t
    apply(htm::Tx& tx, unsigned tid, unsigned op) override
    {
        noteApply(tx.runtime());
        Span body(Ev::bodyEnter, Ev::bodyExit, tx.tid());
        return inner_->apply(tx, tid, op);
    }

    bool selfDriven() const override { return inner_->selfDriven(); }

    std::uint64_t
    applyDirect(htm::Runtime& runtime, sim::ThreadContext& ctx,
                unsigned tid, unsigned op) override
    {
        noteApply(runtime);
        Span body(Ev::bodyEnter, Ev::bodyExit, ctx.id());
        return inner_->applyDirect(runtime, ctx, tid, op);
    }

    std::uint64_t fingerprint() override { return inner_->fingerprint(); }

  private:
    std::unique_ptr<check::CheckWorkload> inner_;
};

std::unique_ptr<check::CheckWorkload>
makeTraced(std::uint64_t seed, unsigned threads, unsigned ops)
{
    makeStart = Clock::now();
    awaitingFirstApply = true;
    return std::make_unique<TracedWorkload>(
        innerFactory->make(seed, threads, ops));
}

void
runOracleSweep(Pass& pass, std::uint64_t seed)
{
    oraclePass = &pass;
    const std::uint64_t attempts_before = pass.tap.attempts();
    const std::uint64_t aborts_before = pass.tap.aborts();
    const std::uint64_t lock_wait_before = pass.tap.lockWaitCycles();
    pass.tap.recordCommitLatency(&pass.latency);
    for (const check::WorkloadFactory& factory : check::allWorkloads()) {
        innerFactory = &factory;
        const check::WorkloadFactory traced{factory.name, &makeTraced};
        for (const htm::MachineConfig& machine :
             htm::MachineConfig::all()) {
            for (unsigned i = 0; i < kOracleSeeds; ++i) {
                const std::uint64_t run_seed = seed * 1000 + i;
                pass.tap.startRun();
                const double setup_before = pass.result.setupNs;
                const auto start = Clock::now();
                trace::event(Ev::checkEnter, trace::kMain);
                const check::RunOutcome outcome =
                    check::runDifferential(traced, machine, run_seed);
                trace::event(Ev::checkExit, trace::kMain);
                const double span_ns = nsSince(start);
                pass.result.spanNs += span_ns;
                pass.result.simulateNs +=
                    span_ns - (pass.result.setupNs - setup_before);
                pass.result.commits += outcome.commits;
                fold(pass.digest, outcome.ok);
                fold(pass.digest, outcome.commits);
                fold(pass.digest, outcome.fired.size());
                ++pass.result.cells;
                if (!outcome.ok) {
                    ++pass.result.failedCells;
                    std::fprintf(stderr,
                                 "perfbench: oracle %s/%s seed %llu: %s\n",
                                 factory.name, machine.name.c_str(),
                                 (unsigned long long)run_seed,
                                 outcome.reason.c_str());
                }
            }
        }
    }
    pass.tap.recordCommitLatency(nullptr);
    // The oracle keeps its runtimes' statistics to itself; the
    // interposed observer sees every event after a run's first body.
    pass.model.attempts = pass.tap.attempts() - attempts_before;
    pass.model.aborts = pass.tap.aborts() - aborts_before;
    pass.model.lockWaitCycles =
        pass.tap.lockWaitCycles() - lock_wait_before;
    fold(pass.digest, pass.model.attempts);
    fold(pass.digest, pass.model.aborts);
    fold(pass.digest, pass.model.lockWaitCycles);
    foldWords(pass.digest, pass.latency);
}

} // namespace

const char*
workloadName(Workload workload)
{
    switch (workload) {
    case Workload::stampFig2: return "stamp-fig2";
    case Workload::kvReadMostly: return "kv-readmostly";
    case Workload::kvSaturated: return "kv-saturated";
    case Workload::oracleSweep: return "oracle-sweep";
    }
    return "?";
}

bool
parseWorkload(const char* name, Workload& out)
{
    for (const Workload workload :
         {Workload::stampFig2, Workload::kvReadMostly,
          Workload::kvSaturated, Workload::oracleSweep}) {
        if (std::strcmp(name, workloadName(workload)) == 0) {
            out = workload;
            return true;
        }
    }
    return false;
}

PassResult
runPass(Workload workload, std::uint64_t seed)
{
    static Pass pass;
    pass.result = PassResult();
    pass.model = ModelAccum();
    pass.digest = 0x68746d73696d3031ULL;
    pass.latency = server::LatencyHistogram();
    const auto start = Clock::now();
    trace::event(Ev::passEnter, trace::kMain);
    switch (workload) {
    case Workload::stampFig2: runStampFig2(pass, seed); break;
    case Workload::kvReadMostly: runKv(pass, seed, false); break;
    case Workload::kvSaturated: runKv(pass, seed, true); break;
    case Workload::oracleSweep: runOracleSweep(pass, seed); break;
    }
    trace::event(Ev::passExit, trace::kMain);
    pass.result.wallNs = nsSince(start);
    pass.model.store(pass.result.model);
    pass.result.model.digest = pass.digest;
    pass.result.model.p50Cycles = pass.latency.percentile(0.50);
    pass.result.model.p99Cycles = pass.latency.percentile(0.99);
    pass.result.model.p999Cycles = pass.latency.percentile(0.999);
    return pass.result;
}

} // namespace perfbench
