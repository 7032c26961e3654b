/**
 * @file
 * Retry-policy layer: the software state machine that decides, after
 * each transactional abort, whether an atomic section retries in
 * hardware or gives up to its fallback path.
 *
 * A RetryPolicy is a pure decision object: it consumes abort causes
 * (plus the observed state of the global fallback lock) and emits
 * retry/stop decisions. It never touches the simulator, the conflict
 * directory, or a Tx, which is what makes the layer boundary real —
 * the policies are unit-testable with nothing but scripted abort-cause
 * streams (tests/test_retry_policy.cc).
 *
 * Three policies from the paper:
 *  - Fig1ThreeCounterPolicy: the paper's Figure 1 mechanism — separate
 *    budgets for lock-conflict, persistent and transient aborts
 *    (Section 3), used on zEC12 / Intel Core / POWER8;
 *  - BgqAdaptivePolicy: Blue Gene/Q's system-software mechanism — one
 *    retry counter plus per-thread adaptation that stops retrying
 *    after repeated fallbacks (Section 3);
 *  - NoRetryPolicy: a single attempt, then straight to the fallback
 *    (the Section 6.1 "NoRetryTM" path).
 * BoundedRetryPolicy generalizes NoRetryPolicy to N attempts (the
 * Section 6.1 "OptRetryTM" path with a tuned attempt budget).
 *
 * HardenedRetryPolicy (this PR) is the starvation-proof variant built
 * for hazard-injected runs (hazard.hh, DESIGN.md Section 8): Figure 1
 * budgets plus a hard per-section attempt watchdog, deterministic
 * backoff jitter, and lemming-storm adaptation. Its progress bound:
 * every section reaches its fallback within `watchdogAttempts` HTM
 * attempts no matter what the abort stream looks like.
 */

#ifndef HTMSIM_HTM_RETRY_POLICY_HH
#define HTMSIM_HTM_RETRY_POLICY_HH

#include <algorithm>
#include <memory>

#include "abort.hh"
#include "machine.hh"

namespace htmsim::htm
{

struct RuntimeConfig;

/** Which retry-policy implementation a run's HTM sections use
 *  (RuntimeConfig::policyKind; string names in the tools: "default" /
 *  "hardened"). */
enum class RetryPolicyKind : std::uint8_t
{
    /** The machine's own mechanism: BgqAdaptivePolicy on Blue Gene/Q,
     *  Fig1ThreeCounterPolicy elsewhere. */
    machineDefault,
    /** HardenedRetryPolicy on every machine. */
    hardened,
};

/** Maximum retry counts of the Figure 1 mechanism (tuning knobs). */
struct RetryCounts
{
    int lockRetries = 4;
    int persistentRetries = 1;
    int transientRetries = 8;
};

/**
 * True if @p cause counts as persistent for the Figure 1 mechanism.
 * Intel and POWER8 report a persistence hint; the paper's runtime
 * treats zEC12 capacity overflows as persistent in software
 * (Section 3). Either way the same causes are persistent.
 */
inline bool
isPersistentCause(AbortCause cause)
{
    return cause == AbortCause::capacityOverflow ||
           cause == AbortCause::wayConflict;
}

/**
 * Decision state machine for one thread's atomic sections.
 *
 * Drivers call beginSection() once per atomic section, then onAbort()
 * after every failed attempt until it returns false (stop retrying),
 * and finally exactly one of onCommit() / onFallback(). Policies may
 * keep state across sections (BgqAdaptivePolicy's adaptation score),
 * so one instance serves one thread.
 */
class RetryPolicy
{
  public:
    virtual ~RetryPolicy() = default;

    /** Reset per-section state; called before the first attempt. */
    virtual void beginSection() {}

    /**
     * Consume one abort. @p lock_held reports whether the global
     * fallback lock was observed held after the abort (the Figure 1
     * driver inspects the lock to classify, so a conflict whose lock
     * was already released again is misattributed — see
     * Runtime::recordAbort).
     * @return true to retry transactionally, false to stop.
     */
    virtual bool onAbort(AbortCause cause, bool lock_held) = 0;

    /** The section committed transactionally. */
    virtual void onCommit() {}

    /** The section gave up and ran on its fallback path. */
    virtual void onFallback() {}

    /** Attempts subscribe to the fallback lock lazily (at commit)
     *  rather than eagerly (at begin). */
    virtual bool lazySubscription() const { return false; }

    /** Post-abort backoff jitter is a deterministic hash of
     *  (tid, consecutive aborts) instead of a draw from the thread's
     *  main rng stream (see Runtime::backoff). */
    virtual bool deterministicBackoff() const { return false; }
};

/**
 * The paper's Figure 1 mechanism: three independent retry budgets,
 * selected by inspecting the lock and the persistence hint of each
 * abort. Section 3 argues lock conflicts deserve their own counter;
 * bench_ablation_retry quantifies that against a single shared one.
 */
class Fig1ThreeCounterPolicy final : public RetryPolicy
{
  public:
    explicit Fig1ThreeCounterPolicy(RetryCounts counts)
        : counts_(counts)
    {
        beginSection();
    }

    void
    beginSection() override
    {
        lockRetries_ = counts_.lockRetries;
        persistentRetries_ = counts_.persistentRetries;
        transientRetries_ = counts_.transientRetries;
    }

    bool
    onAbort(AbortCause cause, bool lock_held) override
    {
        // Figure 1 line 13: a lock observed held (or a lock-word
        // conflict) charges the lock counter regardless of the
        // hardware's reported cause.
        if (lock_held || cause == AbortCause::lockConflict)
            return --lockRetries_ > 0;
        if (isPersistentCause(cause))
            return --persistentRetries_ > 0;
        return --transientRetries_ > 0;
    }

  private:
    RetryCounts counts_;
    int lockRetries_ = 0;
    int persistentRetries_ = 0;
    int transientRetries_ = 0;
};

/**
 * Blue Gene/Q's system-provided mechanism (Section 3): one retry
 * counter for all abort kinds (the hardware reports no reason codes to
 * count by), plus adaptation — a thread whose sections repeatedly end
 * in the lock fallback stops retrying until commits decay the score.
 */
class BgqAdaptivePolicy final : public RetryPolicy
{
  public:
    /** Fallback-score decay applied on every section outcome. */
    static constexpr double scoreDecay = 0.9;
    /** Score above which adaptation suppresses all retries. */
    static constexpr double adaptationThreshold = 2.5;

    BgqAdaptivePolicy(int max_retries, bool adaptation, BgqMode mode)
        : maxRetries_(max_retries), adaptation_(adaptation),
          mode_(mode)
    {
        beginSection();
    }

    void
    beginSection() override
    {
        retries_ = maxRetries_;
        if (adaptation_ && score_ > adaptationThreshold)
            retries_ = 0;
    }

    bool
    onAbort(AbortCause, bool) override
    {
        return retries_-- > 0;
    }

    void
    onCommit() override
    {
        score_ *= scoreDecay;
    }

    void
    onFallback() override
    {
        score_ = score_ * scoreDecay + 1.0;
    }

    /** Long-running mode checks the lock only at commit [12]. */
    bool
    lazySubscription() const override
    {
        return mode_ == BgqMode::longRunning;
    }

  private:
    int maxRetries_;
    bool adaptation_;
    BgqMode mode_;
    int retries_ = 0;
    double score_ = 0.0;
};

/** One hardware attempt, then straight to the fallback (NoRetryTM). */
class NoRetryPolicy final : public RetryPolicy
{
  public:
    bool
    onAbort(AbortCause, bool) override
    {
        return false;
    }
};

/**
 * A fixed total attempt budget with no abort-kind distinction
 * (OptRetryTM, Section 6.1). BoundedRetryPolicy(1) behaves like
 * NoRetryPolicy.
 */
class BoundedRetryPolicy final : public RetryPolicy
{
  public:
    /** A non-positive budget clamps to one attempt: the hardware
     *  always runs the first attempt, so "zero attempts" cannot mean
     *  anything stricter than NoRetryPolicy. */
    explicit BoundedRetryPolicy(int max_attempts)
        : maxAttempts_(std::max(max_attempts, 1))
    {
    }

    void
    beginSection() override
    {
        failedAttempts_ = 0;
    }

    bool
    onAbort(AbortCause, bool) override
    {
        return ++failedAttempts_ < maxAttempts_;
    }

  private:
    int maxAttempts_;
    int failedAttempts_ = 0;
};

/**
 * The starvation-proof policy (DESIGN.md Section 8). Three Figure 1
 * budgets, hardened on three fronts for hazard-heavy environments:
 *
 *  - Watchdog: a hard cap of `watchdogAttempts` HTM attempts per
 *    section, regardless of which budgets the abort stream drains.
 *    This is the guaranteed-progress bound — an adversarial stream of
 *    injected aborts cannot keep a section out of its fallback, and
 *    once a section holds the fallback lock it commits in bounded
 *    virtual time (the body is finite and lock holders are never
 *    aborted), so every section terminates.
 *  - Storm adaptation: repeated fallbacks shrink the transient budget
 *    to one (convoy bound — a thread joining a lemming storm stops
 *    feeding it with doomed retries); commits decay the score back.
 *  - Deterministic backoff jitter (deterministicBackoff()), so the
 *    retry cadence of a replayed hazard schedule is reproducible and
 *    independent of the thread's main rng stream position.
 */
class HardenedRetryPolicy final : public RetryPolicy
{
  public:
    /** Hard per-section HTM attempt bound (the watchdog). Above the
     *  sum of the default Figure 1 budgets that matter in practice,
     *  so it only fires when classification is being gamed (e.g.
     *  alternating injected causes replenishing each other's
     *  headroom). */
    static constexpr int watchdogAttempts = 12;
    /** Fallback-score decay applied on every section outcome. */
    static constexpr double stormDecay = 0.85;
    /** Score above which the transient budget shrinks to one. */
    static constexpr double stormThreshold = 2.5;

    explicit HardenedRetryPolicy(RetryCounts counts) : counts_(counts)
    {
        beginSection();
    }

    void
    beginSection() override
    {
        lockRetries_ = counts_.lockRetries;
        persistentRetries_ = counts_.persistentRetries;
        transientRetries_ = counts_.transientRetries;
        if (score_ > stormThreshold)
            transientRetries_ = std::min(transientRetries_, 1);
        watchdog_ = watchdogAttempts;
    }

    bool
    onAbort(AbortCause cause, bool lock_held) override
    {
        if (--watchdog_ <= 0)
            return false;
        if (lock_held || cause == AbortCause::lockConflict)
            return --lockRetries_ > 0;
        if (isPersistentCause(cause))
            return --persistentRetries_ > 0;
        return --transientRetries_ > 0;
    }

    void
    onCommit() override
    {
        score_ *= stormDecay;
    }

    void
    onFallback() override
    {
        score_ = score_ * stormDecay + 1.0;
    }

    bool deterministicBackoff() const override { return true; }

  private:
    RetryCounts counts_;
    int lockRetries_ = 0;
    int persistentRetries_ = 0;
    int transientRetries_ = 0;
    int watchdog_ = 0;
    double score_ = 0.0;
};

/**
 * Decision layer of the retry driver (Runtime::runSection), bound
 * for every speculative backend: wraps a thread's base RetryPolicy and
 * turns its binary retry/stop output into a three-way decision — retry
 * in hardware, fall back to the *software* slow path, or (only when
 * the software path is exhausted or disabled) serialize on the global
 * lock.
 *
 * Decision rules:
 *  - software path disabled (every backend but an enabled hybrid):
 *    mirror the base policy exactly (retryHtm while it says retry,
 *    then fallbackLock) — the plain Figure 1 driver;
 *  - persistent abort causes (capacity, way conflict): straight to
 *    fallbackStm *without* consuming base-policy budget — retrying a
 *    too-big transaction in hardware is the waste the hybrid exists
 *    to avoid, and the software path has no capacity limit;
 *  - transient causes: retryHtm while the base policy says retry,
 *    fallbackStm when it gives up — the lock is no longer the next
 *    stop after hardware;
 *  - software aborts: up to stmAttempts tries, then fallbackLock
 *    (the progress guarantee: validation-doomed sections eventually
 *    serialize).
 *
 * Like every policy, this is a pure decision object — unit-tested
 * with scripted abort streams in tests/test_retry_policy.cc.
 */
class HybridRetryPolicy
{
  public:
    /** Where the section goes after an abort. */
    enum class Decision : std::uint8_t
    {
        retryHtm,
        fallbackStm,
        fallbackLock,
    };

    /** Resolved hybrid knobs (from RuntimeConfig::hybrid). */
    struct Tuning
    {
        bool stmEnabled = true;
        bool stmOnly = false;
        int stmAttempts = 3;
    };

    HybridRetryPolicy() = default;

    /** Bind the thread's base policy (owned by the Runtime). */
    void
    bind(RetryPolicy* base, Tuning tuning)
    {
        base_ = base;
        tuning_ = tuning;
    }

    /** True if hardware attempts are skipped entirely (stmOnly). */
    bool
    softwareFirst() const
    {
        return tuning_.stmEnabled && tuning_.stmOnly;
    }

    void
    beginSection()
    {
        base_->beginSection();
        stmFailures_ = 0;
    }

    Decision
    onHtmAbort(AbortCause cause, bool lock_held)
    {
        if (!tuning_.stmEnabled) {
            return base_->onAbort(cause, lock_held)
                       ? Decision::retryHtm
                       : Decision::fallbackLock;
        }
        if (isPersistentCause(cause) && !lock_held) {
            // Persistent hardware causes do not drain base budgets:
            // the hardware already told us retrying is futile, and
            // the software path does not share the limitation.
            return Decision::fallbackStm;
        }
        return base_->onAbort(cause, lock_held) ? Decision::retryHtm
                                                : Decision::fallbackStm;
    }

    Decision
    onStmAbort(AbortCause)
    {
        return ++stmFailures_ < tuning_.stmAttempts
                   ? Decision::fallbackStm
                   : Decision::fallbackLock;
    }

    void onCommit() { base_->onCommit(); }
    void onFallback() { base_->onFallback(); }

    bool lazySubscription() const { return base_->lazySubscription(); }
    bool
    deterministicBackoff() const
    {
        return base_->deterministicBackoff();
    }

  private:
    RetryPolicy* base_ = nullptr;
    Tuning tuning_;
    int stmFailures_ = 0;
};

/**
 * The policy an HTM-backed atomic section uses under @p config:
 * HardenedRetryPolicy everywhere when config.policyKind requests it,
 * otherwise BgqAdaptivePolicy on Blue Gene/Q (the machine's system
 * software owns the mechanism) and Fig1ThreeCounterPolicy elsewhere.
 * One instance per thread (policies carry cross-section state).
 */
std::unique_ptr<RetryPolicy> makeRetryPolicy(const RuntimeConfig& config);

} // namespace htmsim::htm

#endif // HTMSIM_HTM_RETRY_POLICY_HH
