/**
 * @file
 * Unit tests for the simulation substrate: fibers, scheduler ordering,
 * virtual time, barriers, spin locks, and determinism.
 */

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <utility>
#include <vector>

#include "sim/sim.hh"

namespace
{

using namespace htmsim::sim;

TEST(Fiber, RunsBodyToCompletion)
{
    int state = 0;
    Fiber fiber([&] {
        state = 1;
        Fiber::yieldToOwner();
        state = 2;
    });
    EXPECT_FALSE(fiber.finished());
    fiber.resume();
    EXPECT_EQ(state, 1);
    EXPECT_FALSE(fiber.finished());
    fiber.resume();
    EXPECT_EQ(state, 2);
    EXPECT_TRUE(fiber.finished());
}

TEST(Fiber, PropagatesExceptions)
{
    Fiber fiber([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(fiber.resume(), std::runtime_error);
    EXPECT_TRUE(fiber.finished());
}

TEST(Scheduler, SingleThreadAccumulatesTime)
{
    Scheduler scheduler;
    scheduler.spawn([](ThreadContext& ctx) {
        ctx.step(100);
        ctx.step(50);
    });
    scheduler.run();
    EXPECT_EQ(scheduler.makespan(), 150u);
}

TEST(Scheduler, RunsLowestClockFirst)
{
    // Thread 0 takes big steps, thread 1 small steps; events must
    // interleave in virtual-time order.
    std::vector<std::pair<unsigned, Cycles>> events;
    Scheduler scheduler;
    scheduler.spawn([&](ThreadContext& ctx) {
        for (int i = 0; i < 3; ++i) {
            ctx.step(100);
            events.push_back({0, ctx.now()});
        }
    });
    scheduler.spawn([&](ThreadContext& ctx) {
        for (int i = 0; i < 6; ++i) {
            ctx.step(50);
            events.push_back({1, ctx.now()});
        }
    });
    scheduler.run();
    ASSERT_EQ(events.size(), 9u);
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_LE(events[i - 1].second, events[i].second)
            << "event " << i << " out of virtual-time order";
}

TEST(Scheduler, MakespanIsMaxOfFinishTimes)
{
    Scheduler scheduler;
    scheduler.spawn([](ThreadContext& ctx) { ctx.step(500); });
    scheduler.spawn([](ThreadContext& ctx) { ctx.step(200); });
    scheduler.run();
    EXPECT_EQ(scheduler.makespan(), 500u);
    EXPECT_EQ(scheduler.finishTime(0), 500u);
    EXPECT_EQ(scheduler.finishTime(1), 200u);
    EXPECT_EQ(scheduler.totalThreadTime(), 700u);
}

TEST(Scheduler, BlockAndWake)
{
    Scheduler scheduler;
    bool flag = false;
    unsigned sleeper_tid = 0;
    sleeper_tid = scheduler.spawn([&](ThreadContext& ctx) {
        ctx.block();
        EXPECT_TRUE(flag);
        // Clock must have been pulled up to at least the waker's time.
        EXPECT_GE(ctx.now(), 1000u);
    });
    scheduler.spawn([&](ThreadContext& ctx) {
        ctx.step(1000);
        flag = true;
        ctx.scheduler().wake(sleeper_tid, ctx.now());
    });
    scheduler.run();
}

TEST(Scheduler, DeadlockDetected)
{
    Scheduler scheduler;
    scheduler.spawn([](ThreadContext& ctx) { ctx.block(); });
    EXPECT_THROW(scheduler.run(), SimError);
}

TEST(Scheduler, SpinUntilLivelockGuard)
{
    // A spin on a condition nobody will ever satisfy must error out
    // rather than hang (guard is large; use a tiny custom loop here).
    Scheduler scheduler;
    scheduler.spawn([](ThreadContext& ctx) {
        bool never = false;
        EXPECT_THROW(
            {
                std::uint64_t probes = 0;
                while (!never) {
                    ctx.advance(10);
                    ctx.yieldNow();
                    if (++probes > 1000)
                        throw SimError("livelock");
                }
            },
            SimError);
    });
    scheduler.run();
}

TEST(Scheduler, DeterministicAcrossRuns)
{
    auto run_once = [] {
        std::vector<std::uint64_t> trace;
        Scheduler scheduler(42);
        for (unsigned t = 0; t < 4; ++t) {
            scheduler.spawn([&](ThreadContext& ctx) {
                for (int i = 0; i < 50; ++i) {
                    ctx.step(1 + ctx.rng().nextRange(100));
                    trace.push_back(ctx.id() * 1000000 + ctx.now());
                }
            });
        }
        scheduler.run();
        return trace;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Scheduler, BatchingPreservesEventOrder)
{
    // Epoch batching elides only provably no-op scheduling points, so
    // the globally visible event order must be identical with the
    // sync() fast path on and off.
    auto run_once = [](bool batch) {
        std::vector<std::uint64_t> trace;
        Scheduler scheduler(42);
        scheduler.setBatching(batch);
        for (unsigned t = 0; t < 4; ++t) {
            scheduler.spawn([&](ThreadContext& ctx) {
                for (int i = 0; i < 50; ++i) {
                    ctx.step(1 + ctx.rng().nextRange(100));
                    trace.push_back(ctx.id() * 1000000 + ctx.now());
                }
            });
        }
        scheduler.run();
        return trace;
    };
    EXPECT_EQ(run_once(true), run_once(false));
}

namespace
{
/// Records every scheduling point it is consulted at (schedule format
/// v2: exactly one draw per point), optionally perturbing the clock.
class RecordingPerturber : public SchedulePerturber
{
  public:
    explicit RecordingPerturber(bool perturb) : perturb_(perturb) {}

    Cycles
    preemptDelay(unsigned tid, Cycles now) override
    {
        points.push_back({tid, now});
        return perturb_ ? (points.size() * 7) % 3 : 0;
    }

    std::vector<std::pair<unsigned, Cycles>> points;

  private:
    bool perturb_;
};
} // namespace

TEST(Scheduler, PerturberDrawsExactlyOncePerSchedulingPoint)
{
    // Two threads, each issuing a known number of scheduling points:
    // 40 step()s (one sync each) plus one explicit yieldNow(). The
    // per-thread draw count must equal the point count exactly — the
    // historical hazard was sync() drawing a second time when the
    // point actually yielded.
    RecordingPerturber perturber(true);
    Scheduler scheduler(7);
    for (unsigned t = 0; t < 2; ++t) {
        scheduler.spawn([&](ThreadContext& ctx) {
            for (int i = 0; i < 40; ++i)
                ctx.step(1 + ctx.rng().nextRange(8));
            ctx.yieldNow();
        });
    }
    scheduler.setPerturber(&perturber);
    scheduler.run();
    scheduler.setPerturber(nullptr);

    std::array<unsigned, 2> draws{};
    for (const auto& [tid, now] : perturber.points)
        draws[tid]++;
    EXPECT_EQ(draws[0], 41u);
    EXPECT_EQ(draws[1], 41u);
}

TEST(Scheduler, PerturberPointIndicesMatchBatchedAndUnbatched)
{
    // A registered perturber disables the lease fast path, so batching
    // must not elide (or reorder) any consulted point: the full
    // (tid, clock) sequence — and with it every per-thread point
    // index — must be identical across the two modes. FuzzScheduler
    // seeds and recorded schedules rely on this.
    auto run_once = [](bool batch) {
        RecordingPerturber perturber(true);
        Scheduler scheduler(7);
        scheduler.setBatching(batch);
        for (unsigned t = 0; t < 3; ++t) {
            scheduler.spawn([&](ThreadContext& ctx) {
                for (int i = 0; i < 30; ++i)
                    ctx.step(1 + ctx.rng().nextRange(16));
            });
        }
        scheduler.setPerturber(&perturber);
        scheduler.run();
        scheduler.setPerturber(nullptr);
        return perturber.points;
    };
    EXPECT_EQ(run_once(true), run_once(false));
}

namespace
{
/// FNV-1a over a (tid, clock) log. Scheduler-only runs touch no host
/// addresses, so the digest is the same for every build.
std::uint64_t
hashLog(const std::vector<std::pair<unsigned, Cycles>>& log)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    auto mix = [&](std::uint64_t word) {
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (word >> (8 * byte)) & 0xff;
            hash *= 0x100000001b3ull;
        }
    };
    for (const auto& [tid, now] : log) {
        mix(tid);
        mix(now);
    }
    return hash;
}

/**
 * 256 threads over four rounds. Every round mixes unequal step()s,
 * tie-heavy spinUntil() polling on a shared flag (a quarter of the
 * threads poll at a common 30-cycle cost from barrier-aligned clocks),
 * and a Barrier that blocks 255 threads and wakes them at one time.
 * Returns the (tid, clock) log of every event, each poll included, so
 * the order among equal clocks is visible.
 */
std::vector<std::pair<unsigned, Cycles>>
runRunQueueAtScale(bool batch, SchedulePerturber* perturber)
{
    constexpr unsigned kThreads = 256;
    constexpr unsigned kRounds = 4;
    std::vector<std::pair<unsigned, Cycles>> log;
    Scheduler scheduler(11);
    scheduler.setBatching(batch);
    Barrier barrier(kThreads);
    unsigned released = 0;
    for (unsigned t = 0; t < kThreads; ++t) {
        scheduler.spawn([&](ThreadContext& ctx) {
            const unsigned tid = ctx.id();
            for (unsigned round = 0; round < kRounds; ++round) {
                // Pollers start level with each other, so their polls
                // tie in lockstep.
                if (tid % 4 != 1)
                    ctx.step(1 + ctx.rng().nextRange(200));
                log.push_back({tid, ctx.now()});
                if (tid == 0) {
                    ctx.step(5000);
                    released = round + 1;
                } else if (tid % 4 == 1) {
                    ctx.spinUntil(
                        [&] {
                            log.push_back({tid, ctx.now()});
                            return released > round;
                        },
                        30);
                } else {
                    for (unsigned k = 0; k < 1 + tid % 5; ++k)
                        ctx.step(1 + ctx.rng().nextRange(64 << (tid % 3)));
                }
                log.push_back({tid, ctx.now()});
                barrier.arrive(ctx);
                log.push_back({tid, ctx.now()});
            }
        });
    }
    scheduler.setPerturber(perturber);
    scheduler.run();
    scheduler.setPerturber(nullptr);
    return log;
}
} // namespace

TEST(Scheduler, RunQueueOrderAtScalePinned)
{
    // The pinned digests were produced by the former linear-scan run
    // queue; any change in pick order, tie-breaking or lease bounds at
    // 256 threads moves them.
    constexpr std::uint64_t kPlainDigest = 8858808939153262542ull;
    constexpr std::uint64_t kPerturbedDigest = 1624130108577901110ull;
    constexpr std::uint64_t kPointsDigest = 13021766241715652272ull;

    const auto batched = runRunQueueAtScale(true, nullptr);
    ASSERT_GT(batched.size(), 256u * 4u * 3u);
    EXPECT_EQ(batched, runRunQueueAtScale(false, nullptr));
    EXPECT_EQ(hashLog(batched), kPlainDigest);

    // With a perturber registered, every point is a forced slow path
    // that compares against the earliest queued clock.
    RecordingPerturber batched_perturber(true);
    RecordingPerturber unbatched_perturber(true);
    const auto perturbed = runRunQueueAtScale(true, &batched_perturber);
    EXPECT_EQ(perturbed, runRunQueueAtScale(false, &unbatched_perturber));
    EXPECT_EQ(batched_perturber.points, unbatched_perturber.points);
    EXPECT_EQ(hashLog(perturbed), kPerturbedDigest);
    EXPECT_EQ(hashLog(batched_perturber.points), kPointsDigest);
}

namespace
{
/**
 * 256 threads over two rounds contend for one test-and-set lock word,
 * polled with spinUntil() at 30 cycles: holders keep it for unequal
 * numbers of unequal steps, every eighth thread runs at time scale 2
 * (its 60-cycle polls fall behind the 30-cycle pollers' keys, so its
 * re-queues take the heap), and thread 0 first spins on a gate that a
 * thread fresh from a Barrier block/wake opens — that thread blocks
 * while pollers are queued, so block() hands over to a parked thread.
 * Returns the (tid, clock) log of every probe, acquisition, release
 * and finish, so the order among equal clocks is visible.
 */
std::vector<std::pair<unsigned, Cycles>>
runSpinPoll(bool batch, SchedulePerturber* perturber)
{
    constexpr unsigned kThreads = 256;
    constexpr unsigned kRounds = 2;
    std::vector<std::pair<unsigned, Cycles>> log;
    Scheduler scheduler(13);
    scheduler.setBatching(batch);
    Barrier barrier(2);
    bool locked = false;
    bool gate = false;
    for (unsigned t = 0; t < kThreads; ++t) {
        scheduler.spawn([&](ThreadContext& ctx) {
            const unsigned tid = ctx.id();
            if (tid % 8 == 5)
                ctx.setTimeScale(2.0);
            if (tid == 0) {
                ctx.spinUntil(
                    [&] {
                        log.push_back({tid, ctx.now()});
                        return gate;
                    },
                    30);
            } else if (tid == 1 || tid == 2) {
                // Thread 1 arrives first and blocks; thread 2 wakes it.
                ctx.step(tid == 1 ? 400 : 3000);
                barrier.arrive(ctx);
                if (tid == 1)
                    gate = true;
            }
            log.push_back({tid, ctx.now()});
            for (unsigned round = 0; round < kRounds; ++round) {
                ctx.step(1 + ctx.rng().nextRange(300));
                if (locked) {
                    ctx.spinUntil(
                        [&] {
                            log.push_back({tid, ctx.now()});
                            return !locked;
                        },
                        30);
                }
                locked = true;
                log.push_back({tid, ctx.now()});
                for (unsigned k = 0; k < 1 + tid % 4; ++k)
                    ctx.step(5 + ctx.rng().nextRange(16u << (tid % 3)));
                locked = false;
                log.push_back({tid, ctx.now()});
            }
        });
    }
    scheduler.setPerturber(perturber);
    scheduler.run();
    scheduler.setPerturber(nullptr);
    log.push_back({kThreads, scheduler.makespan()});
    return log;
}
} // namespace

TEST(Scheduler, SpinPollOrderPinned)
{
    // The pinned digests were produced by the scheduler that switched
    // to every poller's fiber for each probe and kept all queued
    // threads in one heap; running probes in place and the poller
    // lane must reproduce every probe, pick and lease.
    constexpr std::uint64_t kPlainDigest = 6795157881479428782ull;
    constexpr std::uint64_t kPerturbedDigest = 7442172902756233066ull;
    constexpr std::uint64_t kPointsDigest = 14950751156871396170ull;

    const auto batched = runSpinPoll(true, nullptr);
    ASSERT_GT(batched.size(), 100000u);
    EXPECT_EQ(batched, runSpinPoll(false, nullptr));
    EXPECT_EQ(hashLog(batched), kPlainDigest);

    RecordingPerturber batched_perturber(true);
    RecordingPerturber unbatched_perturber(true);
    const auto perturbed = runSpinPoll(true, &batched_perturber);
    EXPECT_EQ(perturbed, runSpinPoll(false, &unbatched_perturber));
    EXPECT_EQ(batched_perturber.points, unbatched_perturber.points);
    EXPECT_EQ(hashLog(perturbed), kPerturbedDigest);
    EXPECT_EQ(hashLog(batched_perturber.points), kPointsDigest);
}

namespace
{
/// Run @p scheduler, whose thread 0 spins on a predicate that never
/// holds at one cycle per probe: the guard throws after exactly
/// spinProbeLimit + 1 probes, from that thread's fiber out of run().
void
expectSpinLivelock(Scheduler& scheduler)
{
    try {
        scheduler.run();
        ADD_FAILURE() << "spinUntil() did not detect the livelock";
    } catch (const SimError& error) {
        EXPECT_STREQ(error.what(), "spinUntil: virtual livelock detected");
    }
    EXPECT_EQ(scheduler.context(0).now(), ThreadContext::spinProbeLimit + 1);
}

std::function<void(ThreadContext&)>
neverTrueSpinner(Cycles poll)
{
    return [poll](ThreadContext& ctx) {
        ctx.spinUntil([] { return false; }, poll);
    };
}
} // namespace

TEST(Scheduler, SpinUntilLivelockGuardAlone)
{
    // Alone, every probe is a no-op scheduling point of the spinner.
    Scheduler scheduler;
    scheduler.spawn(neverTrueSpinner(1));
    expectSpinLivelock(scheduler);
}

TEST(Scheduler, SpinUntilLivelockGuardProbedInline)
{
    // Beside a second spinner that polls 1000 times slower, the fast
    // spinner's probes run on the slow one's stack, and its last probe
    // hands control back to its own fiber to throw.
    Scheduler scheduler;
    scheduler.spawn(neverTrueSpinner(1));
    scheduler.spawn(neverTrueSpinner(1000));
    expectSpinLivelock(scheduler);
}

TEST(Rng, DeterministicStreams)
{
    Rng a(7, 0), b(7, 0), c(7, 1);
    EXPECT_EQ(a.nextU64(), b.nextU64());
    EXPECT_NE(a.nextU64(), c.nextU64());
}

TEST(Rng, RangeAndDoubleBounds)
{
    Rng rng(123);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.nextRange(17), 17u);
        const double value = rng.nextDouble();
        EXPECT_GE(value, 0.0);
        EXPECT_LT(value, 1.0);
    }
}

TEST(Rng, BernoulliRoughlyCalibrated)
{
    Rng rng(99);
    int hits = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        hits += rng.nextBool(0.3) ? 1 : 0;
    EXPECT_NEAR(double(hits) / trials, 0.3, 0.02);
}

TEST(Barrier, AlignsClocks)
{
    Scheduler scheduler;
    Barrier barrier(3);
    std::vector<Cycles> after(3);
    for (unsigned t = 0; t < 3; ++t) {
        scheduler.spawn([&, t](ThreadContext& ctx) {
            ctx.step(100 * (t + 1)); // 100, 200, 300
            barrier.arrive(ctx);
            after[ctx.id()] = ctx.now();
        });
    }
    scheduler.run();
    for (unsigned t = 0; t < 3; ++t)
        EXPECT_EQ(after[t], 300u + Barrier::releaseCost);
}

TEST(Barrier, Reusable)
{
    Scheduler scheduler;
    Barrier barrier(2);
    int phase_sum = 0;
    for (unsigned t = 0; t < 2; ++t) {
        scheduler.spawn([&](ThreadContext& ctx) {
            for (int round = 0; round < 5; ++round) {
                ctx.step(10 + ctx.rng().nextRange(50));
                barrier.arrive(ctx);
                ++phase_sum;
            }
        });
    }
    scheduler.run();
    EXPECT_EQ(phase_sum, 10);
}

TEST(SpinLock, MutualExclusionAndTime)
{
    Scheduler scheduler;
    SpinLock lock;
    int counter = 0;
    for (unsigned t = 0; t < 4; ++t) {
        scheduler.spawn([&](ThreadContext& ctx) {
            for (int i = 0; i < 100; ++i) {
                lock.acquire(ctx);
                EXPECT_EQ(lock.holder(), int(ctx.id()));
                const int read = counter;
                ctx.step(25); // critical-section work
                counter = read + 1;
                lock.release(ctx);
            }
        });
    }
    scheduler.run();
    EXPECT_EQ(counter, 400);
    // 400 serialized critical sections of >= 25 cycles each.
    EXPECT_GE(scheduler.makespan(), 400u * 25u);
}

TEST(SpinLock, SerializesInVirtualTime)
{
    // Two threads each hold the lock for 1000 cycles; the makespan
    // must be at least 2000 even though each thread only does 1000.
    Scheduler scheduler;
    SpinLock lock;
    for (unsigned t = 0; t < 2; ++t) {
        scheduler.spawn([&](ThreadContext& ctx) {
            lock.acquire(ctx);
            ctx.step(1000);
            lock.release(ctx);
        });
    }
    scheduler.run();
    EXPECT_GE(scheduler.makespan(), 2000u);
}

TEST(RunThreads, HelperReturnsMakespan)
{
    const Cycles makespan = runThreads(
        3, 1, [](ThreadContext& ctx) { ctx.step(100 * (ctx.id() + 1)); });
    EXPECT_EQ(makespan, 300u);
}

} // namespace
