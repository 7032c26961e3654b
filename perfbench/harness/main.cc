/**
 * @file
 * perfbench: host-performance benchmark of the simulator.
 *
 * Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Runs passes of one workload (workloads.hh) on one host thread until
 * S seconds have elapsed and prints the end-to-end metrics (medians
 * over passes) or, with --trace 1, the per-layer breakdown of traced
 * passes. The last line of standard output is one JSON object; every
 * metric the binary measures is in it, with its unit.
 *
 * Address-space pinning: simulated results still hash host addresses,
 * so the process first re-executes itself with ADDR_NO_RANDOMIZE (as
 * `setarch -R` does) and refuses to measure if that did not hold. A
 * traced run re-executes once more after an untraced reference pass,
 * so the traced pass starts from the same pristine image and must
 * reproduce the reference pass's simulated digest exactly. Both
 * re-executions keep argv lengths fixed (the --carry slot), and every
 * pass runs on one stack mapped at start-up, so no simulated object's
 * address depends on the caller's stack depth or the environment.
 */

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/personality.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "tracer.hh"
#include "workloads.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_LTO
#define PERFBENCH_LTO 0
#endif

namespace
{

using namespace perfbench;

constexpr unsigned kMaxPasses = 4096;
/** Largest relative gap allowed between the traced layer times and
 *  the clock-measured simulate time of a pass. */
constexpr double kSumTolerance = 0.01;

// ---- Passes run on a stack of their own ---------------------------------

constexpr std::size_t kPassStackBytes = std::size_t(64) << 20;
char* passStack = nullptr;
ucontext_t callerContext, passContext;
Workload passWorkload;
std::uint64_t passSeed = 0;
PassResult passResult;

void
reservePassStack()
{
    void* stack = mmap(nullptr, kPassStackBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (stack == MAP_FAILED) {
        std::perror("perfbench: pass stack mmap");
        std::exit(3);
    }
    passStack = static_cast<char*>(stack);
}

void
passEntry()
{
    passResult = runPass(passWorkload, passSeed);
}

/** runPass() on the fixed pass stack. */
PassResult
pass(Workload workload, std::uint64_t seed)
{
    passWorkload = workload;
    passSeed = seed;
    getcontext(&passContext);
    passContext.uc_stack.ss_sp = passStack;
    passContext.uc_stack.ss_size = kPassStackBytes;
    passContext.uc_link = &callerContext;
    makecontext(&passContext, passEntry, 0);
    swapcontext(&callerContext, &passContext);
    return passResult;
}

/** State carried across re-executions in a fixed-width argv slot:
 *  reference digest, reference simulate ns, ignored-environment bits. */
struct Carry
{
    std::uint64_t digest = 0;
    std::uint64_t simulateNs = 0;
    unsigned ignoredEnv = 0;
};

constexpr unsigned kIgnoredScale = 1;
constexpr unsigned kIgnoredVerbose = 2;
constexpr const char* kCarryFormat = "%016" PRIx64 ":%016" PRIx64 ":%x";
constexpr std::size_t kCarryBytes = 16 + 1 + 16 + 1 + 1 + 1;

struct Args
{
    Workload workload = Workload::stampFig2;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool traced = false;
    unsigned stage = 0;
    Carry carry;
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
};

[[noreturn]] void
usage(const char* message)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "stamp-fig2|kv-readmostly|kv-saturated|oracle-sweep "
                 "--seed N --seconds S --trace 0|1\n",
                 message);
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const char* flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value after the last flag");
        const char* value = argv[++i];
        char* end = nullptr;
        if (std::strcmp(flag, "--workload") == 0) {
            if (!parseWorkload(value, args.workload))
                usage("unknown workload");
            args.haveWorkload = true;
        } else if (std::strcmp(flag, "--seed") == 0) {
            args.seed = std::strtoull(value, &end, 10);
            if (*end != '\0' || args.seed == 0)
                usage("--seed takes a positive integer");
            args.haveSeed = true;
        } else if (std::strcmp(flag, "--seconds") == 0) {
            args.seconds = std::strtod(value, &end);
            if (*end != '\0' || !(args.seconds > 0.0))
                usage("--seconds takes a positive number");
            args.haveSeconds = true;
        } else if (std::strcmp(flag, "--trace") == 0) {
            if (std::strcmp(value, "0") != 0 &&
                std::strcmp(value, "1") != 0)
                usage("--trace takes 0 or 1");
            args.traced = value[0] == '1';
            args.haveTrace = true;
        } else if (std::strcmp(flag, "--stage") == 0) {
            args.stage = unsigned(std::strtoul(value, &end, 10));
        } else if (std::strcmp(flag, "--carry") == 0) {
            if (std::sscanf(value, "%" SCNx64 ":%" SCNx64 ":%x",
                            &args.carry.digest, &args.carry.simulateNs,
                            &args.carry.ignoredEnv) != 3)
                usage("malformed --carry");
        } else {
            usage("unknown flag");
        }
    }
    if (!args.haveWorkload || !args.haveSeed || !args.haveSeconds ||
        !args.haveTrace)
        usage("--workload, --seed, --seconds and --trace are required");
    return args;
}

/** Replace this image with a fresh one of the same binary: the user's
 *  arguments, then --stage/--carry in their fixed-width slots. */
[[noreturn]] void
reexec(int argc, char** argv, unsigned stage, const Carry& carry)
{
    static char stage_text[2];
    static char carry_text[kCarryBytes];
    std::snprintf(stage_text, sizeof stage_text, "%u", stage);
    std::snprintf(carry_text, sizeof carry_text, kCarryFormat,
                  carry.digest, carry.simulateNs, carry.ignoredEnv);
    static char* next[32];
    int n = 0;
    for (int i = 0; i < argc && n < 26; ++i) {
        if (std::strcmp(argv[i], "--stage") == 0 ||
            std::strcmp(argv[i], "--carry") == 0) {
            ++i;
            continue;
        }
        next[n++] = argv[i];
    }
    next[n++] = const_cast<char*>("--stage");
    next[n++] = stage_text;
    next[n++] = const_cast<char*>("--carry");
    next[n++] = carry_text;
    next[n] = nullptr;
    std::fflush(stdout);
    std::fflush(stderr);
    execv("/proc/self/exe", next);
    std::perror("perfbench: re-exec");
    std::exit(3);
}

bool
pinned()
{
    const int persona = personality(0xffffffff);
    return persona != -1 && (persona & ADDR_NO_RANDOMIZE) != 0;
}

void
printProvenance(const Args& args)
{
    const char* source = std::getenv("PERFBENCH_SOURCE");
    std::printf("# perfbench workload=%s seed=%" PRIu64
                " seconds=%g trace=%d stage=%u\n",
                workloadName(args.workload), args.seed, args.seconds,
                args.traced ? 1 : 0, args.stage);
    std::printf("# source: %s\n",
                source != nullptr ? source : "unknown");
    std::printf("# compiler: %s %s\n",
#if defined(__clang__)
                "clang",
#elif defined(__GNUC__)
                "gcc",
#else
                "unknown",
#endif
                __VERSION__);
    std::printf("# build: type=%s lto=%d flags=\"%s\"%s\n",
                PERFBENCH_BUILD_TYPE, PERFBENCH_LTO, PERFBENCH_CXX_FLAGS,
                std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0
                    ? "  WARNING: Debug build, timings are not "
                      "representative"
                    : "");
    std::printf("# scale: 1 (HTMSIM_SCALE %s, HTMSIM_VERBOSE %s)\n",
                (args.carry.ignoredEnv & kIgnoredScale) ? "ignored"
                                                        : "unset",
                (args.carry.ignoredEnv & kIgnoredVerbose) ? "ignored"
                                                          : "unset");
    std::printf("# nproc: %ld\n", sysconf(_SC_NPROCESSORS_ONLN));
    std::printf("# pinning: %s (ADDR_NO_RANDOMIZE)\n",
                pinned() ? "held" : "FAILED");
}

double
median(double* values, unsigned count)
{
    if (count == 0)
        return 0.0;
    std::sort(values, values + count);
    return count % 2 == 1
               ? values[count / 2]
               : 0.5 * (values[count / 2 - 1] + values[count / 2]);
}

double
seconds(double ns)
{
    return ns * 1e-9;
}

/** This image's peak resident set (VmHWM). Unlike getrusage's
 *  ru_maxrss it is not inherited across exec, so the launcher's own
 *  footprint does not leak in. Read without stdio: no heap use. */
double
peakRssMb()
{
    static char status[8192];
    const int fd = open("/proc/self/status", O_RDONLY);
    if (fd < 0)
        return 0.0;
    const ssize_t got = read(fd, status, sizeof status - 1);
    close(fd);
    if (got <= 0)
        return 0.0;
    status[got] = '\0';
    const char* line = std::strstr(status, "VmHWM:");
    return line == nullptr ? 0.0
                           : std::strtod(line + 6, nullptr) / 1024.0;
}

void
printPass(unsigned index, const PassResult& pass, const char* label)
{
    std::printf("pass %u%s: wall %.4f s, setup %.4f s, simulate %.4f s, "
                "%" PRIu64 " commits, %.2f ns/commit, cells %" PRIu64
                " failed %" PRIu64 ", digest %016" PRIx64 "\n",
                index, label, seconds(pass.wallNs), seconds(pass.setupNs),
                seconds(pass.simulateNs), pass.commits,
                pass.commits == 0 ? 0.0
                                  : pass.simulateNs / double(pass.commits),
                pass.cells, pass.failedCells, pass.model.digest);
    std::fflush(stdout);
}

/** Metric line of the final JSON object. */
struct Metric
{
    const char* name;
    const char* unit;
    double value;
};

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const Metric* metrics, unsigned count)
{
    std::printf("\n%-28s %22s  %s\n", "metric", "value", "unit");
    for (unsigned i = 0; i < count; ++i) {
        std::printf("%-28s %22.6f  %s\n", metrics[i].name,
                    metrics[i].value, metrics[i].unit);
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (unsigned i = 0; i < count; ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name,
                    metrics[i].value, metrics[i].unit);
    }
    std::printf("}}\n");
}

/** Untraced run: passes until the time is up; medians over passes. */
int
runEndToEnd(const Args& args)
{
    static double wall[kMaxPasses], setup[kMaxPasses],
        per_commit[kMaxPasses];
    std::uint64_t attempted = 0, failed = 0;
    unsigned passes = 0;
    double elapsed_ns = 0.0;
    while (passes < kMaxPasses &&
           (passes == 0 || elapsed_ns < args.seconds * 1e9)) {
        const PassResult pass = ::pass(args.workload, args.seed);
        printPass(passes + 1, pass, "");
        attempted += pass.cells;
        failed += pass.failedCells;
        wall[passes] = seconds(pass.wallNs);
        setup[passes] = seconds(pass.setupNs);
        per_commit[passes] = pass.commits == 0
                                 ? 0.0
                                 : pass.simulateNs / double(pass.commits);
        elapsed_ns += pass.wallNs;
        ++passes;
    }
    const Metric metrics[] = {
        {"wall_s", "s", median(wall, passes)},
        {"setup_s", "s", median(setup, passes)},
        {"ns_per_commit", "ns", median(per_commit, passes)},
        {"peak_rss_mb", "MB", peakRssMb()},
        {"failed_frac", "1",
         attempted == 0 ? 1.0 : double(failed) / double(attempted)},
    };
    std::printf("%u passes; medians over passes\n", passes);
    printResult(failed == 0, attempted, failed, metrics,
                unsigned(sizeof metrics / sizeof metrics[0]));
    return 0;
}

/** The per-layer metrics of one traced pass, in output order. */
constexpr unsigned kLayerMetrics = 24;

void
layerMetrics(const trace::Breakdown& b, double overhead, Metric* out)
{
    using namespace trace;
    const auto per = [](double ns, std::uint64_t count) {
        return count == 0 ? 0.0 : ns / double(count);
    };
    const double switch_ns = b.bucketNs[simSwitch];
    const double poll_ns = b.bucketNs[simPoll];
    const Metric metrics[kLayerMetrics] = {
        {"sim.switches", "count", double(b.switches)},
        {"sim.switch_ns", "ns", switch_ns},
        {"sim.ns_per_switch", "ns", per(switch_ns + poll_ns, b.switches)},
        {"sim.poll_ns", "ns", poll_ns},
        {"htm.sections", "count", double(b.sections)},
        {"htm.section_self_ns_p50", "ns", b.sectionSelfP50Ns},
        {"htm.section_self_ns_p99", "ns", b.sectionSelfP99Ns},
        {"htm.accesses", "count", double(b.accesses)},
        {"htm.access_ns", "ns", b.bucketNs[htmAccess]},
        {"htm.ns_per_access", "ns", per(b.bucketNs[htmAccess], b.accesses)},
        {"htm.begin_ns", "ns", b.bucketNs[htmBegin]},
        {"htm.commit_ns", "ns", b.bucketNs[htmCommit]},
        {"htm.aborts", "count", double(b.aborts)},
        {"htm.abort_ns", "ns", b.bucketNs[htmAbort]},
        {"htm.ns_per_abort", "ns", per(b.bucketNs[htmAbort], b.aborts)},
        {"htm.fallbacks", "count", double(b.fallbacks)},
        {"htm.fallback_ns", "ns", b.bucketNs[htmFallback]},
        {"htm.useful_frac", "1",
         b.attempts == 0 ? 0.0 : double(b.commits) / double(b.attempts)},
        {"workload.body_ns", "ns", b.bucketNs[workloadBody]},
        {"workload.nontx_ns", "ns", b.bucketNs[workloadNonTx]},
        {"check.runs", "count", double(b.checkRuns)},
        {"check.run_ns_p50", "ns", b.checkRunP50Ns},
        {"check.run_ns_p99", "ns", b.checkRunP99Ns},
        {"trace.overhead_frac", "1", overhead},
    };
    std::copy(metrics, metrics + kLayerMetrics, out);
}

/** Traced run, in the image re-executed after the reference pass. */
int
runTraced(const Args& args)
{
    constexpr unsigned kModelMetrics = 11;
    static double values[kLayerMetrics][kMaxPasses];
    static Metric layer[kLayerMetrics];
    Metric model[kModelMetrics] = {};
    std::uint64_t attempted = 0, failed = 0;
    unsigned passes = 0;
    double elapsed_ns = 0.0;
    trace::setEnabled(true);
    while (passes < kMaxPasses &&
           (passes == 0 || elapsed_ns < args.seconds * 1e9)) {
        trace::begin();
        const PassResult pass = ::pass(args.workload, args.seed);
        const trace::Breakdown b = trace::end();
        printPass(passes + 1, pass, " (traced)");
        attempted += pass.cells;
        failed += pass.failedCells;
        elapsed_ns += pass.wallNs;

        double total_ns = 0.0;
        std::printf("  %-18s %14s %8s\n", "layer", "ns", "share");
        for (unsigned k = 0; k < trace::kBuckets; ++k)
            total_ns += b.bucketNs[k];
        for (unsigned k = 0; k < trace::kBuckets; ++k) {
            std::printf("  %-18s %14.0f %7.2f%%\n", trace::bucketName(k),
                        b.bucketNs[k],
                        total_ns == 0.0 ? 0.0
                                        : 100.0 * b.bucketNs[k] / total_ns);
        }
        // The layer times charged inside simulation spans must add up
        // to those spans' steady_clock durations, measured outside the
        // tracer. Dropped spans, time charged outside the spans or a
        // wrong tick-to-ns conversion break the sum.
        const double diff =
            pass.spanNs == 0.0
                ? 1.0
                : (b.attributedSimNs - pass.spanNs) / pass.spanNs;
        const bool sums = b.stackOverflows == 0 &&
                          std::abs(diff) <= kSumTolerance;
        std::printf("  layers %.0f ns vs clock %.0f ns over simulation "
                    "spans (%+.3f%%, tolerance %.1f%%): %s\n",
                    b.attributedSimNs, pass.spanNs, 100.0 * diff,
                    100.0 * kSumTolerance, sums ? "sums" : "MISMATCH");
        ++attempted;
        failed += sums ? 0 : 1;

        if (passes == 0) {
            // Only the first pass starts from the pristine image the
            // reference pass had; later passes see a recycled heap.
            const bool same = pass.model.digest == args.carry.digest;
            std::printf("  digest %016" PRIx64 " vs untraced reference "
                        "%016" PRIx64 ": %s\n",
                        pass.model.digest, args.carry.digest,
                        same ? "reproduced" : "MISMATCH");
            ++attempted;
            failed += same ? 0 : 1;
            const ModelStats& m = pass.model;
            const Metric first[kModelMetrics] = {
                // 52 bits, so the JSON number is exact.
                {"model.digest", "hash",
                 double(m.digest & ((std::uint64_t(1) << 52) - 1))},
                {"model.speedup_geomean", "x", m.speedupGeomean},
                {"model.fig2_log_err", "1", m.fig2LogErr},
                {"model.abort_ratio", "1", m.abortRatio},
                {"model.wasted_work_ratio", "1", m.wastedWorkRatio},
                {"model.tx_accesses", "count", double(m.txAccesses)},
                {"model.aborts", "count", double(m.aborts)},
                {"model.lock_wait_cycles", "cycles",
                 double(m.lockWaitCycles)},
                {"model.p50_cycles", "cycles", double(m.p50Cycles)},
                {"model.p99_cycles", "cycles", double(m.p99Cycles)},
                {"model.p999_cycles", "cycles", double(m.p999Cycles)},
            };
            std::copy(first, first + kModelMetrics, model);
            std::printf("  model.fig2_log_err is the error against the "
                        "paper's Fig. 2 chart readings\n");
        }
        const double overhead =
            args.carry.simulateNs == 0
                ? 0.0
                : pass.simulateNs / double(args.carry.simulateNs) - 1.0;
        layerMetrics(b, overhead, layer);
        for (unsigned k = 0; k < kLayerMetrics; ++k)
            values[k][passes] = layer[k].value;
        ++passes;
    }
    trace::setEnabled(false);

    static Metric metrics[kLayerMetrics + kModelMetrics];
    for (unsigned k = 0; k < kLayerMetrics; ++k) {
        metrics[k] = layer[k];
        metrics[k].value = median(values[k], passes);
    }
    std::copy(model, model + kModelMetrics, metrics + kLayerMetrics);
    std::printf("%u traced passes; per-layer values are medians over "
                "passes\n",
                passes);
    printResult(failed == 0, attempted, failed, metrics,
                kLayerMetrics + kModelMetrics);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    // A static stdout buffer: printing must not touch the heap, whose
    // layout is simulated state.
    static char stdout_buffer[1 << 16];
    std::setvbuf(stdout, stdout_buffer, _IOFBF, sizeof stdout_buffer);

    Args args = parseArgs(argc, argv);
    if (args.stage == 0) {
        Carry carry;
        if (std::getenv("HTMSIM_SCALE") != nullptr) {
            unsetenv("HTMSIM_SCALE");
            carry.ignoredEnv |= kIgnoredScale;
        }
        if (std::getenv("HTMSIM_VERBOSE") != nullptr) {
            unsetenv("HTMSIM_VERBOSE");
            carry.ignoredEnv |= kIgnoredVerbose;
        }
        const int persona = personality(0xffffffff);
        if (persona == -1 ||
            personality(unsigned(persona) | ADDR_NO_RANDOMIZE) == -1) {
            std::perror("perfbench: personality(ADDR_NO_RANDOMIZE)");
            return 3;
        }
        reexec(argc, argv, 1, carry);
    }
    if (!pinned()) {
        std::fprintf(stderr, "perfbench: address-space pinning did not "
                             "hold; simulated results would not "
                             "reproduce\n");
        return 3;
    }
    // Before any simulated allocation, in every mode and image.
    trace::reserveStorage();
    reservePassStack();
    printProvenance(args);

    if (!args.traced)
        return runEndToEnd(args);
    if (args.stage == 1) {
        const PassResult reference = pass(args.workload, args.seed);
        printPass(0, reference, " (untraced reference)");
        Carry carry = args.carry;
        carry.digest = reference.model.digest;
        carry.simulateNs = std::uint64_t(reference.simulateNs);
        reexec(argc, argv, 2, carry);
    }
    return runTraced(args);
}
