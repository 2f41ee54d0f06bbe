/// taqos benchmark harness.
///
///   taqos_bench --workload NAME --seed N --seconds S --trace 0|1
///               [--workdir DIR] [--reference FILE] [--commit ID]
///   taqos_bench --record-reference --workload NAME --seed N ...
///   taqos_bench --selftest [--workdir DIR]
///
/// A run repeats the workload's batch job until --seconds have passed
/// (at least three batches; a traced run alternates untraced and traced
/// batches, at least one of each) and prints, as the last line of
/// stdout, one JSON object: {"correct", "attempted", "failed",
/// "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
/// per-layer ones. Earlier lines carry the machine fingerprint and a
/// human-readable report of every metric. See perfbench/NOTES.md.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "selftest.h"
#include "workloads.h"

#ifndef TAQOS_BENCH_COMPILER
#define TAQOS_BENCH_COMPILER "unknown"
#endif
#ifndef TAQOS_BENCH_BUILD_TYPE
#define TAQOS_BENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20;
    bool trace = false;
    std::string workdir = ".bench_build/work";
    std::string reference = "perfbench/reference.txt";
    std::string commit = "unknown";
    bool recordReference = false;
    bool selftest = false;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "taqos_bench: %s\nusage: taqos_bench --workload NAME "
                 "--seed N --seconds S --trace 0|1 "
                 "[--workdir DIR] [--reference FILE] [--commit ID]\n"
                 "       taqos_bench --record-reference --workload NAME "
                 "--seed N\n       taqos_bench --selftest\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--record-reference") {
            a.recordReference = true;
            continue;
        }
        if (k == "--selftest") {
            a.selftest = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        try {
            if (k == "--workload") {
                a.workload = v;
                haveWorkload = true;
            } else if (k == "--seed") {
                a.seed = std::stoull(v);
            } else if (k == "--seconds") {
                a.seconds = std::stod(v);
            } else if (k == "--trace") {
                a.trace = std::stoi(v) != 0;
            } else if (k == "--workdir") {
                a.workdir = v;
            } else if (k == "--reference") {
                a.reference = v;
            } else if (k == "--commit") {
                a.commit = v;
            } else {
                usage(("unknown option " + k).c_str());
            }
        } catch (const std::exception &) {
            usage(("bad value for " + k).c_str());
        }
    }
    if (!a.selftest && !haveWorkload)
        usage("--workload is required");
    if (a.seconds <= 0)
        usage("--seconds must be positive");
    return a;
}

std::string
fingerprint(const Args &a)
{
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "{\"fingerprint\": {\"nproc\": %u, \"compiler\": \"%s\", "
        "\"build_type\": \"%s\", \"commit\": \"%s\", \"seed\": %llu, "
        "\"workload\": \"%s\", \"threads\": 1, \"trace\": %d}}",
        std::thread::hardware_concurrency(), TAQOS_BENCH_COMPILER,
        TAQOS_BENCH_BUILD_TYPE, a.commit.c_str(),
        static_cast<unsigned long long>(a.seed), a.workload.c_str(),
        a.trace ? 1 : 0);
    return buf;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::vector<Metric>
endToEnd(const std::vector<BatchResult> &plain, double peakRss)
{
    std::vector<double> wall;
    std::vector<double> setup;
    std::vector<double> cells;
    double flits = 0;
    double flitS = 0;
    for (const auto &b : plain) {
        wall.push_back(b.wallS);
        setup.insert(setup.end(), b.setupS.begin(), b.setupS.end());
        cells.insert(cells.end(), b.cellS.begin(), b.cellS.end());
        flits += b.flits;
        flitS += b.flitSimS;
    }
    return {
        {"wall_s", median(wall), "s"},
        {"setup_s", median(setup), "s"},
        {"sim_flits_per_s", flitS > 0 ? flits / flitS : 0.0, "1/s"},
        {"cell_s_p50", median(cells), "s"},
        {"cell_s_p90", percentile(cells, 0.9), "s"},
        {"peak_rss_mb", peakRss, "MB"},
    };
}

/// Metrics the report prints by name but the JSON line does not carry
/// (they are zero on some workloads; see NOTES.md).
std::vector<Metric>
reportOnly(const std::vector<BatchResult> &plain, const Checks &checks,
           std::size_t cellSamples)
{
    std::vector<double> cached, warm, audit;
    for (const auto &b : plain) {
        cached.push_back(b.cachedSweepS);
        warm.push_back(b.warmStartS);
        audit.push_back(b.auditS);
    }
    return {
        {"cached_sweep_s", median(cached), "s"},
        {"warm_start_s", median(warm), "s"},
        {"audit_s", median(audit), "s"},
        {"failed_ratio",
         checks.attempted > 0 ? static_cast<double>(checks.failed) /
                                    static_cast<double>(checks.attempted)
                              : 0.0,
         "ratio"},
        {"cell_samples", static_cast<double>(cellSamples), "count"},
        {"batches", static_cast<double>(plain.size()), "count"},
    };
}

std::vector<Metric>
perLayer(const std::vector<BatchResult> &plain,
         const std::vector<BatchResult> &traced)
{
    LayerTrace t;
    std::vector<double> tracedWall, plainWall;
    for (const auto &b : traced) {
        t.merge(b.layer);
        tracedWall.push_back(b.wallS);
    }
    // The exp layer and SweepRunner's cache counts are read from the
    // untraced batches: they are the ones that run SweepRunner.
    double expCells = 0, expBusy = 0, expWall = 0, expJson = 0;
    double hits = 0, misses = 0;
    for (const auto &b : plain) {
        plainWall.push_back(b.wallS);
        expCells += b.expCells;
        expBusy += b.expCellSumS;
        expWall += b.expLoopWallS;
        expJson += b.expJsonS;
        hits += static_cast<double>(b.layer.cacheHits);
        misses += static_cast<double>(b.layer.cacheMisses);
    }
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
    const double nt = std::max<double>(1.0, static_cast<double>(traced.size()));
    const double np = std::max<double>(1.0, static_cast<double>(plain.size()));
    const double simS = t.simS[0] + t.simS[1] + t.simS[2];
    const double cycles = u(t.simCycles[0] + t.simCycles[1] + t.simCycles[2]);
    const double hops = t.usefulHops + t.wastedHops;
    const double overhead = median(tracedWall) - median(plainWall);
    return {
        {"sim.ns_per_cycle.warmup", 1e9 * ratio(t.simS[0], u(t.simCycles[0])), "ns"},
        {"sim.ns_per_cycle.measure", 1e9 * ratio(t.simS[1], u(t.simCycles[1])), "ns"},
        {"sim.ns_per_cycle.drain", 1e9 * ratio(t.simS[2], u(t.simCycles[2])), "ns"},
        {"sim.ns_per_flit", 1e9 * ratio(simS, u(t.flits)), "ns"},
        {"sim.cycles", cycles / nt, "count"},
        {"sim.flits", u(t.flits) / nt, "count"},
        {"traffic.ns_per_cycle", 1e9 * ratio(t.trafficS, u(t.trafficCycles)), "ns"},
        {"traffic.packets", u(t.trafficPackets) / nt, "count"},
        {"traffic.share", ratio(t.trafficS, simS), "ratio"},
        {"router.hops", hops / nt, "count"},
        {"qos.preemptions", u(t.preemptions) / nt, "count"},
        {"qos.wasted_hop_ratio", ratio(t.wastedHops, hops), "ratio"},
        {"qos.useful_attempt_ratio", ratio(u(t.delivered), u(t.attempts)), "ratio"},
        {"topo.build_ms.column", 1e3 * ratio(t.buildS[0], u(t.builds[0])), "ms"},
        {"topo.build_ms.chip", 1e3 * ratio(t.buildS[1], u(t.builds[1])), "ms"},
        {"topo.build_ms.fabric", 1e3 * ratio(t.buildS[2], u(t.builds[2])), "ms"},
        {"topo.routers", u(t.routers) / nt, "count"},
        {"chip.churn_events", u(t.churnEvents) / nt, "count"},
        {"chip.reprogram_us", 1e6 * ratio(t.reprogramS, u(t.reprograms)), "us"},
        {"fabric.handoffs", u(t.handoffs) / nt, "count"},
        {"fabric.link_hops", u(t.linkHops) / nt, "count"},
        {"exp.cells", expCells / np, "count"},
        {"exp.pool_busy_ratio", ratio(expBusy, expWall), "ratio"},
        {"exp.json_ms", 1e3 * expJson / np, "ms"},
        {"cache.load_us_p50", 1e6 * median(t.cacheLoadS), "us"},
        {"cache.store_us_p50", 1e6 * median(t.cacheStoreS), "us"},
        {"cache.hits", hits / np, "count"},
        {"cache.misses", misses / np, "count"},
        {"cache.hit_ratio", ratio(hits, hits + misses), "ratio"},
        {"cache.fragment_bytes", u(t.fragmentBytes) / nt, "bytes"},
        {"ckpt.save_ms", 1e3 * ratio(t.ckptSaveS, u(t.ckptSaves)), "ms"},
        {"ckpt.restore_ms", 1e3 * ratio(t.ckptRestoreS, u(t.ckptRestores)), "ms"},
        {"ckpt.bytes", ratio(u(t.ckptBytes), u(t.ckptSaves)), "bytes"},
        {"verify.record_overhead_ratio",
         t.plainRunS > 0 ? t.recordedRunS / t.plainRunS - 1.0 : 0.0, "ratio"},
        {"verify.parse_ms", 1e3 * ratio(t.parseS, u(t.traces)), "ms"},
        {"verify.check_ms", 1e3 * ratio(t.checkS, u(t.traces)), "ms"},
        {"verify.events", u(t.events) / nt, "count"},
        {"verify.ns_per_event", 1e9 * ratio(t.checkS, u(t.events)), "ns"},
        {"verify.trace_bytes", u(t.traceBytes) / nt, "bytes"},
        {"trace.overhead_s", overhead, "s"},
        {"trace.overhead_ratio", ratio(overhead, median(plainWall)), "ratio"},
    };
}

void
printReport(const char *title, const std::vector<Metric> &ms)
{
    std::printf("%s\n", title);
    for (const auto &m : ms)
        std::printf("  %-30s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

int
runMain(const Args &args)
{
    std::filesystem::create_directories(args.workdir);
    if (args.selftest)
        return runSelftest(args.workdir);

    Options opts;
    opts.seed = args.seed;
    opts.workdir = args.workdir;
    std::unique_ptr<Workload> wl = makeWorkload(args.workload, opts);
    if (!wl)
        usage(("unknown workload " + args.workload).c_str());

    std::printf("%s\n", fingerprint(args).c_str());
    std::printf("model accuracy: unvalidated (no hardware reference); "
                "correctness is bit-identity to the committed records\n");

    if (args.recordReference) {
        const BatchResult b = wl->runBatch(false);
        std::printf("%s\n", Reference::formatLine(args.workload, args.seed,
                                                  b.records)
                                .c_str());
        return b.checks.failed == 0 ? 0 : 1;
    }

    const Reference ref(args.reference);
    const std::vector<std::uint64_t> *expected =
        ref.find(args.workload, args.seed);
    std::printf("reference records for seed %llu: %s\n",
                static_cast<unsigned long long>(args.seed),
                expected ? "committed" : "none (seed-independent checks)");

    Checks checks;
    std::vector<BatchResult> plain, traced;
    // Peak RSS of a process that has run the job once. Later batches
    // re-run it in a heap that the earlier ones left behind, and glibc's
    // placement of the large trace buffers then depends on that history:
    // reuse_audit's peak rose by 18 MB after some batch in some runs and
    // not in others.
    double peakRss = 0;
    const double start = now();
    // Three untraced batches at least: the chip grid's 48 cells then give
    // 144 cell samples, more than ten of them beyond the p90.
    const std::size_t minPlain = args.trace ? 1 : 3;
    const std::size_t minTraced = args.trace ? 1 : 0;
    for (int i = 0;; ++i) {
        const bool tracedBatch = args.trace && i % 2 == 1;
        BatchResult b = wl->runBatch(tracedBatch);
        checks.merge(b.checks);
        if (!tracedBatch) {
            checkAgainstReference(expected, b.records, checks);
            if (!plain.empty())
                checkBatchRepeats(plain.front().records, b.records, checks);
        }
        (tracedBatch ? traced : plain).push_back(std::move(b));
        if (i == 0)
            peakRss = peakRssMb();
        const double elapsed = now() - start;
        const double last = (tracedBatch ? traced : plain).back().wallS;
        const bool enough = plain.size() >= minPlain &&
                            traced.size() >= minTraced;
        // Stop when the next batch would overrun the measuring time, and
        // never run past two minutes whatever the batch count.
        if ((enough && elapsed + last > args.seconds) || elapsed > 120.0)
            break;
    }

    std::printf("batch wall seconds:");
    for (const auto &b : plain)
        std::printf(" %.3f", b.wallS);
    for (const auto &b : traced)
        std::printf(" %.3f(traced)", b.wallS);
    std::printf("\n");

    std::size_t cellSamples = 0;
    for (const auto &b : plain)
        cellSamples += b.cellS.size();
    const std::vector<Metric> e2e = endToEnd(plain, peakRss);
    printReport("end-to-end (untraced batches):", e2e);
    printReport("reported by name:", reportOnly(plain, checks, cellSamples));
    std::vector<Metric> layers;
    if (args.trace) {
        layers = perLayer(plain, traced);
        printReport("per-layer (traced batches):", layers);
    }
    for (const auto &d : checks.diagnostics)
        std::printf("FAILED CHECK: %s\n", d.c_str());

    const std::vector<Metric> &out = args.trace ? layers : e2e;
    std::string json = "{\"correct\": ";
    json += checks.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(checks.attempted);
    json += ", \"failed\": " + std::to_string(checks.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < out.size(); ++i) {
        json += (i ? ", \"" : "\"") + out[i].name + "\": {\"value\": " +
                jsonNumber(out[i].value) + ", \"unit\": \"" + out[i].unit +
                "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    try {
        return runMain(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "taqos_bench: %s\n", e.what());
        return 1;
    }
}
