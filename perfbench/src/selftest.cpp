#include "selftest.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include "core/experiments.h"
#include "exp/cell_cache.h"
#include "harness.h"
#include "sim/trace_record.h"
#include "verify/flit_trace.h"
#include "workloads.h"

namespace fs = std::filesystem;
using namespace taqos;

namespace perfbench {
namespace {

int g_failures = 0;

void
report(const char *test, bool pass, const std::string &detail = "")
{
    std::printf("selftest %-28s %s%s%s\n", test, pass ? "PASS" : "FAIL",
                detail.empty() ? "" : "  ", detail.c_str());
    if (!pass)
        ++g_failures;
}

/// A small real sweep cell (test-length phases).
CellSpec
smallCell(std::uint64_t seed)
{
    CellSpec c;
    c.scenario = Scenario::LatencyLoad;
    c.topology = TopologyKind::Dps;
    c.pattern = TrafficPattern::UniformRandom;
    c.mode = QosMode::Pvc;
    c.rate = 0.05;
    c.seed = seed;
    c.phases = testPhases();
    return c;
}

/// The record with metric `name` moved by one ulp.
CellResult
nudged(CellResult r, const char *name)
{
    for (auto &[k, v] : r.metrics) {
        if (k == name) {
            v = std::nextafter(v, INFINITY);
            return r;
        }
    }
    TAQOS_ASSERT(false, "record has no metric %s", name);
    return r;
}

std::string
readFile(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
writeFile(const fs::path &p, const std::string &s)
{
    std::ofstream out(p, std::ios::binary);
    out << s;
}

/// Runs one check with the right input and once per wrong input: the
/// right one must count no failure, each wrong one exactly one.
void
expectCatches(const char *test, const std::function<void(Checks &)> &right,
              const std::vector<std::function<void(Checks &)>> &wrong)
{
    Checks ok;
    right(ok);
    bool pass = ok.attempted > 0 && ok.failed == 0;
    std::string detail;
    for (const auto &w : wrong) {
        Checks bad;
        w(bad);
        pass = pass && bad.failed == 1;
        if (detail.empty() && !bad.diagnostics.empty())
            detail = bad.diagnostics.front();
    }
    report(test, pass, detail);
}

void
testReference(const CellResult &good)
{
    const std::vector<std::uint64_t> expected{recordDigest(good)};
    expectCatches(
        "reference_mismatch",
        [&](Checks &ck) {
            checkAgainstReference(&expected, {recordDigest(good)}, ck);
        },
        {[&](Checks &ck) {
             checkAgainstReference(
                 &expected, {recordDigest(nudged(good, "avg_latency"))}, ck);
         },
         [&](Checks &ck) { checkAgainstReference(&expected, {}, ck); }});
}

/// Traced replicas against the sweep's record of the same cell.
void
testTracedReplicas()
{
    const CellSpec col = smallCell(11);
    const CellResult colRef = SweepRunner::runCell(col);
    LayerTrace lt;
    expectCatches(
        "traced_column_replica",
        [&](Checks &ck) { tracedColumnCell(col, &colRef, lt, ck); },
        {[&](Checks &ck) {
             const CellResult bad = nudged(colRef, "avg_latency");
             tracedColumnCell(col, &bad, lt, ck);
         }});

    CellSpec chip;
    for (const auto &c : chipChurnSpec(1).expand()) {
        if (c.workloadSpec.kind == WorkloadKind::Churn) {
            chip = c;
            break;
        }
    }
    const CellResult chipRef = SweepRunner::runCell(chip);
    expectCatches(
        "traced_chip_replica",
        [&](Checks &ck) { tracedChipCell(chip, &chipRef, lt, ck); },
        {[&](Checks &ck) {
             const CellResult bad = nudged(chipRef, "handoffs");
             tracedChipCell(chip, &bad, lt, ck);
         },
         [&](Checks &ck) {
             const CellResult bad = nudged(chipRef, "churn_arrivals");
             tracedChipCell(chip, &bad, lt, ck);
         }});
}

/// The cold sweep, the cached reruns and the fragment round trip. A
/// fragment whose value was altered on disk still loads: only the
/// benchmark's comparisons with the cold records notice.
void
testCache(const fs::path &dir)
{
    fs::remove_all(dir);
    SweepSpec spec;
    spec.name = "selftest_cache";
    spec.scenario = Scenario::LatencyLoad;
    spec.topologies = {TopologyKind::Dps};
    spec.patterns = {TrafficPattern::UniformRandom};
    spec.modes = {QosMode::Pvc};
    spec.rates = {0.05, 0.08};
    spec.phases = testPhases();
    const std::size_t n = spec.expand().size();
    const SweepRunner runner(1);
    CellCache cache(dir.string());
    const SweepResult cold = runner.run(spec, &cache);
    const std::string coldJson = cold.toJson();
    const SweepResult hot = runner.run(spec, &cache);
    expectCatches(
        "cold_cache_not_empty",
        [&](Checks &ck) { checkColdSweep(cold, n, ck); },
        {[&](Checks &ck) { checkColdSweep(hot, n, ck); }});

    const CellResult &first = cold.cells.front();
    const fs::path frag = dir / CellCache::fragmentName(
                                    CellCache::cellKey(first.spec));
    const std::string good = readFile(frag);
    std::string text = good;
    const std::size_t at = text.find("\navg_latency ");
    const std::size_t eol = text.find('\n', at + 1);
    text.replace(at, eol - at, "\navg_latency 0x1p+0");
    const auto altered = [&](const std::function<void()> &f) {
        writeFile(frag, text);
        f();
        writeFile(frag, good);
    };
    LayerTrace lt;
    expectCatches(
        "cached_sweep_altered",
        [&](Checks &ck) {
            checkCachedSweep(runner.run(spec, &cache), coldJson, n, ck);
        },
        {[&](Checks &ck) {
            altered([&] {
                checkCachedSweep(runner.run(spec, &cache), coldJson, n, ck);
            });
        }});
    expectCatches(
        "cache_fragment_altered",
        [&](Checks &ck) { checkCacheLoad(cache, first, lt, ck); },
        {[&](Checks &ck) {
            altered([&] { checkCacheLoad(cache, first, lt, ck); });
        }});
    fs::remove_all(dir);
}

/// Sidecar warm starts, and the traced path's hand-made checkpoints.
void
testWarmStart(const CellResult &ref, const fs::path &sidecar)
{
    const std::string path = sidecar.string();
    double secs = 0;
    fs::remove(sidecar);
    expectCatches(
        "sidecar_cold_differs",
        [&](Checks &ck) {
            fs::remove(sidecar);
            sidecarColdRun(ref, path, secs, ck);
        },
        {[&](Checks &ck) {
            fs::remove(sidecar);
            sidecarColdRun(nudged(ref, "avg_latency"), path, secs, ck);
        }});

    // The sidecar of `ref`'s cell is on disk now.
    const std::string snap = readFile(sidecar);
    expectCatches(
        "warm_differs_from_cold",
        [&](Checks &ck) { sidecarWarmRun(ref, path, secs, ck); },
        {[&](Checks &ck) {
             sidecarWarmRun(nudged(ref, "avg_latency"), path, secs, ck);
         },
         [&](Checks &ck) {
             writeFile(sidecar, snap.substr(0, snap.size() / 2));
             sidecarWarmRun(ref, path, secs, ck);
             writeFile(sidecar, snap);
         }});
    fs::remove(sidecar);

    LayerTrace lt;
    std::uint64_t digest = 0;
    std::string manual;
    expectCatches(
        "manual_cold_differs",
        [&](Checks &ck) { manual = manualColdRun(ref, digest, lt, ck); },
        {[&](Checks &ck) {
            std::uint64_t d = 0;
            manualColdRun(nudged(ref, "window_flits"), d, lt, ck);
        }});
    expectCatches(
        "restore_differs",
        [&](Checks &ck) { checkRestore(ref.spec, manual, digest, lt, ck); },
        {[&](Checks &ck) {
             checkRestore(ref.spec, manual, digest ^ 1, lt, ck);
         },
         [&](Checks &ck) {
             checkRestore(ref.spec, manual.substr(0, manual.size() / 2),
                          digest, lt, ck);
         }});
}

/// The flit-trace audit on reuse_audit's first trace job.
void
testTraceChecks(const fs::path &dir)
{
    fs::create_directories(dir);
    TraceRecorder rec(
        describeColumn(paperColumn(TopologyKind::Dps, QosMode::Pvc)));
    const std::uint64_t digest = traceJobRun(0, 1, &rec);
    const FlitTrace &trace = rec.trace();
    LayerTrace lt;
    expectCatches(
        "trace_recording_changed_run",
        [&](Checks &ck) { checkRecordingNeutral(0, 1, digest, lt, ck); },
        {[&](Checks &ck) {
            checkRecordingNeutral(0, 1, digest ^ 1, lt, ck);
        }});

    const fs::path good = dir / "good.trace";
    writeFile(good, serializeFlitTrace(trace));
    const std::string text = readFile(good);

    // One delivery dropped: the packet is never delivered in a drained
    // run, a checker violation.
    FlitTrace lost = trace;
    for (std::size_t i = 0; i < lost.events.size(); ++i) {
        if (lost.events[i].kind == TraceEventKind::Deliver) {
            lost.events.erase(lost.events.begin() +
                              static_cast<std::ptrdiff_t>(i));
            break;
        }
    }
    const fs::path dropped = dir / "dropped.trace";
    writeFile(dropped, serializeFlitTrace(lost));
    // A file cut in half is a parse error, not a crash.
    const fs::path cut = dir / "truncated.trace";
    writeFile(cut, text.substr(0, text.size() / 2));

    const std::size_t events = trace.events.size();
    expectCatches(
        "trace_audit",
        [&](Checks &ck) { auditTraceFile(good.string(), events, lt, ck); },
        {[&](Checks &ck) {
             auditTraceFile(dropped.string(), lost.events.size(), lt, ck);
         },
         [&](Checks &ck) { auditTraceFile(cut.string(), events, lt, ck); },
         [&](Checks &ck) {
             auditTraceFile(good.string(), events + 1, lt, ck);
         }});
    fs::remove_all(dir);
}

/// Every workload on seeds 1, 1 again and 2. The repeat must match the
/// first batch and the other seed must not (the batch-repeat check
/// counts one failure); and two seeds must share no record, or a seed
/// that did not reach the inputs would make the reference check vacuous.
void
testSeeds(const std::string &workdir)
{
    for (const auto &name : workloadNames()) {
        std::vector<std::uint64_t> recs[3];
        for (int i = 0; i < 3; ++i) {
            Options o;
            o.seed = i < 2 ? 1 : 2;
            o.workdir = workdir;
            recs[i] = makeWorkload(name, o)->runBatch(false).records;
        }
        expectCatches(
            ("batch_repeat_" + name).c_str(),
            [&](Checks &ck) { checkBatchRepeats(recs[0], recs[1], ck); },
            {[&](Checks &ck) { checkBatchRepeats(recs[0], recs[2], ck); }});
        std::size_t same = 0;
        for (std::size_t i = 0; i < recs[0].size() && i < recs[2].size();
             ++i) {
            if (recs[0][i] == recs[2][i])
                ++same;
        }
        report(("seeds_differ_" + name).c_str(),
               recs[0].size() == recs[2].size() && same == 0,
               std::to_string(same) + " of " +
                   std::to_string(recs[0].size()) + " records equal");
    }
}

} // namespace

int
runSelftest(const std::string &workdir)
{
    const fs::path dir = fs::path(workdir) / "selftest";
    fs::create_directories(dir);
    const CellResult cold = SweepRunner::runCell(smallCell(7));

    testReference(cold);
    testTracedReplicas();
    testCache(dir / "cache");
    testWarmStart(cold, dir / "warm.ckpt");
    testTraceChecks(dir / "traces");
    testSeeds(workdir);
    fs::remove_all(dir);
    std::printf("selftest: %s (%d failing)\n",
                g_failures == 0 ? "all checks catch their failure" : "FAIL",
                g_failures);
    return g_failures == 0 ? 0 : 1;
}

} // namespace perfbench
