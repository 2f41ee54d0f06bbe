#include "workloads.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include "chip/churn.h"
#include "chip/os.h"
#include "core/experiments.h"
#include "exp/cell_cache.h"
#include "sim/chip_sim.h"
#include "sim/column_sim.h"
#include "sim/fabric_sim.h"
#include "sim/trace_record.h"
#include "traffic/workloads.h"
#include "verify/flit_trace.h"

namespace fs = std::filesystem;
using namespace taqos;

namespace perfbench {
namespace {

/// The paper's 20k/50k/30k run phases scaled by 1/8 (same proportions),
/// so a column grid spanning every topology and load fits a batch of a
/// few seconds: on a shared host, a run's median over many short batches
/// is far steadier than over two long ones.
constexpr RunPhases kColumnPhases{2500, 6250, 3750};

/// The paper's 50k-cycle measure window (one QOS frame, so that the epoch
/// boundary of a `churn:frames=1` cell falls inside it) and 30k drain
/// budget, after a 5k warmup instead of 20k: three batches of the chip
/// grid then fit a 30-second run, giving at least 100 cell samples.
constexpr RunPhases kChipPhases{5000, 50000, 30000};

enum Phase { kWarmup = 0, kMeasure = 1, kDrain = 2 };
enum BuildKind { kColumn = 0, kChip = 1, kFabric = 2 };

WorkloadSpec
workloadSpec(const char *text)
{
    std::string err;
    auto ws = WorkloadSpec::parse(text, &err);
    TAQOS_ASSERT(ws.has_value(), "bad workload spec %s: %s", text,
                 err.c_str());
    return *ws;
}

/// Seeds a spec's base seed from the benchmark seed.
std::uint64_t
baseSeed(std::uint64_t seed, std::uint64_t salt)
{
    return mix64(seed * 0x100000001b3ull ^ salt);
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/// One named value of a traced replica against the sweep's own record
/// of the same cell.
void
expectRecordValue(Checks &ck, const CellResult *ref, const char *name,
                  double got)
{
    if (ref == nullptr)
        return;
    ck.expect(ref->has(name) && sameBits(ref->get(name), got),
              std::string("traced replica differs from the sweep record "
                          "on ") +
                  name);
}

/// A standalone copy of a sim's traffic generator, ticked over the same
/// cycles with its output queues drained every cycle, so queue-depth
/// suppression never changes the work: the generator's share of the
/// cycle, measured outside the engine.
class TrafficReplay {
  public:
    TrafficReplay(const ColumnConfig &col, const TrafficConfig &traffic,
                  const WorkloadSpec &ws)
        : gen_(col, traffic, ws),
          metrics_(col.numFlows()),
          queues_(static_cast<std::size_t>(col.numFlows()))
    {
    }

    TrafficGenerator &generator() { return gen_; }

    /// Ticks cycles [from, to).
    void run(Cycle from, Cycle to, LayerTrace &lt)
    {
        const double t0 = now();
        for (Cycle c = from; c < to; ++c) {
            gen_.tick(c, pool_, queues_, metrics_);
            for (auto &q : queues_) {
                while (!q.queue().empty())
                    pool_.release(q.dequeue());
            }
        }
        lt.trafficS += now() - t0;
        lt.trafficCycles += to - from;
    }

    std::uint64_t packets() const { return metrics_.generatedPackets; }

  private:
    TrafficGenerator gen_;
    PacketPool pool_;
    SimMetrics metrics_;
    std::vector<InjectorQueue> queues_;
};

/// Set-up time of a sweep: every cell's sim built once, outside the
/// runner (which builds its own inside each cell). One build of the
/// whole grid is one sample; a batch takes kSetupReps of them, so that a
/// millisecond-scale figure is steady. This is extra work of the
/// benchmark's own, so its time is kept out of the batch job's.
constexpr std::size_t kSetupReps = 24;

double
setupRep(const std::vector<CellSpec> &cells,
         const std::function<void(const CellSpec &)> &buildSim)
{
    return timed([&] {
        for (const auto &c : cells)
            buildSim(c);
    });
}

/// Untraced sweep batch shared by column_sweep and chip_churn: spec
/// expansion, the cells through SweepRunner::runCell one after another,
/// then the exp layer's aggregation and JSON output. The set-up samples
/// are taken between cells, spread over the batch as the cells are: the
/// host's speed drifts over seconds, and samples taken together would all
/// see one speed.
BatchResult
plainSweep(const SweepSpec &spec,
           const std::function<void(const CellSpec &)> &buildSim,
           const std::function<double(const CellResult &)> &windowFlits,
           std::vector<CellResult> &out)
{
    BatchResult b;
    const double t0 = now();
    const SweepSpec canon = spec.canonical();
    const std::vector<CellSpec> cells = canon.expand();
    out.assign(cells.size(), CellResult{});
    const std::size_t stride =
        std::max<std::size_t>(1, cells.size() / kSetupReps);
    double setupSpan = 0;
    const double p0 = now();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i % stride == 0 && b.setupS.size() < kSetupReps) {
            b.setupS.push_back(setupRep(cells, buildSim));
            setupSpan += b.setupS.back();
        }
        b.cellS.push_back(
            timed([&] { out[i] = SweepRunner::runCell(cells[i]); }));
    }
    b.expLoopWallS = now() - p0 - setupSpan;
    b.expCells = static_cast<double>(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        b.expCellSumS += b.cellS[i];
        const double f = windowFlits(out[i]);
        if (f >= 0.0) {
            b.flits += f;
            b.flitSimS += b.cellS[i];
        }
    }

    const double j0 = now();
    SweepResult r;
    r.spec = canon;
    r.cells = out;
    r.aggregates = aggregateCells(canon, out);
    const std::string json = r.toJson();
    b.expJsonS = now() - j0;

    for (const auto &c : out)
        b.records.push_back(recordDigest(c));
    b.records.push_back(Digest{}.add(json).h);
    b.wallS = now() - t0 - setupSpan;
    return b;
}

// ------------------------------------------------------------ column

TrafficConfig
columnTraffic(const CellSpec &cell)
{
    TrafficConfig traffic;
    traffic.pattern = cell.pattern;
    traffic.injectionRate = cell.rate;
    traffic.seed = cell.seed;
    return traffic;
}

/// The LatencyLoad cell's simulator, built as the sweep's cell builds it.
std::unique_ptr<ColumnSim>
buildColumnSim(const CellSpec &cell)
{
    auto sim = std::make_unique<ColumnSim>(
        paperColumn(cell.topology, cell.mode), columnTraffic(cell),
        cell.workloadSpec);
    sim->configure({.shards = cell.shards});
    sim->setMeasureWindow(cell.phases.warmup, cell.phases.measureEnd());
    return sim;
}

void
timeColumnBuild(const ColumnConfig &col, LayerTrace &lt)
{
    std::unique_ptr<ColumnNetwork> net;
    lt.buildS[kColumn] += timed([&] { net = ColumnNetwork::build(col); });
    ++lt.builds[kColumn];
    lt.routers += static_cast<std::uint64_t>(net->numNodes());
}

} // namespace

/// A fixed-horizon column cell through the instrumented path: warmup,
/// measure and drain as separate NetSim::run spans.
void
tracedColumnCell(const CellSpec &cell, const CellResult *ref,
                 LayerTrace &lt, Checks &ck)
{
    timeColumnBuild(paperColumn(cell.topology, cell.mode), lt);
    auto sim = buildColumnSim(cell);
    const Cycle len[3] = {cell.phases.warmup, cell.phases.measure,
                          cell.phases.drain};
    for (int p = 0; p < 3; ++p) {
        lt.simS[p] += timed([&] { sim->run(len[p]); });
        lt.simCycles[p] += len[p];
    }
    const SimMetrics &m = sim->metrics();
    lt.addSim(m);
    expectRecordValue(ck, ref, "avg_latency", m.latency.mean());
    expectRecordValue(ck, ref, "p95_latency", m.latencyHist.percentile(0.95));
    expectRecordValue(ck, ref, "window_flits",
                      static_cast<double>(m.windowFlits()));
    expectRecordValue(ck, ref, "offered_packets",
                      static_cast<double>(m.measuredGenerated));
    expectRecordValue(ck, ref, "delivered_packets",
                      static_cast<double>(m.latency.count()));

    TrafficReplay replay(sim->cfg(), columnTraffic(cell), cell.workloadSpec);
    replay.run(0, cell.phases.total(), lt);
    lt.trafficPackets += replay.packets();
}

namespace {

const CellResult *
refOf(const std::vector<CellResult> &refs, std::size_t i)
{
    return i < refs.size() ? &refs[i] : nullptr;
}

/// column_sweep and chip_churn: a sweep grid run through the exp layer
/// (untraced) or cell by cell through the instrumented path (traced).
class SweepWorkload final : public Workload {
  public:
    using BuildFn = void (*)(const CellSpec &);
    using FlitsFn = double (*)(const CellResult &);
    using TracedFn = void (*)(const CellSpec &, const CellResult *,
                              LayerTrace &, Checks &);

    SweepWorkload(SweepSpec spec, BuildFn build, FlitsFn flits,
                  TracedFn traced)
        : spec_(std::move(spec)), build_(build), flits_(flits),
          traced_(traced)
    {
    }

    const char *name() const override { return spec_.name.c_str(); }

    BatchResult runBatch(bool traced) override
    {
        if (!traced)
            return plainSweep(spec_, build_, flits_, last_);
        BatchResult b;
        const std::vector<CellSpec> cells = spec_.expand();
        const double t0 = now();
        for (std::size_t i = 0; i < cells.size(); ++i) {
            b.cellS.push_back(timed([&] {
                traced_(cells[i], refOf(last_, i), b.layer, b.checks);
            }));
        }
        b.wallS = now() - t0;
        return b;
    }

  private:
    SweepSpec spec_;
    BuildFn build_;
    FlitsFn flits_;
    TracedFn traced_;
    std::vector<CellResult> last_; ///< latest untraced records
};

} // namespace

SweepSpec
columnSweepSpec(std::uint64_t seed)
{
    SweepSpec spec;
    spec.name = "column_sweep";
    spec.scenario = Scenario::LatencyLoad;
    spec.topologies = {TopologyKind::MeshX1, TopologyKind::MeshX2,
                       TopologyKind::MeshX4, TopologyKind::Mecs,
                       TopologyKind::Dps, TopologyKind::FlatButterfly};
    spec.patterns = {TrafficPattern::UniformRandom, TrafficPattern::Tornado};
    spec.modes = {QosMode::Pvc};
    spec.rates = {0.01, 0.06, 0.11, 0.16};
    spec.phases = kColumnPhases;
    spec.baseSeed = baseSeed(seed, 0xc01);
    return spec;
}

namespace {

// -------------------------------------------------------------- chip

/// The ChipConsolidation cell's simulator, built through the public API
/// exactly as the sweep's cell builds it (steady/bursty/ramp cells admit
/// the placement through OsScheduler; churn cells hand it to a
/// ChurnDriver).
struct ChipRun {
    ChipNetConfig cfg;
    TrafficConfig traffic;
    WorkloadSpec simWorkload; ///< what the ChipSim's generator runs
    std::unique_ptr<ChurnDriver> churn;
    std::unique_ptr<ChipSim> sim;
};

ChipRun
buildChipRun(const CellSpec &cell)
{
    ChipRun r;
    const VmPlacement &pl =
        vmPlacements()[static_cast<std::size_t>(cell.placement)];
    r.cfg.column.topology = cell.topology;
    r.cfg.column.mode = cell.mode;
    r.cfg.column.numNodes = r.cfg.chip.nodesY();
    r.traffic.pattern = TrafficPattern::UniformRandom;
    r.traffic.injectionRate = cell.rate;
    r.traffic.genUntil = cell.phases.measureEnd();
    r.traffic.seed = cell.seed;

    if (cell.workloadSpec.kind == WorkloadKind::Churn) {
        std::vector<ChurnTenant> initial;
        for (const auto &s : pl.servers)
            initial.push_back({s.id, s.threads, s.weight});
        r.churn = std::make_unique<ChurnDriver>(r.cfg, initial,
                                                cell.workloadSpec, cell.seed);
        r.cfg.column.pvc = r.churn->flowRegisters();
        const std::vector<bool> active = r.churn->activeComputeFlows();
        r.traffic.activeFlows.assign(active.begin(), active.end());
        if (cell.workloadSpec.churnAttack) {
            const auto &rates = workload1Rates();
            r.traffic.flowRates.assign(
                static_cast<std::size_t>(r.cfg.column.numFlows()), -1.0);
            for (int row = 0; row < r.cfg.chip.nodesY(); ++row) {
                const auto f = static_cast<std::size_t>(
                    r.cfg.column.flowOf(row, 0));
                r.traffic.activeFlows[f] = true;
                r.traffic.flowRates[f] =
                    rates[static_cast<std::size_t>(row) % rates.size()];
            }
        }
    } else {
        r.simWorkload = cell.workloadSpec;
        OsScheduler os(r.cfg.chip);
        for (const auto &s : pl.servers) {
            const bool ok = os.createVm(s.id, s.threads, s.weight).has_value();
            TAQOS_ASSERT(ok, "VM %d admission failed", s.id);
        }
        r.cfg.column.pvc =
            os.columnFlowRegisters(r.cfg.columnX(), r.cfg.column);
        r.traffic.activeFlows.assign(
            static_cast<std::size_t>(r.cfg.column.numFlows()), false);
        for (int row = 0; row < r.cfg.chip.nodesY(); ++row) {
            for (int k = 1; k < r.cfg.column.injectorsPerNode; ++k) {
                if (os.ownerOf(NodeCoord{r.cfg.computeXOf(k), row}) >= 0) {
                    r.traffic.activeFlows[static_cast<std::size_t>(
                        r.cfg.column.flowOf(row, k))] = true;
                }
            }
        }
    }
    r.sim = std::make_unique<ChipSim>(r.cfg, r.traffic, r.simWorkload);
    r.sim->configure({.shards = cell.shards});
    r.sim->setMeasureWindow(cell.phases.warmup, cell.phases.measureEnd());
    return r;
}

} // namespace

/// A chip cell through the instrumented path. Warmup and measure are
/// NetSim::run spans cut at the churn epochs (each epoch's
/// ChurnDriver::advanceTo + applyTo is its own span); drain is the
/// runUntilDrained span. The stepping is the sweep cell's, so the
/// record values must match bit for bit.
void
tracedChipCell(const CellSpec &cell, const CellResult *ref, LayerTrace &lt,
               Checks &ck)
{
    ChipRun r = buildChipRun(cell);
    {
        std::unique_ptr<ChipNetwork> net;
        lt.buildS[kChip] += timed([&] { net = ChipNetwork::build(r.cfg); });
        ++lt.builds[kChip];
        lt.routers += static_cast<std::uint64_t>(net->numNodes());
    }
    ChipSim &sim = *r.sim;
    TrafficReplay replay(sim.cfg(), r.traffic, r.simWorkload);
    const Cycle genEnd = r.traffic.genUntil;
    const Cycle epochLen = r.churn ? r.churn->epochLen() : 0;
    int epoch = 1;

    // Steps to `to`, applying every churn epoch boundary on the way.
    const auto advance = [&](Cycle to, Phase p) {
        while (sim.now() < to) {
            Cycle stop = to;
            const Cycle boundary = static_cast<Cycle>(epoch) * epochLen;
            const bool atEpoch = r.churn && boundary < genEnd &&
                                 boundary <= to;
            if (atEpoch)
                stop = boundary;
            const Cycle from = sim.now();
            lt.simS[p] += timed([&] { sim.run(stop - from); });
            lt.simCycles[p] += stop - from;
            replay.run(from, stop, lt);
            if (atEpoch && sim.now() == boundary) {
                lt.reprogramS += timed([&] {
                    r.churn->advanceTo(epoch);
                    r.churn->applyTo(sim);
                });
                ++lt.reprograms;
                const auto active = r.churn->activeComputeFlows();
                for (int row = 0; row < r.cfg.chip.nodesY(); ++row) {
                    for (int k = 1; k < r.cfg.column.injectorsPerNode; ++k) {
                        const FlowId f = r.cfg.column.flowOf(row, k);
                        replay.generator().setFlowActive(
                            f, active[static_cast<std::size_t>(f)]);
                    }
                }
                ++epoch;
            }
        }
    };
    advance(cell.phases.warmup, kWarmup);
    advance(cell.phases.measureEnd(), kMeasure);
    const Cycle budget = cell.phases.total() * 4;
    const Cycle from = sim.now();
    Cycle drain = kNoCycle;
    lt.simS[kDrain] += timed([&] {
        drain = sim.runUntilDrained(budget > from ? budget - from : 0,
                                    genEnd);
    });
    lt.simCycles[kDrain] += sim.now() - from;
    replay.run(from, sim.now(), lt);
    lt.trafficPackets += replay.packets();
    sim.checkInvariants();

    const SimMetrics &m = sim.metrics();
    lt.addSim(m);
    expectRecordValue(ck, ref, "drain_cycle",
                      drain == kNoCycle ? -1.0 : static_cast<double>(drain));
    expectRecordValue(ck, ref, "delivered_packets",
                      static_cast<double>(m.deliveredPackets));
    expectRecordValue(ck, ref, "handoffs",
                      static_cast<double>(sim.handoffs()));
    expectRecordValue(ck, ref, "preemptions",
                      static_cast<double>(m.preemptionEvents));
    expectRecordValue(ck, ref, "avg_latency", m.latency.mean());
    if (r.churn) {
        lt.churnEvents += static_cast<std::uint64_t>(r.churn->arrivals() +
                                                     r.churn->departures());
        expectRecordValue(ck, ref, "churn_epochs",
                          static_cast<double>(r.churn->currentEpoch()));
        expectRecordValue(ck, ref, "churn_arrivals",
                          static_cast<double>(r.churn->arrivals()));
        expectRecordValue(ck, ref, "churn_departures",
                          static_cast<double>(r.churn->departures()));
    }
}

namespace {

/// Measurement-window flits of a steady/bursty/ramp chip record (the
/// sum of its per-VM counts); churn records carry none (-1).
double
chipWindowFlits(const CellResult &r)
{
    double sum = 0.0;
    bool any = false;
    for (const auto &[name, v] : r.metrics) {
        const bool vmFlits = name.rfind("vm", 0) == 0 &&
                             name.size() > 6 &&
                             name.compare(name.size() - 6, 6, "_flits") == 0;
        if (vmFlits) {
            sum += v;
            any = true;
        }
    }
    return any ? sum : -1.0;
}

} // namespace

SweepSpec
chipChurnSpec(std::uint64_t seed)
{
    SweepSpec spec;
    spec.name = "chip_churn";
    spec.scenario = Scenario::ChipConsolidation;
    spec.topologies = {TopologyKind::Dps, TopologyKind::Mecs};
    spec.modes = {QosMode::Pvc, QosMode::Gsf};
    spec.rates = {0.05};
    spec.placements = {0, 1, 2};
    spec.workloadSpecs = {workloadSpec("steady"), workloadSpec("bursty"),
                          workloadSpec("ramp"),
                          workloadSpec("churn:frames=1,maxvms=5,attack=1")};
    spec.phases = kChipPhases;
    spec.baseSeed = baseSeed(seed, 0xc41);
    return spec;
}

namespace {

// ------------------------------------------------------------ fabric

/// One long run on the 1024-router acceptance fabric.
struct FabricJob {
    double rate;
    const char *workload;
};

constexpr FabricJob kFabricJobs[] = {
    {0.08, "bursty"}, {0.08, "steady"}, {0.04, "bursty"}, {0.04, "steady"},
};
constexpr RunPhases kFabricPhases{500, 1000, 500};

FabricSpec
kiloFabric()
{
    FabricSpec spec;
    spec.chips = 4;
    spec.chip.tilesX = spec.chip.tilesY = 32;
    spec.chip.sharedColumns = {4, 12};
    spec.links = LinkTopology::PointToPoint;
    spec.column = paperColumn(TopologyKind::Dps, QosMode::Pvc);
    return spec;
}

TrafficConfig
fabricTraffic(const FabricJob &job, std::uint64_t seed, std::size_t i)
{
    TrafficConfig traffic;
    traffic.pattern = TrafficPattern::UniformRandom;
    traffic.injectionRate = job.rate;
    traffic.seed = mix64(baseSeed(seed, 0xfab) + i);
    return traffic;
}

std::unique_ptr<FabricSim>
buildFabricSim(const FabricJob &job, const TrafficConfig &traffic)
{
    auto sim = std::make_unique<FabricSim>(kiloFabric(), traffic,
                                           workloadSpec(job.workload));
    sim->setMeasureWindow(kFabricPhases.warmup, kFabricPhases.measureEnd());
    return sim;
}

class FabricKilo final : public Workload {
  public:
    explicit FabricKilo(const Options &o) : o_(o) {}

    const char *name() const override { return "fabric_kilo"; }

    BatchResult runBatch(bool traced) override
    {
        BatchResult b;
        double setupSum = 0;
        const double t0 = now();
        for (std::size_t i = 0; i < std::size(kFabricJobs); ++i) {
            const FabricJob &job = kFabricJobs[i];
            const TrafficConfig traffic = fabricTraffic(job, o_.seed, i);
            LayerTrace &lt = b.layer;
            if (traced) {
                std::unique_ptr<FabricNetwork> net;
                lt.buildS[kFabric] +=
                    timed([&] { net = FabricNetwork::build(kiloFabric()); });
                ++lt.builds[kFabric];
                lt.routers += static_cast<std::uint64_t>(net->numNodes());
            }
            std::unique_ptr<FabricSim> sim;
            const double setup =
                timed([&] { sim = buildFabricSim(job, traffic); });
            double runS = 0;
            const Cycle len[3] = {kFabricPhases.warmup, kFabricPhases.measure,
                                  kFabricPhases.drain};
            for (int p = 0; p < 3; ++p) {
                const double s = timed([&] { sim->run(len[p]); });
                runS += s;
                if (traced) {
                    lt.simS[p] += s;
                    lt.simCycles[p] += len[p];
                }
            }
            sim->checkInvariants();
            const SimMetrics &m = sim->metrics();
            b.cellS.push_back(setup + runS);
            b.flits += static_cast<double>(m.windowFlits());
            b.flitSimS += runS;
            b.records.push_back(
                runDigest(m, sim->handoffs(), sim->linkHops()));
            setupSum += setup;
            if (traced) {
                lt.addSim(m);
                lt.handoffs += sim->handoffs();
                lt.linkHops += sim->linkHops();
                replayFabricTraffic(job, traffic, kFabricPhases.total(), lt);
            }
        }
        b.wallS = now() - t0;
        b.setupS = {setupSum};
        return b;
    }

  private:
    /// Ticks a FabricTrafficSource of a second, never-stepped fabric over
    /// the run's cycles, draining its terminal and row queues each cycle.
    static void replayFabricTraffic(const FabricJob &job,
                                    const TrafficConfig &traffic,
                                    Cycle cycles, LayerTrace &lt)
    {
        auto shadow = buildFabricSim(job, traffic);
        FabricNetwork &net = shadow->network();
        FabricTrafficSource &src = shadow->traffic();
        PacketPool pool;
        SimMetrics m(net.totalFlows());
        std::vector<InjectorQueue> terminals(
            static_cast<std::size_t>(net.totalFlows()));
        const double t0 = now();
        for (Cycle c = 0; c < cycles; ++c) {
            src.tick(c, pool, terminals, m);
            for (auto *qs : {&terminals, &net.rowQueues()}) {
                for (auto &q : *qs) {
                    while (!q.queue().empty())
                        pool.release(q.dequeue());
                }
            }
        }
        lt.trafficS += now() - t0;
        lt.trafficCycles += cycles;
        lt.trafficPackets += m.generatedPackets;
    }

    Options o_;
};

// ------------------------------------------------------------- reuse

constexpr int kCachedReruns = 400;
constexpr int kWarmRestores = 3;
constexpr RunPhases kTracePhases{2000, 6000, 4000};

struct TraceJob {
    TopologyKind topology;
    QosMode mode;
    TrafficPattern pattern;
    double rate;
};

constexpr TraceJob kTraceJobs[] = {
    {TopologyKind::Dps, QosMode::Pvc, TrafficPattern::UniformRandom, 0.05},
    {TopologyKind::Mecs, QosMode::Gsf, TrafficPattern::Tornado, 0.05},
};

std::uint64_t
dirBytes(const fs::path &dir)
{
    std::uint64_t bytes = 0;
    for (const auto &e : fs::directory_iterator(dir)) {
        if (e.is_regular_file())
            bytes += e.file_size();
    }
    return bytes;
}

class ReuseAudit final : public Workload {
  public:
    explicit ReuseAudit(const Options &o) : o_(o)
    {
        spec_.name = "reuse_audit";
        spec_.scenario = Scenario::LatencyLoad;
        spec_.topologies = {TopologyKind::MeshX2, TopologyKind::Mecs,
                            TopologyKind::Dps, TopologyKind::FlatButterfly};
        spec_.patterns = {TrafficPattern::UniformRandom};
        spec_.modes = {QosMode::Pvc};
        spec_.rates = {0.02, 0.06, 0.10};
        spec_.replicates = 2;
        spec_.phases = kColumnPhases;
        spec_.baseSeed = baseSeed(o.seed, 0x2e5);
    }

    const char *name() const override { return "reuse_audit"; }

    BatchResult runBatch(bool traced) override
    {
        BatchResult b;
        const std::vector<CellSpec> cells = spec_.expand();
        for (std::size_t r = 0; r < kSetupReps; ++r) {
            b.setupS.push_back(setupRep(
                cells, [](const CellSpec &c) { buildColumnSim(c); }));
        }

        const double t0 = now();
        const fs::path work =
            fs::path(o_.workdir) / ("reuse-" + std::to_string(batch_++));
        fs::remove_all(work);
        fs::create_directories(work);

        // Cold sweep into an empty cache, then the same grid re-run
        // entirely from the fragments it wrote.
        CellCache cache((work / "cache").string());
        const SweepRunner runner(1);
        const SweepResult cold = runner.run(spec_, &cache);
        std::string coldJson;
        b.expJsonS = timed([&] { coldJson = cold.toJson(); });
        checkColdSweep(cold, cells.size(), b.checks);
        for (const auto &c : cold.cells)
            b.records.push_back(recordDigest(c));
        b.records.push_back(Digest{}.add(coldJson).h);
        b.expCells = static_cast<double>(cells.size());
        b.layer.cacheHits += cold.cacheHits;
        b.layer.cacheMisses += cold.cacheMisses;

        const double c0 = now();
        for (int k = 0; k < kCachedReruns; ++k) {
            const SweepResult hot = runner.run(spec_, &cache);
            checkCachedSweep(hot, coldJson, cells.size(), b.checks);
            b.layer.cacheHits += hot.cacheHits;
            b.layer.cacheMisses += hot.cacheMisses;
        }
        b.cachedSweepS = now() - c0;
        if (traced)
            probeCache(cold, work / "probe", b);

        const double w0 = now();
        warmStarts(cold, work, traced, b);
        b.warmStartS = now() - w0;

        const double a0 = now();
        audits(work, traced, b);
        b.auditS = now() - a0;

        fs::remove_all(work);
        b.wallS = now() - t0;
        return b;
    }

  private:
    /// Direct CellCache::store/load spans over the cold cells, into a
    /// second cache directory.
    static void probeCache(const SweepResult &cold, const fs::path &dir,
                           BatchResult &b)
    {
        const CellCache probe(dir.string());
        for (const auto &c : cold.cells) {
            bool stored = false;
            b.layer.cacheStoreS.push_back(
                timed([&] { stored = probe.store(c.spec, c); }));
            b.checks.expect(stored, "cache fragment store failed");
            checkCacheLoad(probe, c, b.layer, b.checks);
        }
        b.layer.fragmentBytes += dirBytes(dir);
    }

    /// Cells of the cold grid warm-started from their checkpoint
    /// sidecars: one cold run writes the sidecar, then every restore must
    /// reproduce the cold run. The traced path takes the snapshot by
    /// hand (saveCheckpoint / restoreCheckpoint spans).
    void warmStarts(const SweepResult &cold, const fs::path &work,
                    bool traced, BatchResult &b) const
    {
        std::size_t j = 0;
        for (const auto &ref : cold.cells) {
            const CellSpec &c = ref.spec;
            if (c.replicate != 0 || c.topology == TopologyKind::MeshX2 ||
                c.rate <= 0.05)
                continue;
            if (traced) {
                std::uint64_t digest = 0;
                const std::string snap =
                    manualColdRun(ref, digest, b.layer, b.checks);
                for (int k = 0; k < kWarmRestores; ++k)
                    checkRestore(c, snap, digest, b.layer, b.checks);
                continue;
            }
            const std::string sidecar =
                (work / ("warm-" + std::to_string(j++) + ".ckpt")).string();
            double secs = 0;
            const CellResult first =
                sidecarColdRun(ref, sidecar, secs, b.checks);
            b.cellS.push_back(secs);
            b.flits += first.get("window_flits");
            b.flitSimS += secs;
            b.records.push_back(recordDigest(first));
            for (int k = 0; k < kWarmRestores; ++k) {
                sidecarWarmRun(first, sidecar, secs, b.checks);
                b.cellS.push_back(secs);
            }
        }
    }

    /// Flit traces recorded, written, parsed back and checked.
    void audits(const fs::path &work, bool traced, BatchResult &b) const
    {
        for (std::size_t j = 0; j < std::size(kTraceJobs); ++j) {
            const ColumnConfig col =
                paperColumn(kTraceJobs[j].topology, kTraceJobs[j].mode);
            LayerTrace &lt = b.layer;
            Checks &ck = b.checks;
            const double t0 = now();
            TraceRecorder rec(describeColumn(col));
            std::uint64_t digest = 0;
            lt.recordedRunS +=
                timed([&] { digest = traceJobRun(j, o_.seed, &rec); });
            if (traced)
                checkRecordingNeutral(j, o_.seed, digest, lt, ck);
            const std::string path =
                (work / ("trace-" + std::to_string(j) + ".txt")).string();
            {
                std::ofstream out(path, std::ios::binary);
                writeFlitTrace(out, rec.trace());
                ck.expect(static_cast<bool>(out), "trace write failed");
            }
            lt.traceBytes += fs::file_size(path);
            const std::size_t events = rec.trace().events.size();
            auditTraceFile(path, events, lt, ck);
            if (traced)
                continue;
            b.cellS.push_back(now() - t0);
            b.records.push_back(Digest{}
                                    .add(digest)
                                    .add(static_cast<std::uint64_t>(events))
                                    .h);
        }
    }

    Options o_;
    SweepSpec spec_;
    int batch_ = 0;
};

} // namespace

void
checkColdSweep(const SweepResult &cold, std::size_t cells, Checks &ck)
{
    ck.expect(cold.cacheMisses == cells && cold.cacheHits == 0,
              "cold sweep: cache was not empty");
}

void
checkCachedSweep(const SweepResult &hot, const std::string &coldJson,
                 std::size_t cells, Checks &ck)
{
    ck.expect(hot.cacheHits == cells && hot.toJson() == coldJson,
              "cached sweep differs from the cold sweep");
}

void
checkCacheLoad(const CellCache &cache, const CellResult &c, LayerTrace &lt,
               Checks &ck)
{
    CellResult back;
    bool hit = false;
    lt.cacheLoadS.push_back(timed([&] { hit = cache.load(c.spec, back); }));
    ck.expect(hit && sameRecord(back, c),
              "cache fragment does not round-trip");
}

CellResult
sidecarColdRun(const CellResult &ref, const std::string &sidecar,
               double &secs, Checks &ck)
{
    bool restored = true;
    CellResult first;
    secs = timed([&] {
        first = SweepRunner::runCellCheckpointed(ref.spec, sidecar, &restored);
    });
    ck.expect(!restored && sameRecord(first, ref),
              "sidecar cold run differs from the sweep");
    return first;
}

void
sidecarWarmRun(const CellResult &cold, const std::string &sidecar,
               double &secs, Checks &ck)
{
    bool restored = false;
    CellResult warm;
    secs = timed([&] {
        warm = SweepRunner::runCellCheckpointed(cold.spec, sidecar, &restored);
    });
    ck.expect(restored && sameRecord(warm, cold),
              "warm-started cell differs from the cold run");
}

std::string
manualColdRun(const CellResult &ref, std::uint64_t &digest, LayerTrace &lt,
              Checks &ck)
{
    const CellSpec &cell = ref.spec;
    timeColumnBuild(paperColumn(cell.topology, cell.mode), lt);
    auto sim = buildColumnSim(cell);
    lt.simS[kWarmup] += timed([&] { sim->run(cell.phases.warmup); });
    lt.simCycles[kWarmup] += cell.phases.warmup;
    std::ostringstream os;
    lt.ckptSaveS += timed([&] { sim->saveCheckpoint(os); });
    ++lt.ckptSaves;
    std::string snap = os.str();
    lt.ckptBytes += snap.size();
    const Cycle rest[2] = {cell.phases.measure, cell.phases.drain};
    for (int p = 0; p < 2; ++p) {
        lt.simS[kMeasure + p] += timed([&] { sim->run(rest[p]); });
        lt.simCycles[kMeasure + p] += rest[p];
    }
    lt.addSim(sim->metrics());
    ck.expect(sameBits(static_cast<double>(sim->metrics().windowFlits()),
                       ref.get("window_flits")),
              "manual cold run differs from the sweep record");
    digest = metricsDigest(sim->metrics());

    TrafficReplay replay(sim->cfg(), columnTraffic(cell), cell.workloadSpec);
    replay.run(0, cell.phases.total(), lt);
    lt.trafficPackets += replay.packets();
    return snap;
}

void
checkRestore(const CellSpec &cell, const std::string &snapshot,
             std::uint64_t coldDigest, LayerTrace &lt, Checks &ck)
{
    auto warm = buildColumnSim(cell);
    std::istringstream is(snapshot);
    std::string err;
    bool ok = false;
    lt.ckptRestoreS += timed([&] { ok = warm->restoreCheckpoint(is, &err); });
    ++lt.ckptRestores;
    if (ok)
        warm->run(cell.phases.measure + cell.phases.drain);
    ck.expect(ok && metricsDigest(warm->metrics()) == coldDigest,
              ok ? std::string("restored run differs from the cold run")
                 : "checkpoint restore failed: " + err);
}

std::uint64_t
traceJobRun(std::size_t job, std::uint64_t seed, TraceRecorder *rec)
{
    const TraceJob &j = kTraceJobs[job];
    TrafficConfig traffic;
    traffic.pattern = j.pattern;
    traffic.injectionRate = j.rate;
    traffic.genUntil = kTracePhases.measureEnd();
    traffic.seed = mix64(baseSeed(seed, 0xa0d) + job);
    ColumnSim sim(paperColumn(j.topology, j.mode), traffic);
    sim.setMeasureWindow(kTracePhases.warmup, kTracePhases.measureEnd());
    if (rec != nullptr) {
        rec->setMeasureWindow(kTracePhases.warmup, kTracePhases.measureEnd());
        sim.attachTraceSink(rec);
    }
    const Cycle done = sim.runUntilDrained(kTracePhases.total() * 4,
                                           kTracePhases.measureEnd());
    if (rec != nullptr)
        rec->finish(sim.now(), done != kNoCycle && sim.drained());
    return runDigest(sim.metrics(), done);
}

void
checkRecordingNeutral(std::size_t job, std::uint64_t seed,
                      std::uint64_t recordedDigest, LayerTrace &lt,
                      Checks &ck)
{
    std::uint64_t plain = 0;
    lt.plainRunS += timed([&] { plain = traceJobRun(job, seed, nullptr); });
    ck.expect(plain == recordedDigest,
              "trace recording changed the simulation");
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{
        "column_sweep", "chip_churn", "fabric_kilo", "reuse_audit"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Options &opts)
{
    if (name == "column_sweep") {
        return std::make_unique<SweepWorkload>(
            columnSweepSpec(opts.seed),
            [](const CellSpec &c) { buildColumnSim(c); },
            [](const CellResult &r) { return r.get("window_flits"); },
            tracedColumnCell);
    }
    if (name == "chip_churn") {
        return std::make_unique<SweepWorkload>(
            chipChurnSpec(opts.seed),
            [](const CellSpec &c) { buildChipRun(c); }, chipWindowFlits,
            tracedChipCell);
    }
    if (name == "fabric_kilo")
        return std::make_unique<FabricKilo>(opts);
    if (name == "reuse_audit")
        return std::make_unique<ReuseAudit>(opts);
    return nullptr;
}

} // namespace perfbench
