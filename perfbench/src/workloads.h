/// \file workloads.h
/// The benchmark's four workloads. Each is a closed-loop batch job: one
/// call to runBatch() runs the whole job to completion; the simulated
/// traffic inside it is open loop. See perfbench/NOTES.md for why each
/// workload exists and which layers it stresses.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exp/cell_cache.h"
#include "harness.h"
#include "sim/trace_record.h"

namespace perfbench {

struct Options {
    std::uint64_t seed = 1;
    std::string workdir;      ///< scratch files (cache, sidecars, traces)
};

/// Everything one batch measured and checked.
struct BatchResult {
    double wallS = 0;   ///< the whole batch job, host seconds
    /// Set-up samples, host seconds each: specs, networks and sims built
    /// before cycle 0. Sweeps build every cell's sim again outside the
    /// job, several times; that work is not part of `wallS`.
    std::vector<double> setupS;
    /// Host seconds of every simulation job the harness timed one by one
    /// (sweep cells, fabric runs, checkpoint and trace runs).
    std::vector<double> cellS;
    /// Measurement-window flits delivered by the jobs that report them,
    /// and the host seconds of those jobs.
    double flits = 0;
    double flitSimS = 0;
    std::vector<std::uint64_t> records; ///< digests, reference order
    Checks checks;

    // exp layer, from untraced sweep batches
    double expCells = 0;
    double expCellSumS = 0;  ///< sum of cell seconds
    double expLoopWallS = 0; ///< wall time of the loop over the cells
    double expJsonS = 0;     ///< aggregateCells + toJson

    // reuse_audit parts
    double cachedSweepS = 0;
    double warmStartS = 0;
    double auditS = 0;

    LayerTrace layer; ///< traced batches only
};

class Workload {
  public:
    virtual ~Workload() = default;
    virtual const char *name() const = 0;
    /// Runs the job once. A traced batch runs the same simulations
    /// through the instrumented path (spans around each module call,
    /// standalone builds and traffic replays) and fills `layer`.
    virtual BatchResult runBatch(bool traced) = 0;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string> &workloadNames();

/// Null for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const Options &opts);

// The checks the workloads run, exposed so that the self-test can feed
// each of them a wrong input. Every one adds its checks to `ck`.

/// The column_sweep and chip_churn grids for a benchmark seed.
taqos::SweepSpec columnSweepSpec(std::uint64_t seed);
taqos::SweepSpec chipChurnSpec(std::uint64_t seed);

/// A column or chip cell run through the instrumented path; its values
/// must match `ref`, the sweep's record of the same cell (no check when
/// null).
void tracedColumnCell(const taqos::CellSpec &cell,
                      const taqos::CellResult *ref, LayerTrace &lt,
                      Checks &ck);
void tracedChipCell(const taqos::CellSpec &cell, const taqos::CellResult *ref,
                    LayerTrace &lt, Checks &ck);

/// A cold sweep into an empty cache: every cell a miss.
void checkColdSweep(const taqos::SweepResult &cold, std::size_t cells,
                    Checks &ck);
/// A sweep re-run from the cache: every cell a hit, and JSON
/// byte-identical to the cold sweep's.
void checkCachedSweep(const taqos::SweepResult &hot,
                      const std::string &coldJson, std::size_t cells,
                      Checks &ck);
/// Loads the stored fragment of `c` back (timed) and compares it to `c`.
void checkCacheLoad(const taqos::CellCache &cache, const taqos::CellResult &c,
                    LayerTrace &lt, Checks &ck);

/// Runs `ref`'s cell cold through a checkpoint sidecar that must not
/// exist yet (writing it); the record must equal `ref`. Returns it.
taqos::CellResult sidecarColdRun(const taqos::CellResult &ref,
                                 const std::string &sidecar, double &secs,
                                 Checks &ck);
/// Runs the cell again, warm-started from the sidecar; it must restore
/// and reproduce `cold`, the sidecar's cold run.
void sidecarWarmRun(const taqos::CellResult &cold, const std::string &sidecar,
                    double &secs, Checks &ck);

/// Runs `ref`'s cell by hand, checkpointing it after warmup; its window
/// flits must match `ref`. Returns the snapshot, and the run's
/// metricsDigest in `digest`.
std::string manualColdRun(const taqos::CellResult &ref, std::uint64_t &digest,
                          LayerTrace &lt, Checks &ck);
/// Restores `snapshot` into a freshly built sim of `cell` and runs the
/// rest of the cell; the restore must succeed and end at `coldDigest`.
void checkRestore(const taqos::CellSpec &cell, const std::string &snapshot,
                  std::uint64_t coldDigest, LayerTrace &lt, Checks &ck);

/// Runs reuse_audit's flit-trace job `job` for the benchmark seed, recording into `rec` when
/// it is not null, and returns the run's digest.
std::uint64_t traceJobRun(std::size_t job, std::uint64_t seed,
                          taqos::TraceRecorder *rec);
/// Runs the job again without a recorder; it must end at
/// `recordedDigest`, the recorded run's digest.
void checkRecordingNeutral(std::size_t job, std::uint64_t seed,
                           std::uint64_t recordedDigest, LayerTrace &lt,
                           Checks &ck);

} // namespace perfbench
