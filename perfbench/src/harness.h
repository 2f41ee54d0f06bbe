/// \file harness.h
/// Shared plumbing of the taqos benchmark harness: host clock, record
/// digests, the committed reference records, correctness accounting and
/// the per-layer trace accumulator.
///
/// Everything here lives outside the simulator: spans and counters are
/// taken around the harness's own calls into the library's public API,
/// never inside src/.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/sweep.h"
#include "noc/metrics.h"

namespace perfbench {

/// Host seconds on the steady clock.
double now();

/// Host seconds of one call.
template <class F>
double
timed(F &&f)
{
    const double t0 = now();
    f();
    return now() - t0;
}

/// Median and nearest-rank percentile of a sample (copied; empty -> 0).
double median(std::vector<double> v);
double percentile(std::vector<double> v, double q);

/// splitmix64 finalizer and a word-at-a-time hash chain over it.
std::uint64_t mix64(std::uint64_t x);
struct Digest {
    std::uint64_t h = 0x6a09e667f3bcc908ull;
    Digest &add(std::uint64_t v);
    Digest &add(double v); ///< exact bit pattern
    Digest &add(const std::string &s);
};

/// Digest of a sweep cell's record: every metric name and value bit
/// pattern, in emission order, plus the cell's traffic seed.
std::uint64_t recordDigest(const taqos::CellResult &r);

/// Digest of a direct run: metricsDigest plus the extra counters.
std::uint64_t runDigest(const taqos::SimMetrics &m,
                        std::uint64_t handoffs = 0,
                        std::uint64_t linkHops = 0);

/// Bitwise equality of two cell records (names, order, value bits).
bool sameRecord(const taqos::CellResult &a, const taqos::CellResult &b);

/// Correctness accounting: every check is one attempted operation, and
/// a check that does not hold is one failed operation.
struct Checks {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> diagnostics; ///< first few failures

    bool expect(bool ok, const std::string &what);
    void merge(const Checks &o);
};

struct LayerTrace;

/// Expected record digests per (workload, seed), committed as
/// perfbench/reference.txt: one line per pair,
/// `<workload> <seed> <hex digest>...`, digests in the batch's record
/// order. Lines starting with '#' are comments.
class Reference {
  public:
    /// Loads the file; a missing file is an empty reference.
    explicit Reference(const std::string &path);

    /// Expected digests for the pair, or null when none are committed.
    const std::vector<std::uint64_t> *find(const std::string &workload,
                                           std::uint64_t seed) const;

    static std::string formatLine(const std::string &workload,
                                  std::uint64_t seed,
                                  const std::vector<std::uint64_t> &d);

  private:
    struct Entry {
        std::string workload;
        std::uint64_t seed = 0;
        std::vector<std::uint64_t> digests;
    };
    std::vector<Entry> entries_;
};

/// Compares a batch's record digests to the reference (when one is
/// committed for the seed): one check per record.
void checkAgainstReference(const std::vector<std::uint64_t> *expected,
                           const std::vector<std::uint64_t> &got,
                           Checks &checks);

/// A later batch of a run must reproduce the first batch's records: one
/// check per batch.
void checkBatchRepeats(const std::vector<std::uint64_t> &first,
                       const std::vector<std::uint64_t> &again,
                       Checks &checks);

/// Parses a flit-trace file the benchmark wrote and runs the independent
/// checker on it: a parse error, a lost event or a checker violation
/// each fail one check. Fills the verify spans and counts of `lt`.
void auditTraceFile(const std::string &path, std::size_t expectedEvents,
                    LayerTrace &lt, Checks &checks);

/// Per-layer counters and span times of one traced batch.
struct LayerTrace {
    // sim: NetSim run/runUntilDrained spans by phase
    double simS[3] = {0, 0, 0};          ///< warmup, measure, drain
    std::uint64_t simCycles[3] = {0, 0, 0};
    std::uint64_t flits = 0;             ///< SimMetrics::deliveredFlits
    // traffic: standalone generator replay over the same cycles
    double trafficS = 0;
    std::uint64_t trafficCycles = 0;
    std::uint64_t trafficPackets = 0;
    // router / qos: SimMetrics counts
    double usefulHops = 0;
    double wastedHops = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t delivered = 0;         ///< packets
    std::uint64_t attempts = 0;          ///< injection attempts
    // topo: standalone network builds by kind (column, chip, fabric)
    double buildS[3] = {0, 0, 0};
    std::uint64_t builds[3] = {0, 0, 0};
    std::uint64_t routers = 0;
    // chip: churn re-programming
    std::uint64_t churnEvents = 0;
    double reprogramS = 0;
    std::uint64_t reprograms = 0;
    // fabric
    std::uint64_t handoffs = 0;
    std::uint64_t linkHops = 0;
    // exp.cell_cache
    std::vector<double> cacheLoadS;
    std::vector<double> cacheStoreS;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t fragmentBytes = 0;
    // sim.checkpoint
    double ckptSaveS = 0;
    double ckptRestoreS = 0;
    std::uint64_t ckptBytes = 0;
    std::uint64_t ckptSaves = 0;
    std::uint64_t ckptRestores = 0;
    // verify
    double recordedRunS = 0;
    double plainRunS = 0;
    double parseS = 0;
    double checkS = 0;
    std::uint64_t events = 0;
    std::uint64_t traceBytes = 0;
    std::uint64_t traces = 0;

    void addSim(const taqos::SimMetrics &m);
    void merge(const LayerTrace &o);
};

} // namespace perfbench
