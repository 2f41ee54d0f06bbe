#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "verify/checker.h"
#include "verify/flit_trace.h"

namespace perfbench {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t idx = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(v.size())));
    return v[idx - 1];
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

Digest &
Digest::add(std::uint64_t v)
{
    h = mix64(h ^ v);
    return *this;
}

Digest &
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return add(bits);
}

Digest &
Digest::add(const std::string &s)
{
    add(static_cast<std::uint64_t>(s.size()));
    for (unsigned char c : s)
        add(static_cast<std::uint64_t>(c));
    return *this;
}

std::uint64_t
recordDigest(const taqos::CellResult &r)
{
    Digest d;
    d.add(r.spec.seed);
    for (const auto &[name, v] : r.metrics)
        d.add(name).add(v);
    return d.h;
}

std::uint64_t
runDigest(const taqos::SimMetrics &m, std::uint64_t handoffs,
          std::uint64_t linkHops)
{
    return Digest{}
        .add(taqos::metricsDigest(m))
        .add(handoffs)
        .add(linkHops)
        .h;
}

bool
sameRecord(const taqos::CellResult &a, const taqos::CellResult &b)
{
    if (a.metrics.size() != b.metrics.size())
        return false;
    for (std::size_t i = 0; i < a.metrics.size(); ++i) {
        if (a.metrics[i].first != b.metrics[i].first ||
            std::memcmp(&a.metrics[i].second, &b.metrics[i].second,
                        sizeof(double)) != 0) {
            return false;
        }
    }
    return true;
}

bool
Checks::expect(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        if (diagnostics.size() < 8)
            diagnostics.push_back(what);
    }
    return ok;
}

void
Checks::merge(const Checks &o)
{
    attempted += o.attempted;
    failed += o.failed;
    for (const auto &d : o.diagnostics) {
        if (diagnostics.size() < 8)
            diagnostics.push_back(d);
    }
}

Reference::Reference(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        Entry e;
        if (!(ls >> e.workload >> e.seed))
            continue;
        std::string hex;
        while (ls >> hex)
            e.digests.push_back(std::stoull(hex, nullptr, 16));
        entries_.push_back(std::move(e));
    }
}

const std::vector<std::uint64_t> *
Reference::find(const std::string &workload, std::uint64_t seed) const
{
    for (const auto &e : entries_) {
        if (e.workload == workload && e.seed == seed)
            return &e.digests;
    }
    return nullptr;
}

std::string
Reference::formatLine(const std::string &workload, std::uint64_t seed,
                      const std::vector<std::uint64_t> &d)
{
    std::ostringstream os;
    os << workload << ' ' << seed;
    char buf[24];
    for (std::uint64_t v : d) {
        std::snprintf(buf, sizeof buf, " %016llx",
                      static_cast<unsigned long long>(v));
        os << buf;
    }
    return os.str();
}

void
checkAgainstReference(const std::vector<std::uint64_t> *expected,
                      const std::vector<std::uint64_t> &got, Checks &checks)
{
    if (expected == nullptr)
        return;
    checks.expect(expected->size() == got.size(),
                  "reference: record count differs");
    const std::size_t n = std::min(expected->size(), got.size());
    for (std::size_t i = 0; i < n; ++i) {
        checks.expect((*expected)[i] == got[i],
                      "reference: record " + std::to_string(i) +
                          " differs from the committed digest");
    }
}

void
checkBatchRepeats(const std::vector<std::uint64_t> &first,
                  const std::vector<std::uint64_t> &again, Checks &checks)
{
    checks.expect(again == first, "batch records differ between batches");
}

void
auditTraceFile(const std::string &path, std::size_t expectedEvents,
               LayerTrace &lt, Checks &checks)
{
    taqos::FlitTrace parsed;
    std::string err;
    bool parsedOk = false;
    double t0 = now();
    {
        std::ifstream in(path, std::ios::binary);
        parsedOk = taqos::parseFlitTrace(in, parsed, err);
    }
    lt.parseS += now() - t0;
    if (!checks.expect(parsedOk, "trace parse error: " + err))
        return;
    checks.expect(parsed.events.size() == expectedEvents,
                  "parsed trace lost events");
    t0 = now();
    const taqos::CheckReport report = taqos::verifyTrace(parsed);
    lt.checkS += now() - t0;
    checks.expect(report.ok(),
                  "checker violation: " + report.firstDiagnostic());
    lt.events += report.eventsChecked;
    ++lt.traces;
}

void
LayerTrace::addSim(const taqos::SimMetrics &m)
{
    flits += m.deliveredFlits;
    usefulHops += m.usefulHops;
    wastedHops += m.wastedHops;
    preemptions += m.preemptionEvents;
    delivered += m.deliveredPackets;
    attempts += m.injectedAttempts;
}

void
LayerTrace::merge(const LayerTrace &o)
{
    for (int i = 0; i < 3; ++i) {
        simS[i] += o.simS[i];
        simCycles[i] += o.simCycles[i];
        buildS[i] += o.buildS[i];
        builds[i] += o.builds[i];
    }
    flits += o.flits;
    trafficS += o.trafficS;
    trafficCycles += o.trafficCycles;
    trafficPackets += o.trafficPackets;
    usefulHops += o.usefulHops;
    wastedHops += o.wastedHops;
    preemptions += o.preemptions;
    delivered += o.delivered;
    attempts += o.attempts;
    routers += o.routers;
    churnEvents += o.churnEvents;
    reprogramS += o.reprogramS;
    reprograms += o.reprograms;
    handoffs += o.handoffs;
    linkHops += o.linkHops;
    cacheLoadS.insert(cacheLoadS.end(), o.cacheLoadS.begin(),
                      o.cacheLoadS.end());
    cacheStoreS.insert(cacheStoreS.end(), o.cacheStoreS.begin(),
                       o.cacheStoreS.end());
    cacheHits += o.cacheHits;
    cacheMisses += o.cacheMisses;
    fragmentBytes += o.fragmentBytes;
    ckptSaveS += o.ckptSaveS;
    ckptRestoreS += o.ckptRestoreS;
    ckptBytes += o.ckptBytes;
    ckptSaves += o.ckptSaves;
    ckptRestores += o.ckptRestores;
    recordedRunS += o.recordedRunS;
    plainRunS += o.plainRunS;
    parseS += o.parseS;
    checkS += o.checkS;
    events += o.events;
    traceBytes += o.traceBytes;
    traces += o.traces;
}

} // namespace perfbench
