/// \file selftest.h
/// Self-tests of the benchmark's correctness checks.
#pragma once

#include <string>

namespace perfbench {

/// Feeds every correctness check a deliberately wrong record and
/// confirms it counts a failure (and the right record passes), then
/// confirms two seeds give different records on every workload.
/// Prints one PASS/FAIL line per test; returns the process exit code.
int runSelftest(const std::string &workdir);

} // namespace perfbench
