/**
 * @file
 * The benchmark's workloads (README.md says why each exists) and its
 * self-tests. Each workload runs in one process and returns its
 * end-to-end metrics, or with RunConfig::trace its per-layer metrics.
 */
#pragma once

#include <string>

#include "common.h"

namespace perfbench {

/** polymul_n65536 and fma8_n4096: in-process engine workloads. */
bool isEngineWorkload(const std::string& name);
RunResult runEngineWorkload(const RunConfig& cfg, uint64_t start_ns,
                            Tracer& tracer);

/** service_n1024: polymul requests to an in-process PolymulServer. */
bool isServiceWorkload(const std::string& name);
RunResult runServiceWorkload(const RunConfig& cfg, uint64_t start_ns,
                             Tracer& tracer);

/**
 * Show that every output check can fail: a flipped word, a wrong root,
 * a dropped response, and the percentile code against a sorted-array
 * oracle. Returns false and describes the first failure in @p report.
 */
bool runSelfTests(std::string& report);

} // namespace perfbench
