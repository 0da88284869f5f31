/**
 * @file
 * perfbench: one workload per run.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--out-dir <dir>] [--corrupt]
 *   perfbench --selftest
 *
 * The last line of standard output is one JSON object with the keys
 * correct, attempted, failed and metrics; the line before it holds the
 * host fingerprint and run notes. Both also go to
 * <out-dir>/result-<workload>-seed<n>-trace<t>.json, and a traced run
 * writes its spans to <out-dir>/trace-<workload>-seed<n>.json. The exit
 * code is 0 only when every operation succeeded and every check held.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "common.h"
#include "core/backend.h"
#include "layers.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        if (static_cast<unsigned char>(ch) >= 0x20)
            out += ch;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

/** CPU model, width, ISA, backend, build and MQX_* environment. */
std::string
hostFingerprint()
{
    std::string model = "unknown";
    std::set<std::string> flags;
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    static const std::set<std::string> wanted = {
        "avx2",     "avx512f",    "avx512dq", "avx512bw",
        "avx512vl", "avx512ifma", "bmi2",     "adx"};
    while (std::getline(cpuinfo, line)) {
        const size_t colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        const std::string key = line.substr(0, line.find_first_of("\t:"));
        const std::string value =
            colon + 2 <= line.size() ? line.substr(colon + 2) : "";
        if (key == "model name" && model == "unknown")
            model = value;
        if (key == "flags" && flags.empty()) {
            std::istringstream words(value);
            std::string w;
            while (words >> w) {
                if (wanted.count(w))
                    flags.insert(w);
            }
        }
    }
    std::string isa;
    for (const std::string& f : flags)
        isa += (isa.empty() ? "" : " ") + f;
    std::string env = "{";
    for (char** e = environ; *e; ++e) {
        if (std::strncmp(*e, "MQX_", 4) != 0)
            continue;
        const char* eq = std::strchr(*e, '=');
        if (!eq)
            continue;
        env += (env.size() > 1 ? ", " : "") +
               jsonString(std::string(*e, static_cast<size_t>(eq - *e))) + ": " + jsonString(eq + 1);
    }
    env += "}";
    std::ostringstream out;
    out << "{\"cpu_model\": " << jsonString(model)
        << ", \"nproc\": " << hostThreads()
        << ", \"isa\": " << jsonString(isa)
        << ", \"best_backend\": " << jsonString(mqx::backendName(mqx::bestBackend()))
        << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
        << ", \"compiled\": {\"avx2\": " << MQX_BUILD_AVX2
        << ", \"avx512\": " << MQX_BUILD_AVX512 << ", \"gmp\": " << MQX_WITH_GMP
        << ", \"telemetry\": " << MQX_TELEMETRY_ENABLED << "}"
        << ", \"mqx_env\": " << env << "}";
    return out.str();
}

std::string
resultLine(const RunResult& r)
{
    std::string out = "{\"correct\": ";
    out += r.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric& m = r.metrics[i];
        out += (i ? ", " : "") + jsonString(m.name) + ": {\"value\": " +
               jsonNumber(m.value) + ", \"unit\": " + jsonString(m.unit) + "}";
    }
    return out + "}}";
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <service_n1024|polymul_n65536|"
                 "fma8_n4096> --seed <n> --seconds <s> --trace <0|1> "
                 "[--out-dir <dir>] [--corrupt]\n"
                 "       perfbench --selftest\n");
    return 2;
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    const uint64_t start_ns = nowNs();

    RunConfig cfg;
    bool selftest = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--selftest") {
            selftest = true;
        } else if (arg == "--corrupt") {
            cfg.corrupt = true;
        } else if (arg == "--workload" && has_value) {
            cfg.workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            cfg.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && has_value) {
            cfg.seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace" && has_value) {
            cfg.trace = std::string(argv[++i]) != "0";
        } else if (arg == "--out-dir" && has_value) {
            cfg.out_dir = argv[++i];
        } else {
            return usage();
        }
    }

    std::string report;
    if (selftest) {
        const bool ok = runSelfTests(report);
        std::printf("%s\n", ok ? "selftest: ok" : ("selftest FAILED: " + report).c_str());
        return ok ? 0 : 1;
    }
    // 60 s is the longest run the benchmark format allows.
    if (!(cfg.seconds > 0 && cfg.seconds <= 60) ||
        (!isEngineWorkload(cfg.workload) && !isServiceWorkload(cfg.workload)))
        return usage();

    Tracer tracer(cfg.trace);
    RunResult result;
    try {
        result = isServiceWorkload(cfg.workload)
                     ? runServiceWorkload(cfg, start_ns, tracer)
                     : runEngineWorkload(cfg, start_ns, tracer);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     cfg.workload.c_str(), e.what());
        return 1;
    }
    if (!runSelfTests(report)) {
        std::fprintf(stderr, "perfbench: selftest failed: %s\n",
                     report.c_str());
        result.correct = false;
    }

    const std::string tag = cfg.workload + "-seed" + std::to_string(cfg.seed);
    std::error_code ec;
    std::filesystem::create_directories(cfg.out_dir, ec);
    if (cfg.trace) {
        const std::string path = cfg.out_dir + "/trace-" + tag + ".json";
        if (!tracer.writeChromeTrace(path))
            std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
    std::string notes = "{";
    for (const auto& [k, v] : result.notes)
        notes += (notes.size() > 1 ? ", " : "") + jsonString(k) + ": " +
                 jsonString(v);
    notes += "}";
    const std::string info =
        "{\"host\": " + hostFingerprint() +
        ", \"workload\": " + jsonString(cfg.workload) +
        ", \"seed\": " + std::to_string(cfg.seed) +
        ", \"seconds\": " + jsonNumber(cfg.seconds) +
        ", \"trace\": " + (cfg.trace ? "1" : "0") +
        ", \"spans\": " + std::to_string(tracer.size()) +
        ", \"notes\": " + notes + "}";
    const std::string line = resultLine(result);
    const std::string path = cfg.out_dir + "/result-" + tag + "-trace" +
                             (cfg.trace ? "1" : "0") + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
        std::fprintf(f, "{\"run\": %s,\n \"result\": %s}\n", info.c_str(),
                     line.c_str());
        std::fclose(f);
    }
    std::printf("%s\n%s\n", info.c_str(), line.c_str());
    return result.correct && result.failed == 0 ? 0 : 1;
}
