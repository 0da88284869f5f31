/**
 * @file
 * Shared pieces of the benchmark: clock, order statistics, the metric
 * record every workload returns, and the span recorder behind the
 * traced mode. See README.md for what each workload measures.
 */
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/**
 * Every run interleaves its measurement phases in this many cycles of
 * short blocks, so each metric samples the whole run rather than one
 * stretch of it, and rates are reported as the median over blocks.
 * Interference from other tenants of the host comes and goes within a
 * run; a phase measured in one stretch takes all of it or none.
 */
constexpr int kCycles = 16;

/** Monotonic nanoseconds (steady_clock). */
uint64_t nowNs();

/**
 * Nearest-rank percentile: the smallest sample with at least p percent
 * of the samples at or below it (p in (0, 100]). @p values is taken by
 * value and partially reordered. Throws on an empty sample.
 */
double percentile(std::vector<double> values, double p);

/** Nearest-rank median (the lower middle for even counts). */
inline double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

/** Samples strictly above the nearest-rank p-th percentile of @p count. */
size_t samplesBeyond(size_t count, double p);

/**
 * Fewest samples whose nearest-rank p-th percentile has at least ten
 * samples beyond it: the sample size a fixed tail percentile needs
 * before it is a tail at all.
 */
size_t minSamplesForTail(double p);

/** "p95", "p99.9": the label of a fixed percentile. */
std::string percentileLabel(double p);

/**
 * Resident set of this process (VmRSS), MiB, after handing the
 * allocator's free pages back to the system: the figure then counts
 * live data, not what the allocator's per-thread arenas happened to
 * keep from transient work.
 */
double liveResidentMib();

/** One named metric with its unit, as printed in the result line. */
struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/** What a workload run hands back to main(). */
struct RunResult {
    /** False when an output or an invariant check failed. */
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Extra context for the result file (percentiles, sample counts). */
    std::vector<std::pair<std::string, std::string>> notes;

    void
    add(const std::string& name, double value, const std::string& unit)
    {
        metrics.push_back(Metric{name, value, unit});
    }
    void
    note(const std::string& key, const std::string& value)
    {
        notes.emplace_back(key, value);
    }
};

/** Options every workload receives from the command line. */
struct RunConfig {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Flip one word of one checked result (shows the checks bite). */
    bool corrupt = false;
    /** Directory for the result and trace files. */
    std::string out_dir = ".bench_out";
};

/**
 * In-memory span recorder for the traced mode. Spans are kept until
 * the run ends and then written as Chrome trace_event JSON. A disabled
 * tracer (the untraced mode) costs one relaxed load per span site.
 */
class Tracer
{
  public:
    struct Record {
        const char* name = "";
        uint64_t id = 0;
        uint64_t parent = 0;
        /** Request or op identifier shared by the spans of one request. */
        uint64_t request = 0;
        uint32_t tid = 0;
        uint64_t begin_ns = 0;
        uint64_t end_ns = 0;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /** Record a span whose ends were timed elsewhere (cross-thread). */
    void record(const char* name, uint64_t request, uint64_t begin_ns,
                uint64_t end_ns);

    /** Durations (us) of every recorded span called @p name. */
    std::vector<double> durationsUs(const std::string& name) const;

    size_t size() const;

    /** Write every span as Chrome trace JSON; false on I/O failure. */
    bool writeChromeTrace(const std::string& path) const;

    /**
     * RAII span around one layer call. @p on lets a caller interleave
     * traced and untraced rounds on an enabled tracer (the overhead
     * A/B); a disabled tracer records nothing either way.
     */
    class Span
    {
      public:
        Span(Tracer& tracer, const char* name, uint64_t request = 0,
             bool on = true);
        ~Span();
        Span(const Span&) = delete;
        Span& operator=(const Span&) = delete;

      private:
        Tracer* tracer_ = nullptr;
        Record rec_;
    };

  private:
    void push(const Record& rec);

    std::atomic<bool> enabled_;
    std::atomic<uint64_t> next_id_{1};
    mutable std::mutex mutex_;
    std::vector<Record> records_; ///< guarded by mutex_
};

} // namespace perfbench
