#include "common.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

/** 1-based nearest rank of the p-th percentile among @p count samples. */
size_t
nearestRank(size_t count, double p)
{
    const double x = p * static_cast<double>(count) / 100.0;
    // The epsilon keeps exact products such as 0.95 * 200 from rounding
    // up a whole rank through binary floating-point error.
    const double rank = std::ceil(x - 1e-9 * std::max(1.0, x));
    return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1,
                              count);
}

uint32_t
threadIndex()
{
    static std::atomic<uint32_t> next{1};
    thread_local const uint32_t index =
        next.fetch_add(1, std::memory_order_relaxed);
    return index;
}

std::vector<uint64_t>&
spanStack()
{
    thread_local std::vector<uint64_t> stack;
    return stack;
}

} // namespace

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        throw std::invalid_argument("percentile of an empty sample");
    const size_t idx = nearestRank(values.size(), p) - 1;
    std::nth_element(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(idx),
                     values.end());
    return values[idx];
}

size_t
samplesBeyond(size_t count, double p)
{
    return count == 0 ? 0 : count - nearestRank(count, p);
}

size_t
minSamplesForTail(double p)
{
    size_t n = 10;
    while (samplesBeyond(n, p) < 10)
        ++n;
    return n;
}

std::string
percentileLabel(double p)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "p%g", p);
    return buf;
}

double
liveResidentMib()
{
    malloc_trim(0);
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmRSS:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

void
Tracer::push(const Record& rec)
{
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(rec);
}

void
Tracer::record(const char* name, uint64_t request, uint64_t begin_ns,
               uint64_t end_ns)
{
    if (!enabled())
        return;
    Record rec;
    rec.name = name;
    rec.id = next_id_.fetch_add(1, std::memory_order_relaxed);
    rec.request = request;
    rec.tid = threadIndex();
    rec.begin_ns = begin_ns;
    rec.end_ns = end_ns;
    push(rec);
}

std::vector<double>
Tracer::durationsUs(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const Record& r : records_) {
        if (name == r.name)
            out.push_back(static_cast<double>(r.end_ns - r.begin_ns) / 1e3);
    }
    return out;
}

size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return records_.size();
}

bool
Tracer::writeChromeTrace(const std::string& path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    uint64_t t0 = UINT64_MAX;
    for (const Record& r : records_)
        t0 = std::min(t0, r.begin_ns);
    std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n", f);
    for (size_t i = 0; i < records_.size(); ++i) {
        const Record& r = records_[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                     "{\"id\": %llu, \"parent\": %llu, \"request\": %llu}}%s\n",
                     r.name, r.tid,
                     static_cast<double>(r.begin_ns - t0) / 1e3,
                     static_cast<double>(r.end_ns - r.begin_ns) / 1e3,
                     static_cast<unsigned long long>(r.id),
                     static_cast<unsigned long long>(r.parent),
                     static_cast<unsigned long long>(r.request),
                     i + 1 < records_.size() ? "," : "");
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

Tracer::Span::Span(Tracer& tracer, const char* name, uint64_t request,
                   bool on)
{
    if (!on || !tracer.enabled())
        return;
    tracer_ = &tracer;
    std::vector<uint64_t>& stack = spanStack();
    rec_.name = name;
    rec_.id = tracer.next_id_.fetch_add(1, std::memory_order_relaxed);
    rec_.parent = stack.empty() ? 0 : stack.back();
    rec_.request = request;
    rec_.tid = threadIndex();
    stack.push_back(rec_.id);
    rec_.begin_ns = nowNs();
}

Tracer::Span::~Span()
{
    if (!tracer_)
        return;
    rec_.end_ns = nowNs();
    spanStack().pop_back();
    tracer_->push(rec_);
}

} // namespace perfbench
