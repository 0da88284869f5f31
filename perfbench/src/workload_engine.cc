/**
 * @file
 * polymul_n65536 and fma8_n4096: one caller into an in-process
 * engine::Engine, no net layer. Phases, each a closed loop of whole
 * rounds over the distinct inputs:
 *   A  one caller, nproc-thread engine    -> ops_s, lat_p50_us, lat_tail_us
 *   B  one caller, 1-thread engine        -> serial_ops_s
 * A and B alternate in short blocks (kCycles cycles) across the run.
 * The first result of each input is checked with GMP at roots of
 * x^n + 1; every later result, at either width, must equal it word for
 * word.
 */
#include <cstdio>
#include <stdexcept>

#include "layers.h"
#include "oracle.h"
#include "workloads.h"

namespace perfbench {

using mqx::DConstSpan;
using mqx::engine::Engine;
using mqx::engine::EngineOptions;
using mqx::rns::RnsBasis;
using mqx::rns::RnsPolynomial;
namespace net = mqx::net;

namespace {

struct Shape {
    const char* name;
    int bits;
    int two_adicity;
    int channels;
    size_t n;
    /** Products per op: 1 is a polymul, more is an fmaBatch. */
    size_t pairs;
};

constexpr Shape kShapes[] = {
    {"polymul_n65536", 124, 20, 4, size_t{1} << 16, 1},
    {"fma8_n4096", 124, 20, 8, 4096, 8},
};

/** Distinct inputs per run; a round runs each once. */
constexpr size_t kInputs = 2;
/** GMP evaluation roots per channel. */
constexpr int kRoots = 2;
/** Fixed percentile of lat_tail_us (see README, "Steadiness"). */
constexpr double kTailP = 90.0;

const Shape*
findShape(const std::string& name)
{
    for (const Shape& s : kShapes) {
        if (name == s.name)
            return &s;
    }
    return nullptr;
}

struct Input {
    std::vector<RnsPolynomial> polys; ///< a0, b0, a1, b1, ...
    Products products;
};

std::vector<Input>
makeInputs(const RnsBasis& basis, const Shape& shape, uint64_t seed)
{
    std::vector<Input> inputs(kInputs);
    for (size_t i = 0; i < kInputs; ++i) {
        Input& in = inputs[i];
        in.polys.reserve(2 * shape.pairs);
        for (size_t j = 0; j < 2 * shape.pairs; ++j)
            in.polys.push_back(mqx::rns::randomPolynomial(
                basis, shape.n, seed * 1'000'003 + i * 1009 + j));
        for (size_t j = 0; j < shape.pairs; ++j)
            in.products.emplace_back(&in.polys[2 * j], &in.polys[2 * j + 1]);
    }
    return inputs;
}

/** One phase's sample, over all its blocks. Rounds alternate spans. */
struct Loop {
    std::vector<double> lat_us;
    /** Ops per second of each block: the phase's rate is their median. */
    std::vector<double> block_rates;
    double on_us = 0, off_us = 0;
    uint64_t on_ops = 0, off_ops = 0;
    uint64_t failed = 0;

    uint64_t ops() const { return on_ops + off_ops; }
};

/**
 * One caller, one block: whole rounds over @p inputs until @p budget_ns
 * has passed and at least @p min_ops ran. Each op is timed alone; its
 * result is compared with the checked one outside the timed region.
 */
void
closedLoop(Engine& engine, const std::vector<Input>& inputs,
           const std::vector<RnsPolynomial>& refs, RnsPolynomial& out,
           uint64_t budget_ns, size_t min_ops, Tracer& tracer, Loop& loop)
{
    const uint64_t start = nowNs();
    uint64_t ops = 0;
    double busy_us = 0;
    for (uint64_t round = 0;; ++round) {
        if (nowNs() - start >= budget_ns && ops >= min_ops)
            break;
        const bool on = round % 2 == 0;
        for (size_t i = 0; i < inputs.size(); ++i) {
            const uint64_t t0 = nowNs();
            {
                Tracer::Span span(tracer, "engine.op", loop.ops(), on);
                runOp(engine, inputs[i].products, out);
            }
            const double us = static_cast<double>(nowNs() - t0) / 1e3;
            loop.lat_us.push_back(us);
            (on ? loop.on_us : loop.off_us) += us;
            ++(on ? loop.on_ops : loop.off_ops);
            busy_us += us;
            ++ops;
            if (!sameWords(out, refs[i]))
                ++loop.failed;
        }
    }
    loop.block_rates.push_back(static_cast<double>(ops) / (busy_us / 1e6));
}

} // namespace

bool
isEngineWorkload(const std::string& name)
{
    return findShape(name) != nullptr;
}

RunResult
runEngineWorkload(const RunConfig& cfg, uint64_t start_ns, Tracer& tracer)
{
    const Shape& shape = *findShape(cfg.workload);
    const size_t threads = hostThreads();
    RunResult result;

    // Set-up: basis, engine, one warm-up op that builds the plans.
    // The inputs and the result buffers are the benchmark's work: they
    // are not counted in set-up, and the resident memory they take is
    // the baseline that live_rss_mib is measured from.
    RnsBasis basis(shape.bits, shape.two_adicity, shape.channels);
    const uint64_t gen_start = nowNs();
    const std::vector<Input> inputs = makeInputs(basis, shape, cfg.seed);
    std::vector<RnsPolynomial> refs;
    refs.reserve(kInputs);
    for (size_t i = 0; i < kInputs; ++i)
        refs.emplace_back(basis, shape.n);
    RnsPolynomial out(basis, shape.n);
    const double base_rss_mib = liveResidentMib();
    const uint64_t gen_ns = nowNs() - gen_start;
    EngineOptions options;
    options.threads = threads;
    Engine engine(options);
    runOp(engine, inputs[0].products, refs[0]);
    const double setup_s =
        static_cast<double>(nowNs() - start_ns - gen_ns) / 1e9;
    EngineCounters counters;
    counters.plans = engine.planCache().stats();

    // The first result of every input, checked with GMP per channel.
    for (size_t i = 1; i < kInputs; ++i)
        runOp(engine, inputs[i].products, refs[i]);
    if (cfg.corrupt)
        flipOneWord(refs[0]);
    std::vector<bool> ok(kInputs, true);
    for (int c = 0; c < shape.channels; ++c) {
        const EvalOracle oracle(basis.prime(static_cast<size_t>(c)).q,
                                shape.n, kRoots,
                                cfg.seed * 7919 + static_cast<uint64_t>(c));
        for (size_t i = 0; i < kInputs; ++i) {
            std::vector<std::pair<DConstSpan, DConstSpan>> pairs;
            for (const auto& [a, b] : inputs[i].products)
                pairs.emplace_back(a->channel(c).span(),
                                   b->channel(c).span());
            if (!oracle.check(pairs, refs[i].channel(c).span()))
                ok[i] = false;
        }
    }
    result.attempted += kInputs;
    for (size_t i = 0; i < kInputs; ++i) {
        if (!ok[i]) {
            std::fprintf(stderr, "%s: input %zu failed the GMP check\n",
                         shape.name, i);
            ++result.failed;
            result.correct = false;
        }
    }

    // The 1-thread engine, warmed (and checked) before timing.
    EngineOptions serial_options;
    serial_options.threads = 1;
    Engine serial(serial_options);
    for (size_t i = 0; i < kInputs; ++i) {
        runOp(serial, inputs[i].products, out);
        ++result.attempted;
        if (!sameWords(out, refs[i])) {
            ++result.failed;
            result.correct = false;
        }
    }

    // Each cycle: A, one caller into the nproc-thread engine; B, one
    // caller into the 1-thread engine.
    const uint64_t cycle_ns =
        static_cast<uint64_t>(cfg.seconds * 1e9 / kCycles);
    const size_t block_min =
        (minSamplesForTail(kTailP) + kCycles - 1) / kCycles;
    Loop a, s;
    for (int cycle = 0; cycle < kCycles; ++cycle) {
        const mqx::engine::ThreadPool::Stats before = engine.pool().stats();
        const uint64_t a_ops = a.ops();
        closedLoop(engine, inputs, refs, out, cycle_ns * 6 / 10, block_min,
                   tracer, a);
        counters.addBlock(before, engine.pool().stats(), a.ops() - a_ops);
        closedLoop(serial, inputs, refs, out, cycle_ns * 4 / 10, 1, tracer,
                   s);
    }
    counters.workspaces_live = engine.workspacePool().idleCount() +
                               engine.workspacePool().leasedCount();
    // After the blocks, not after set-up: the workspace pool grows to
    // the peak number of concurrent channel tasks, which one warm-up op
    // reaches only some of the time (one n = 2^16 workspace is 4 MiB).
    const double live_rss_mib = liveResidentMib() - base_rss_mib;

    for (const Loop* loop : {&a, &s}) {
        result.attempted += loop->ops();
        result.failed += loop->failed;
        if (loop->failed)
            result.correct = false;
    }
    result.note("lat_tail_percentile", percentileLabel(kTailP));
    result.note("ops_phase_samples", std::to_string(a.lat_us.size()));
    result.note("serial_phase_samples", std::to_string(s.lat_us.size()));

    if (!cfg.trace) {
        result.add("setup_s", setup_s, "s");
        result.add("ops_s", median(a.block_rates), "op/s");
        result.add("serial_ops_s", median(s.block_rates), "op/s");
        result.add("lat_p50_us", median(a.lat_us), "us");
        result.add("lat_tail_us", percentile(a.lat_us, kTailP), "us");
        result.add("live_rss_mib", live_rss_mib, "MiB");
        return result;
    }

    // Traced: layer probes at this shape, then the service rung on a
    // server of the same shape.
    const net::BasisSpec spec{static_cast<uint32_t>(shape.bits),
                              static_cast<uint32_t>(shape.two_adicity),
                              static_cast<uint32_t>(shape.channels)};
    const double tn_us = probeLayers(
        LayerShape{engine, serial, basis, inputs[0].products, refs[0], spec},
        tracer, result);
    counters.addTo(engine, result);
    {
        net::ServerOptions server_options;
        server_options.engine.threads = threads;
        net::PolymulServer server(server_options);
        const mqx::robust::Status started = server.start();
        if (!started.ok())
            throw std::runtime_error("server start: " + started.toString());
        net::ClientOptions client_options;
        client_options.port = server.port();
        client_options.max_attempts = 1;
        net::Client client(client_options);
        uint64_t calls = 0;
        const double rtt_us =
            probeRoundTrip(client, makeRequest(inputs[0].products, spec, 1),
                           refs[0], tracer, result, calls);
        result.add("net.rtt_us", rtt_us, "us");
        result.add("net.service_overhead_us", rtt_us - tn_us, "us");
        addCoalescing(server.stats(), result);
        client.disconnect();
        checkDrain(server, calls, result);
    }
    result.add("net.loadgen_lag_us", 0.0, "us");
    result.add("trace.overhead_pct",
               ((a.on_us / a.on_ops) / (a.off_us / a.off_ops) - 1.0) * 100.0,
               "%");
    return result;
}

} // namespace perfbench
