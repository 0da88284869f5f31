/**
 * @file
 * Workload plumbing shared by the three workloads, and the traced
 * mode's layer probes: each probe times one public entry point of one
 * layer (ntt, blas, rns, engine, net) at the workload's own shape, one
 * span per call, and reports the median span.
 */
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "common.h"
#include "engine/engine.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "rns/rns.h"

namespace perfbench {

using Products = std::vector<
    std::pair<const mqx::rns::RnsPolynomial*, const mqx::rns::RnsPolynomial*>>;

/** Width of the machine: engine pools and load generators use this. */
size_t hostThreads();

/** One workload op: a polymul for a single pair, else a dot product. */
void runOp(mqx::engine::Engine& engine, const Products& products,
           mqx::rns::RnsPolynomial& out);

/** Word-for-word equality of two polynomials (every channel, hi and lo). */
bool sameWords(const mqx::rns::RnsPolynomial& a,
               const mqx::rns::RnsPolynomial& b);

/** Flip one low word of @p p (the deliberate-corruption switch). */
void flipOneWord(mqx::rns::RnsPolynomial& p);

/** The wire request a client sends for @p products. */
mqx::net::Request makeRequest(const Products& products,
                              const mqx::net::BasisSpec& spec,
                              uint64_t request_id);

/**
 * Run @p fn once untimed, then under a span named @p name until it has
 * run at least five times and for at least 0.1 s; median span, us.
 */
double timeSpans(Tracer& tracer, const char* name,
                 const std::function<void()>& fn);

/** The response carries exactly @p want's channels, word for word. */
bool responseMatches(const mqx::net::Response& resp,
                     const mqx::rns::RnsPolynomial& want);

/**
 * net.rtt_us: unloaded round trips of @p req on one connection, each
 * reply checked against @p want (counted in @p result). Returns the
 * median round trip, us; @p calls counts the requests sent.
 */
double probeRoundTrip(mqx::net::Client& client, const mqx::net::Request& req,
                      const mqx::rns::RnsPolynomial& want, Tracer& tracer,
                      RunResult& result, uint64_t& calls);

/** net.coalesced_per_batch and net.coalesced_share from server stats. */
void addCoalescing(const mqx::net::PolymulServer::Stats& stats,
                   RunResult& result);

/**
 * Stop @p server and check the drain: clean, no workspace lease left,
 * and as many responses served as the clients counted.
 */
void checkDrain(mqx::net::PolymulServer& server, uint64_t replies_counted,
                RunResult& result);

/** What the layer probes need to know about a workload. */
struct LayerShape {
    /** The nproc engine that serves the workload. */
    mqx::engine::Engine& engine;
    /** A 1-thread engine, warmed on the same shape. */
    mqx::engine::Engine& serial;
    const mqx::rns::RnsBasis& basis;
    /** One input of the workload, and its checked result. */
    const Products& products;
    const mqx::rns::RnsPolynomial& result;
    mqx::net::BasisSpec spec;
};

/**
 * Probe the ntt, negacyclic, blas, rns, engine-op and wire-codec
 * layers at the workload's shape and add their per-layer metrics.
 * Returns engine.tn_op_us (the service rung subtracts it).
 */
double probeLayers(const LayerShape& shape, Tracer& tracer,
                   RunResult& result);

/**
 * Engine-side metrics every workload reports from its own engine:
 * ThreadPool::Stats deltas per op summed over the measured blocks,
 * plan-cache builds after set-up, twiddle and workspace footprint.
 */
struct EngineCounters {
    uint64_t tasks = 0, steals = 0, idle_ns = 0, ops = 0;
    mqx::engine::PlanCache::Stats plans;
    /** Workspace engines alive after the measured blocks. */
    size_t workspaces_live = 0;

    /** Add the pool's work between two snapshots, done by @p block_ops. */
    void addBlock(const mqx::engine::ThreadPool::Stats& before,
                  const mqx::engine::ThreadPool::Stats& after,
                  uint64_t block_ops);

    void addTo(mqx::engine::Engine& engine, RunResult& result) const;
};

} // namespace perfbench
