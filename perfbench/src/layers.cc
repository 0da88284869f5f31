#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>

#include "blas/blas.h"
#include "net/client.h"
#include "ntt/negacyclic.h"
#include "ntt/ntt.h"
#include "sol/sol_model.h"

namespace perfbench {

using mqx::DConstSpan;
using mqx::DSpan;
using mqx::ResidueVector;
using mqx::engine::Engine;
using mqx::rns::RnsPolynomial;
namespace net = mqx::net;
namespace ntt = mqx::ntt;

size_t
hostThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

void
runOp(Engine& engine, const Products& products, RnsPolynomial& out)
{
    if (products.size() == 1)
        engine.polymulNegacyclicInto(*products[0].first, *products[0].second,
                                     out);
    else
        engine.fmaBatchInto(products, out);
}

bool
sameWords(const RnsPolynomial& a, const RnsPolynomial& b)
{
    if (a.n() != b.n() || a.basis().size() != b.basis().size())
        return false;
    for (size_t c = 0; c < a.basis().size(); ++c) {
        const DConstSpan x = a.channel(c).span();
        const DConstSpan y = b.channel(c).span();
        if (!std::equal(x.hi, x.hi + x.n, y.hi) ||
            !std::equal(x.lo, x.lo + x.n, y.lo))
            return false;
    }
    return true;
}

void
flipOneWord(RnsPolynomial& p)
{
    DSpan s = p.channel(0).span();
    s.lo[s.n / 2] ^= 1;
}

net::Request
makeRequest(const Products& products, const net::BasisSpec& spec,
            uint64_t request_id)
{
    if (products.size() == 1)
        return net::Client::makePolymul(*products[0].first,
                                        *products[0].second, spec,
                                        request_id);
    net::Request req;
    req.op = net::OpKind::Fma;
    req.request_id = request_id;
    req.basis = spec;
    req.n = static_cast<uint32_t>(products[0].first->n());
    for (const auto& [a, b] : products) {
        for (const RnsPolynomial* p : {a, b}) {
            for (uint32_t c = 0; c < spec.channels; ++c)
                req.operands.push_back(p->channel(c));
        }
    }
    return req;
}

double
timeSpans(Tracer& tracer, const char* name, const std::function<void()>& fn)
{
    fn();
    const uint64_t start = nowNs();
    for (int reps = 0; reps < 2000; ++reps) {
        if (reps >= 5 && nowNs() - start >= 100'000'000ull)
            break;
        Tracer::Span span(tracer, name);
        fn();
    }
    return median(tracer.durationsUs(name));
}

namespace {

/** The last result of a probe loop must equal the workload's checked one. */
void
checkProbe(const RnsPolynomial& got, const RnsPolynomial& want,
           RunResult& result)
{
    ++result.attempted;
    if (!sameWords(got, want)) {
        ++result.failed;
        result.correct = false;
    }
}

} // namespace

double
probeLayers(const LayerShape& shape, Tracer& tracer, RunResult& result)
{
    Engine& engine = shape.engine;
    const mqx::Backend backend = engine.backend();
    const RnsPolynomial& a = *shape.products[0].first;
    const RnsPolynomial& b = *shape.products[0].second;
    const size_t n = a.n();
    const size_t k = shape.basis.size();
    const auto& prime = shape.basis.prime(0);
    const DConstSpan a0 = a.channel(0).span();
    const DConstSpan b0 = b.channel(0).span();
    ResidueVector out(n), out2(n), scratch(n);

    // ntt: one channel on the engine's cached plan.
    const auto plan = engine.planCache().get(prime, n);
    const double fwd_us = timeSpans(tracer, "ntt.forward", [&] {
        ntt::forward(*plan, backend, a0, out.span(), scratch.span());
    });
    const double inv_us = timeSpans(tracer, "ntt.inverse", [&] {
        ntt::inverse(*plan, backend, out.span(), out2.span(), scratch.span());
    });
    result.add("ntt.forward_ns", fwd_us * 1e3, "ns");
    result.add("ntt.inverse_ns", inv_us * 1e3, "ns");

    // Blocked plans are not batch-eligible; the batch kernel is then
    // timed on the direct plan of the same prime and length.
    const auto batch_plan =
        ntt::batchSupported(*plan)
            ? plan
            : std::make_shared<const ntt::NttPlan>(prime, n, size_t{0});
    const size_t il = ntt::batchInterleave(backend);
    ResidueVector lanes(il * n), lanes_out(il * n), lanes_scratch(il * n);
    for (size_t i = 0; i < il * n; ++i)
        lanes.set(i, a.channel(0).at(i % n));
    const double batch_us = timeSpans(tracer, "ntt.forward_batch", [&] {
        ntt::forwardBatch(*batch_plan, backend, il, lanes.span(),
                          lanes_out.span(), lanes_scratch.span());
    });
    result.add("ntt.forward_batch_ns_per_lane",
               batch_us * 1e3 / static_cast<double>(il), "ns");

    const size_t swept = plan->bytesSweptPerTransform(
        ntt::resolveStageFusion(backend, n, mqx::StageFusion::Auto));
    result.add("ntt.floor_ratio",
               fwd_us * 1e3 /
                   mqx::sol::dramFloorNs(swept, mqx::sol::intelXeon8352Y()),
               "ratio");

    // negacyclic: one channel through a workspace leased from the
    // engine's pool, and the twist pass alone.
    const auto tables = engine.planCache().getNegacyclic(prime, n);
    double channel_us = 0;
    {
        auto lease = engine.workspacePool().acquire(tables, backend);
        ntt::NegacyclicEngine& ne = lease.engine();
        const double poly_us = timeSpans(tracer, "negacyclic.polymul", [&] {
            ne.polymul(a0, b0, out.span());
        });
        result.add("negacyclic.polymul_ns", poly_us * 1e3, "ns");
        channel_us = poly_us;
        if (shape.products.size() > 1) {
            // One channel of the dot product on the per-channel path:
            // 2 forwards and an accumulate per pair, then one inverse.
            ResidueVector ea(n), eb(n), acc(n);
            channel_us = timeSpans(tracer, "negacyclic.fma_channel", [&] {
                acc.zero();
                for (const auto& [x, y] : shape.products) {
                    ne.forward(x->channel(0).span(), ea.span());
                    ne.forward(y->channel(0).span(), eb.span());
                    ne.pointwiseAccumulate(acc.span(), ea.span(), eb.span());
                }
                ne.inverse(acc.span(), out.span());
            });
        }
    }
    const double twist_us = timeSpans(tracer, "negacyclic.twist", [&] {
        ntt::vmulShoup(backend, plan->modulus(), a0, tables->twist().span(),
                       tables->twistShoup().span(), out.span());
    });
    result.add("negacyclic.twist_ns", twist_us * 1e3, "ns");

    // blas: point-wise kernels, one channel.
    const double vmul_us = timeSpans(tracer, "blas.vmul", [&] {
        mqx::blas::vmul(backend, plan->modulus(), a0, b0, out.span());
    });
    const double vadd_us = timeSpans(tracer, "blas.vadd", [&] {
        mqx::blas::vadd(backend, plan->modulus(), a0, b0, out.span());
    });
    result.add("blas.vmul_ns", vmul_us * 1e3, "ns");
    result.add("blas.vadd_ns", vadd_us * 1e3, "ns");

    // rns: the serial RnsKernels path beside the 1-thread engine op.
    RnsPolynomial c(shape.basis, n);
    mqx::rns::RnsKernels kernels(shape.basis, backend);
    const double rns_us = timeSpans(tracer, "rns.kernels_op", [&] {
        if (shape.products.size() == 1)
            kernels.polymulNegacyclicInto(a, b, c);
        else
            kernels.fmaBatchInto(shape.products, c);
    });
    result.add("rns.kernels_polymul_us", rns_us, "us");
    checkProbe(c, shape.result, result);

    // engine: the whole op at 1 and at nproc threads.
    const double t1_us = timeSpans(tracer, "engine.op_t1", [&] {
        runOp(shape.serial, shape.products, c);
    });
    checkProbe(c, shape.result, result);
    const double tn_us = timeSpans(tracer, "engine.op_tn", [&] {
        runOp(engine, shape.products, c);
    });
    checkProbe(c, shape.result, result);
    result.add("engine.t1_op_us", t1_us, "us");
    result.add("engine.tn_op_us", tn_us, "us");
    result.add("engine.tn_speedup", t1_us / tn_us, "ratio");
    result.add("engine.dispatch_overhead_us",
               t1_us - static_cast<double>(k) * channel_us, "us");

    // net: the wire codec on this shape's request and response.
    const net::Request req = makeRequest(shape.products, shape.spec, 1);
    std::vector<uint8_t> frame;
    const double enc_req = timeSpans(tracer, "net.encode_request", [&] {
        frame = net::encodeRequestFrame(req);
    });
    net::Request decoded;
    const double dec_req = timeSpans(tracer, "net.decode_request", [&] {
        if (!net::decodeRequest(frame.data() + net::kHeaderBytes,
                                frame.size() - net::kHeaderBytes, decoded)
                 .ok())
            throw std::runtime_error("decodeRequest rejected a valid frame");
    });
    const double validate = timeSpans(tracer, "net.validate_residues", [&] {
        if (!net::validateResidues(decoded, shape.basis).ok())
            throw std::runtime_error("validateResidues rejected residues");
    });
    net::Response resp;
    resp.request_id = 1;
    resp.basis = shape.spec;
    resp.n = static_cast<uint32_t>(n);
    for (size_t ch = 0; ch < k; ++ch)
        resp.channels.push_back(shape.result.channel(ch));
    std::vector<uint8_t> resp_frame;
    const double enc_resp = timeSpans(tracer, "net.encode_response", [&] {
        resp_frame = net::encodeResponseFrame(resp);
    });
    net::Response resp_decoded;
    const double dec_resp = timeSpans(tracer, "net.decode_response", [&] {
        if (!net::decodeResponse(resp_frame.data() + net::kHeaderBytes,
                                 resp_frame.size() - net::kHeaderBytes,
                                 resp_decoded)
                 .ok())
            throw std::runtime_error("decodeResponse rejected a valid frame");
    });
    result.add("net.encode_request_us", enc_req, "us");
    result.add("net.decode_request_us", dec_req, "us");
    result.add("net.encode_response_us", enc_resp, "us");
    result.add("net.decode_response_us", dec_resp, "us");
    result.add("net.validate_residues_us", validate, "us");
    result.add("net.frame_kib", static_cast<double>(frame.size()) / 1024.0,
               "KiB");
    return tn_us;
}

bool
responseMatches(const net::Response& resp, const RnsPolynomial& want)
{
    if (resp.code != mqx::robust::StatusCode::Ok ||
        resp.channels.size() != want.basis().size())
        return false;
    for (size_t c = 0; c < resp.channels.size(); ++c) {
        if (resp.channels[c] != want.channel(c))
            return false;
    }
    return true;
}

double
probeRoundTrip(net::Client& client, const net::Request& req,
               const RnsPolynomial& want, Tracer& tracer, RunResult& result,
               uint64_t& calls)
{
    net::Response resp;
    return timeSpans(tracer, "net.rtt", [&] {
        ++calls;
        ++result.attempted;
        const mqx::robust::Status s = client.call(req, resp);
        if (!s.ok() || !responseMatches(resp, want)) {
            ++result.failed;
            result.correct = false;
        }
    });
}

void
addCoalescing(const net::PolymulServer::Stats& stats, RunResult& result)
{
    const double reqs = static_cast<double>(stats.coalesced_requests);
    result.add("net.coalesced_per_batch",
               stats.coalesced_batches > 0
                   ? reqs / static_cast<double>(stats.coalesced_batches)
                   : 0.0,
               "count");
    result.add("net.coalesced_share",
               stats.requests > 0 ? reqs / static_cast<double>(stats.requests)
                                  : 0.0,
               "ratio");
}

void
checkDrain(net::PolymulServer& server, uint64_t replies_counted,
           RunResult& result)
{
    const net::DrainReport report = server.stop();
    if (!report.clean || report.leased_at_drain != 0 ||
        report.served != replies_counted) {
        std::fprintf(stderr,
                     "drain check failed: clean=%d leased=%zu served=%llu "
                     "replies counted=%llu\n",
                     report.clean ? 1 : 0, report.leased_at_drain,
                     static_cast<unsigned long long>(report.served),
                     static_cast<unsigned long long>(replies_counted));
        result.correct = false;
    }
}

void
EngineCounters::addBlock(const mqx::engine::ThreadPool::Stats& before,
                         const mqx::engine::ThreadPool::Stats& after,
                         uint64_t block_ops)
{
    const auto idle = [](const mqx::engine::ThreadPool::Stats& s) {
        uint64_t sum = 0;
        for (uint64_t v : s.worker_idle_ns)
            sum += v;
        return sum;
    };
    tasks += after.executed() - before.executed();
    steals += after.steals - before.steals;
    idle_ns += idle(after) - idle(before);
    ops += block_ops;
}

void
EngineCounters::addTo(Engine& engine, RunResult& result) const
{
    const double per_op = ops > 0 ? 1.0 / static_cast<double>(ops) : 0.0;
    result.add("engine.pool_tasks_per_op", static_cast<double>(tasks) * per_op,
               "count");
    result.add("engine.pool_steals_per_op",
               static_cast<double>(steals) * per_op, "count");
    result.add("engine.pool_idle_us_per_op",
               static_cast<double>(idle_ns) / 1e3 * per_op, "us");
    result.add("engine.plan_builds", static_cast<double>(plans.builds),
               "count");
    result.add("engine.plan_build_ms", static_cast<double>(plans.build_ns) / 1e6,
               "ms");
    result.add("engine.twiddle_mib",
               static_cast<double>(engine.planCache().twiddleBytes()) /
                   (1024.0 * 1024.0),
               "MiB");
    result.add("engine.workspaces_live", static_cast<double>(workspaces_live),
               "count");
}

} // namespace perfbench
