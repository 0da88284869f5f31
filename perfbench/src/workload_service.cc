/**
 * @file
 * service_n1024: polymul requests (n = 1024, four 40-bit primes, no
 * deadline, so coalescable) to an in-process net::PolymulServer whose
 * engine pool has nproc threads. Phases:
 *   B  open loop at a fixed nominal rate -> lat_p50_us
 *   A  closed loop, nproc connections, each waiting for its reply
 *                                       -> ops_s, lat_tail_us
 *   C  the same polymul on a 1-thread engine, in-process -> serial_ops_s
 * B, A and C alternate in short blocks (kCycles cycles) across the run.
 * Each block opens its own connections and the previous block's are
 * closed first, so at most nproc connections are open at once. Open-loop
 * latency runs from each request's due time. Every reply is compared
 * word for word with a schoolbook product computed once per distinct
 * operand pair, before set-up and outside it.
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>

#include "layers.h"
#include "oracle.h"
#include "workloads.h"

namespace perfbench {

using mqx::engine::Engine;
using mqx::engine::EngineOptions;
using mqx::rns::RnsBasis;
using mqx::rns::RnsPolynomial;
namespace net = mqx::net;

namespace {

constexpr const char* kName = "service_n1024";
constexpr size_t kN = 1024;
/** The service's default shape: four 40-bit primes, 2-adicity 12. */
constexpr net::BasisSpec kSpec{40, 12, 4};
/** Distinct operand pairs; requests cycle through them. */
constexpr size_t kPool = 32;
/**
 * Fixed open-loop rate, well below the lowest saturation this host
 * class has shown (about 933 req/s), so no request is shed.
 */
constexpr double kNominalRps = 200.0;
/** Fixed percentile of lat_tail_us (see README, "Steadiness"). */
constexpr double kTailP = 90.0;
/** Body offset of the request id in a request frame. */
constexpr size_t kRequestIdOffset = net::kHeaderBytes + 4;

/** Expected words of one reply: [channel][coefficient]. */
using Expected = std::vector<std::vector<uint64_t>>;

struct Pool {
    std::vector<RnsPolynomial> polys; ///< a_i at 2i, b_i at 2i + 1
    std::vector<net::Request> requests;
    std::vector<std::vector<uint8_t>> frames;
    std::vector<Expected> expected;

    const RnsPolynomial& a(size_t i) const { return polys[2 * i]; }
    const RnsPolynomial& b(size_t i) const { return polys[2 * i + 1]; }
};

bool
replyMatches(const net::Response& resp, const Expected& want)
{
    if (resp.code != mqx::robust::StatusCode::Ok ||
        resp.channels.size() != want.size())
        return false;
    for (size_t c = 0; c < want.size(); ++c) {
        if (!equalsWords(resp.channels[c].span(), want[c]))
            return false;
    }
    return true;
}

bool
polyMatches(const RnsPolynomial& p, const Expected& want)
{
    for (size_t c = 0; c < want.size(); ++c) {
        if (!equalsWords(p.channel(c).span(), want[c]))
            return false;
    }
    return true;
}

/** One closed-loop client thread's tally; rounds alternate spans. */
struct Closed {
    std::vector<double> lat_us;
    uint64_t calls = 0, replies = 0, failed = 0;
    double on_us = 0, off_us = 0;
    uint64_t on_calls = 0, off_calls = 0;
};

/**
 * Closed-loop client @p t of @p clients, one block: whole rounds over
 * the pool (rotated per client) until @p end_ns, one request in flight.
 */
void
closedClient(net::Client& client, size_t t, size_t clients, const Pool& pool,
             uint64_t end_ns, Tracer& tracer, Closed& tally)
{
    net::Response resp;
    for (uint64_t round = 0; nowNs() < end_ns; ++round) {
        const bool on = round % 2 == 0;
        for (size_t j = 0; j < kPool; ++j) {
            const size_t idx = (j + t * kPool / clients) % kPool;
            const uint64_t t0 = nowNs();
            mqx::robust::Status s;
            {
                Tracer::Span span(tracer, "net.call",
                                  pool.requests[idx].request_id, on);
                s = client.call(pool.requests[idx], resp);
            }
            const double us = static_cast<double>(nowNs() - t0) / 1e3;
            tally.lat_us.push_back(us);
            (on ? tally.on_us : tally.off_us) += us;
            ++(on ? tally.on_calls : tally.off_calls);
            ++tally.calls;
            if (s.ok())
                ++tally.replies;
            if (!s.ok() || !replyMatches(resp, pool.expected[idx]))
                ++tally.failed;
        }
    }
}

/** What one open-loop phase measured. */
struct Open {
    std::vector<double> lat_us; ///< from due time to reply
    std::vector<double> lag_us; ///< how late each send started
    uint64_t attempted = 0, replies = 0, failed = 0;
};

/** One open-loop connection of one block: a sender on a schedule and
 *  a receiver. */
struct OpenConn {
    net::Socket sock;
    std::vector<double> lat_us, lag_us;
    uint64_t replies = 0, failed = 0;
    size_t missing = 0;
    std::atomic<bool> sender_done{false};
};

/**
 * One open-loop block, added to @p out: offer @p rate requests per
 * second for @p seconds over max(1, nproc/2) fresh connections to
 * @p port (with a sender and a receiver each, nproc load-generator
 * threads), closed when the block ends. Request k of connection c is
 * due at start + (c + k * conns) / rate whether or not earlier replies
 * came; its id carries @p block, c and k.
 */
void
openLoop(uint16_t port, uint64_t block, const Pool& pool, double rate,
         double seconds, Tracer& tracer, Open& out)
{
    const size_t conns = std::max<size_t>(1, hostThreads() / 2);
    std::vector<std::unique_ptr<OpenConn>> cs;
    for (size_t c = 0; c < conns; ++c) {
        auto conn = std::make_unique<OpenConn>();
        const mqx::robust::Status s =
            net::connectLoopback(port, 2000, conn->sock);
        if (!s.ok())
            throw std::runtime_error("connect: " + s.toString());
        cs.push_back(std::move(conn));
    }
    const size_t total =
        std::max<size_t>(1, static_cast<size_t>(std::ceil(rate * seconds)));
    const size_t per_conn = (total + conns - 1) / conns;
    const double gap_ns = 1e9 / rate;

    const uint64_t start = nowNs() + 20'000'000ull;
    const auto due = [&](size_t c, size_t k) {
        return start +
               static_cast<uint64_t>(gap_ns * static_cast<double>(c + k * conns));
    };
    std::vector<std::thread> threads;
    for (size_t c = 0; c < conns; ++c) {
        OpenConn* conn = cs[c].get();
        threads.emplace_back([&, c, conn] {
            std::vector<uint8_t> frame;
            for (size_t k = 0; k < per_conn; ++k) {
                const uint64_t when = due(c, k);
                const uint64_t now = nowNs();
                if (now < when)
                    std::this_thread::sleep_for(
                        std::chrono::nanoseconds(when - now));
                frame = pool.frames[(c + k * conns) % kPool];
                const uint64_t id = (block << 40) |
                                    (static_cast<uint64_t>(c + 1) << 32) | k;
                std::memcpy(frame.data() + kRequestIdOffset, &id, sizeof(id));
                const uint64_t sent = nowNs();
                conn->lag_us.push_back(
                    static_cast<double>(sent > when ? sent - when : 0) / 1e3);
                if (!conn->sock.writeAll(frame.data(), frame.size(), 2000)
                         .ok())
                    break;
            }
            conn->sender_done.store(true, std::memory_order_release);
        });
        threads.emplace_back([&, c, conn] {
            ReplyLedger ledger(per_conn);
            net::FrameReader reader;
            std::vector<uint8_t> buf(1 << 16), body;
            size_t answered = 0;
            uint64_t quiet_since = 0;
            bool framing_lost = false;
            while (answered < per_conn && !framing_lost) {
                const net::IoResult io =
                    conn->sock.readSome(buf.data(), buf.size(), 50);
                if (!io.status.ok() || io.eof)
                    break;
                const uint64_t now = nowNs();
                if (io.timed_out) {
                    if (!conn->sender_done.load(std::memory_order_acquire))
                        continue;
                    if (quiet_since == 0)
                        quiet_since = now;
                    else if (now - quiet_since > 2'000'000'000ull)
                        break;
                    continue;
                }
                quiet_since = 0;
                reader.feed(buf.data(), io.bytes);
                for (;;) {
                    const net::FrameReader::Next next = reader.next(body);
                    if (next == net::FrameReader::Next::NeedMore)
                        break;
                    if (next == net::FrameReader::Next::Error) {
                        ++conn->failed;
                        framing_lost = true;
                        break;
                    }
                    ++conn->replies;
                    net::Response resp;
                    if (!net::decodeResponse(body.data(), body.size(), resp)
                             .ok()) {
                        ++conn->failed;
                        continue;
                    }
                    const size_t k = resp.request_id & 0xffffffffull;
                    if ((resp.request_id >> 32) != ((block << 8) | (c + 1)) ||
                        !ledger.answer(k)) {
                        ++conn->failed;
                        continue;
                    }
                    ++answered;
                    const uint64_t when = due(c, k);
                    conn->lat_us.push_back(static_cast<double>(now - when) /
                                           1e3);
                    tracer.record("net.request", resp.request_id, when, now);
                    if (!replyMatches(resp,
                                      pool.expected[(c + k * conns) % kPool]))
                        ++conn->failed;
                }
            }
            conn->missing = ledger.missing();
        });
    }
    for (std::thread& t : threads)
        t.join();

    out.attempted += conns * per_conn;
    for (auto& conn : cs) {
        out.lat_us.insert(out.lat_us.end(), conn->lat_us.begin(),
                          conn->lat_us.end());
        out.lag_us.insert(out.lag_us.end(), conn->lag_us.begin(),
                          conn->lag_us.end());
        out.replies += conn->replies;
        out.failed += conn->failed + conn->missing;
    }
}

} // namespace

bool
isServiceWorkload(const std::string& name)
{
    return name == kName;
}

RunResult
runServiceWorkload(const RunConfig& cfg, uint64_t start_ns, Tracer& tracer)
{
    const size_t threads = hostThreads();
    RunResult result;

    // The client's operands, requests, encoded frames and their
    // schoolbook products are the benchmark's work: they are not counted
    // in set-up, and the resident memory they take is the baseline that
    // live_rss_mib is measured from.
    const uint64_t gen_start = nowNs();
    RnsBasis basis(static_cast<int>(kSpec.bits),
                   static_cast<int>(kSpec.two_adicity),
                   static_cast<int>(kSpec.channels));
    Pool pool;
    pool.polys.reserve(2 * kPool);
    for (size_t i = 0; i < 2 * kPool; ++i)
        pool.polys.push_back(
            mqx::rns::randomPolynomial(basis, kN, cfg.seed * 1'000'003 + i));
    for (size_t i = 0; i < kPool; ++i) {
        pool.requests.push_back(net::Client::makePolymul(
            pool.a(i), pool.b(i), kSpec, i + 1));
        pool.frames.push_back(net::encodeRequestFrame(pool.requests.back()));
        Expected e;
        for (size_t c = 0; c < kSpec.channels; ++c)
            e.push_back(schoolbookNegacyclic(basis.prime(c).q.lo,
                                             pool.a(i).channel(c).span(),
                                             pool.b(i).channel(c).span()));
        pool.expected.push_back(std::move(e));
    }
    RnsPolynomial out(basis, kN);
    const double base_rss_mib = liveResidentMib();
    const uint64_t gen_ns = nowNs() - gen_start;

    // Set-up: the server listens and has served one warm-up request.
    net::ServerOptions server_options;
    server_options.engine.threads = threads;
    net::PolymulServer server(server_options);
    const mqx::robust::Status started = server.start();
    if (!started.ok())
        throw std::runtime_error("server start: " + started.toString());
    // Clients do not retry: every request gets exactly one reply, so
    // a shed or a lost connection shows as a failed operation.
    net::ClientOptions client_options;
    client_options.port = server.port();
    client_options.max_attempts = 1;
    net::Response warm;
    mqx::robust::Status warm_status;
    {
        net::Client client(client_options);
        warm_status = client.call(pool.requests[0], warm);
    }
    const double setup_s =
        static_cast<double>(nowNs() - start_ns - gen_ns) / 1e9;
    EngineCounters counters;
    counters.plans = server.engine().planCache().stats();
    uint64_t replies = warm_status.ok() ? 1 : 0;

    if (cfg.corrupt && !warm.channels.empty())
        warm.channels[0].span().lo[kN / 2] ^= 1;
    ++result.attempted;
    if (!warm_status.ok() || !replyMatches(warm, pool.expected[0]))
        ++result.failed;

    // The 1-thread engine for C, warmed (and checked) before timing.
    EngineOptions serial_options;
    serial_options.threads = 1;
    Engine serial(serial_options);
    serial.polymulNegacyclicInto(pool.a(0), pool.b(0), out);
    ++result.attempted;
    if (!polyMatches(out, pool.expected[0]))
        ++result.failed;

    // Each cycle: B, the open loop at the nominal rate; A, the closed
    // loop; C, the 1-thread engine. The closed-loop clients reconnect
    // on their first call of each block and are dropped before the
    // next open loop, so the two loops never hold more than nproc
    // connections between them.
    const double cycle_s = cfg.seconds / kCycles;
    Closed all;
    std::vector<double> closed_rates, serial_rates;
    Open nominal;
    uint64_t serial_ops = 0;
    std::vector<std::unique_ptr<net::Client>> closed_clients;
    for (size_t t = 0; t < threads; ++t) {
        net::ClientOptions o = client_options;
        o.jitter_seed = t + 1;
        closed_clients.push_back(std::make_unique<net::Client>(o));
    }
    for (int cycle = 0; cycle < kCycles; ++cycle) {
        for (auto& client : closed_clients)
            client->disconnect();
        const uint64_t block = static_cast<uint64_t>(cycle) + 1;
        openLoop(server.port(), block, pool, kNominalRps, cycle_s * 0.45,
                 tracer, nominal);

        std::vector<Closed> closed(threads);
        const mqx::engine::ThreadPool::Stats before =
            server.engine().pool().stats();
        const uint64_t a_start = nowNs();
        const uint64_t a_end =
            a_start + static_cast<uint64_t>(cycle_s * 0.45 * 1e9);
        std::vector<std::thread> clients;
        for (size_t t = 0; t < threads; ++t)
            clients.emplace_back([&, t] {
                closedClient(*closed_clients[t], t, threads, pool, a_end,
                             tracer, closed[t]);
            });
        for (std::thread& t : clients)
            t.join();
        const double a_seconds = static_cast<double>(nowNs() - a_start) / 1e9;
        uint64_t block_calls = 0;
        for (const Closed& c : closed) {
            all.lat_us.insert(all.lat_us.end(), c.lat_us.begin(),
                              c.lat_us.end());
            block_calls += c.calls;
            all.calls += c.calls;
            all.replies += c.replies;
            all.failed += c.failed;
            all.on_us += c.on_us;
            all.off_us += c.off_us;
            all.on_calls += c.on_calls;
            all.off_calls += c.off_calls;
        }
        counters.addBlock(before, server.engine().pool().stats(), block_calls);
        closed_rates.push_back(static_cast<double>(block_calls) / a_seconds);

        const uint64_t c_end =
            nowNs() + static_cast<uint64_t>(cycle_s * 0.1 * 1e9);
        uint64_t block_ops = 0;
        double block_us = 0;
        while (nowNs() < c_end || block_ops == 0) {
            for (size_t i = 0; i < kPool; ++i) {
                const uint64_t t0 = nowNs();
                {
                    Tracer::Span span(tracer, "engine.op", i);
                    serial.polymulNegacyclicInto(pool.a(i), pool.b(i), out);
                }
                block_us += static_cast<double>(nowNs() - t0) / 1e3;
                ++block_ops;
                if (!polyMatches(out, pool.expected[i]))
                    ++result.failed;
            }
        }
        serial_ops += block_ops;
        serial_rates.push_back(static_cast<double>(block_ops) /
                               (block_us / 1e6));
    }
    counters.workspaces_live = server.engine().workspacePool().idleCount() +
                               server.engine().workspacePool().leasedCount();
    // While the closed-loop sessions are still open, so that the figure
    // does not race the server's session teardown; the open loop's
    // sessions ended during the last closed-loop block.
    const double live_rss_mib = liveResidentMib() - base_rss_mib;
    closed_clients.clear();
    result.attempted += all.calls + serial_ops;
    result.failed += all.failed;
    replies += all.replies;
    result.attempted += nominal.attempted;
    result.failed += nominal.failed;
    replies += nominal.replies;

    result.note("lat_tail_percentile", percentileLabel(kTailP));
    result.note("nominal_samples", std::to_string(nominal.lat_us.size()));
    result.note("closed_loop_calls", std::to_string(all.calls));

    if (!cfg.trace) {
        checkDrain(server, replies, result);
        result.add("setup_s", setup_s, "s");
        result.add("ops_s", median(closed_rates), "op/s");
        result.add("serial_ops_s", median(serial_rates), "op/s");
        result.add("lat_p50_us", median(nominal.lat_us), "us");
        result.add("lat_tail_us", percentile(all.lat_us, kTailP), "us");
        result.add("live_rss_mib", live_rss_mib, "MiB");
    } else {
        // The checked result of pair 0 as a polynomial, for the probes.
        serial.polymulNegacyclicInto(pool.a(0), pool.b(0), out);
        const Products products{{&pool.a(0), &pool.b(0)}};
        const double tn_us = probeLayers(
            LayerShape{server.engine(), serial, basis, products, out, kSpec},
            tracer, result);
        counters.addTo(server.engine(), result);
        // A fresh connection: the warm-up one has passed the server's
        // idle timeout by now.
        net::Client client(client_options);
        uint64_t calls = 0;
        const double rtt_us = probeRoundTrip(client, pool.requests[0], out,
                                             tracer, result, calls);
        replies += calls;
        result.add("net.rtt_us", rtt_us, "us");
        result.add("net.service_overhead_us", rtt_us - tn_us, "us");
        addCoalescing(server.stats(), result);
        result.add("net.loadgen_lag_us", percentile(nominal.lag_us, kTailP),
                   "us");
        result.add("trace.overhead_pct",
                   ((all.on_us / all.on_calls) / (all.off_us / all.off_calls) -
                    1.0) * 100.0,
                   "%");
        client.disconnect();
        checkDrain(server, replies, result);
    }
    if (result.failed)
        result.correct = false;
    return result;
}

} // namespace perfbench
