/**
 * @file
 * Robustness-layer tests (ISSUE 9): Status taxonomy, CancelToken
 * deadlines, hardened env parsing, parallelFor drain-on-failure, the
 * Freivalds / guard-digest verification math, workspace lease
 * accounting — and, when the tree is configured with
 * -DMQX_FAULT_INJECTION=ON, the injection harness itself: fault-plan
 * determinism, detect-and-repair of planted bit flips, batch-kernel
 * fallback, and deadline cancellation mid-pipeline with balanced
 * leases. The injection-gated suites GTEST_SKIP on regular builds, so
 * one test binary serves both CI legs.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>
#include <vector>

#include "bench_util/rng.h"
#include "core/env.h"
#include "engine/engine.h"
#include "robust/cancel.h"
#include "robust/fault_injection.h"
#include "robust/status.h"
#include "robust/verify.h"
#include "test_util.h"

namespace mqx {
namespace {

void
expectIdentical(const rns::RnsPolynomial& a, const rns::RnsPolynomial& b)
{
    ASSERT_EQ(&a.basis(), &b.basis());
    ASSERT_EQ(a.n(), b.n());
    for (size_t i = 0; i < a.basis().size(); ++i)
        ASSERT_EQ(a.channel(i), b.channel(i)) << "channel " << i;
}

const rns::RnsBasis&
testBasis()
{
    // Four 40-bit primes with 2-adicity 8: supports negacyclic n <= 128.
    static rns::RnsBasis basis(40, 8, 4);
    return basis;
}

// ---------------------------------------------------------------------------
// Status taxonomy.
// ---------------------------------------------------------------------------

TEST(Status, CodesNamesAndToString)
{
    robust::Status ok;
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.toString(), "OK");

    robust::Status bad(robust::StatusCode::DataCorruption, "channel 2");
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.code(), robust::StatusCode::DataCorruption);
    EXPECT_EQ(bad.toString(), "DATA_CORRUPTION: channel 2");
    EXPECT_STREQ(robust::statusCodeName(robust::StatusCode::Cancelled),
                 "CANCELLED");
}

TEST(Status, ThrowStatusCarriesTheStatus)
{
    try {
        robust::throwStatus(robust::StatusCode::ResourceExhausted, "pool");
        FAIL() << "throwStatus returned";
    } catch (const robust::StatusError& e) {
        EXPECT_EQ(e.status().code(),
                  robust::StatusCode::ResourceExhausted);
        EXPECT_NE(std::string(e.what()).find("RESOURCE_EXHAUSTED"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------------
// CancelToken.
// ---------------------------------------------------------------------------

TEST(CancelToken, RequestCancelLatchesAndCheckpointThrows)
{
    robust::CancelToken token;
    EXPECT_FALSE(token.cancelled());
    EXPECT_TRUE(token.status().ok());
    EXPECT_FALSE(token.hasDeadline());
    token.checkpoint("stage"); // live: no-op

    token.requestCancel();
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.status().code(), robust::StatusCode::Cancelled);
    token.requestCancel(); // idempotent
    EXPECT_EQ(token.status().code(), robust::StatusCode::Cancelled);
    try {
        token.checkpoint("engine.polymul.forward");
        FAIL() << "checkpoint did not throw";
    } catch (const robust::StatusError& e) {
        EXPECT_EQ(e.status().code(), robust::StatusCode::Cancelled);
        EXPECT_NE(e.status().message().find("engine.polymul.forward"),
                  std::string::npos);
    }
}

TEST(CancelToken, ExpiredDeadlineLatchesDeadlineExceeded)
{
    robust::CancelToken token = robust::CancelToken::withDeadlineNs(0);
    EXPECT_TRUE(token.hasDeadline());
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.status().code(), robust::StatusCode::DeadlineExceeded);
}

TEST(CancelToken, GenerousDeadlineStaysLive)
{
    // An hour from now: must not trip within this test.
    robust::CancelToken token =
        robust::CancelToken::withDeadlineNs(3600ull * 1000000000ull);
    EXPECT_FALSE(token.cancelled());
    EXPECT_TRUE(token.status().ok());
}

// ---------------------------------------------------------------------------
// Hardened env parsing (core/env.h, MQX_THREADS).
// ---------------------------------------------------------------------------

TEST(EnvUint, MalformedValuesFallBack)
{
    const char* kVar = "MQX_TEST_ENV_UINT";
    ::unsetenv(kVar);
    EXPECT_EQ(core::envUint(kVar, 7), 7u); // unset

    ::setenv(kVar, "", 1);
    EXPECT_EQ(core::envUint(kVar, 7), 7u); // empty

    ::setenv(kVar, "12", 1);
    EXPECT_EQ(core::envUint(kVar, 7), 12u); // valid

    ::setenv(kVar, "4x", 1);
    EXPECT_EQ(core::envUint(kVar, 7), 7u); // trailing garbage

    ::setenv(kVar, "banana", 1);
    EXPECT_EQ(core::envUint(kVar, 7), 7u); // garbage

    ::setenv(kVar, "-3", 1);
    EXPECT_EQ(core::envUint(kVar, 7), 7u); // negative (strtoull wraps)

    ::setenv(kVar, "99999999999999999999999999", 1);
    EXPECT_EQ(core::envUint(kVar, 7), 7u); // overflow

    ::setenv(kVar, "0", 1);
    EXPECT_EQ(core::envUint(kVar, 7, /*min_ok=*/1), 7u); // below policy

    ::setenv(kVar, "65", 1);
    EXPECT_EQ(core::envUint(kVar, 7, 0, /*max_ok=*/64), 7u); // above policy
    ::unsetenv(kVar);
}

TEST(EnvIsOneOf, MatchesOnlyListedValues)
{
    // The MQX_TELEMETRY kill-switch shape: exact matches only.
    const char* kVar = "MQX_TEST_ENV_SWITCH";
    ::unsetenv(kVar);
    EXPECT_FALSE(core::envIsOneOf(kVar, {"0", "off", "OFF"})); // unset
    ::setenv(kVar, "off", 1);
    EXPECT_TRUE(core::envIsOneOf(kVar, {"0", "off", "OFF"}));
    ::setenv(kVar, "Off", 1);
    EXPECT_FALSE(core::envIsOneOf(kVar, {"0", "off", "OFF"}));
    ::setenv(kVar, "", 1);
    EXPECT_FALSE(core::envIsOneOf(kVar, {"0", "off", "OFF"}));
    ::unsetenv(kVar);
}

TEST(EnvUint, DefaultThreadCountSurvivesGarbage)
{
    // Whatever MQX_THREADS held at process start applied to earlier
    // pools; this test only needs defaultThreadCount() to re-read.
    ::setenv("MQX_THREADS", "banana", 1);
    const size_t garbage = engine::defaultThreadCount();
    ::setenv("MQX_THREADS", "0", 1);
    const size_t zero = engine::defaultThreadCount();
    ::setenv("MQX_THREADS", "-4", 1);
    const size_t negative = engine::defaultThreadCount();
    ::unsetenv("MQX_THREADS");
    const size_t unset = engine::defaultThreadCount();
    // All malformed shapes degrade to the same hardware default.
    EXPECT_EQ(garbage, unset);
    EXPECT_EQ(zero, unset);
    EXPECT_EQ(negative, unset);
    EXPECT_GE(unset, 1u);

    ::setenv("MQX_THREADS", "3", 1);
    EXPECT_EQ(engine::defaultThreadCount(), 3u);
    ::unsetenv("MQX_THREADS");
}

// ---------------------------------------------------------------------------
// parallelFor drain-on-failure and cancellation.
// ---------------------------------------------------------------------------

TEST(ThreadPoolDrain, SerialPoolSkipsRemainderAfterFailure)
{
    engine::ThreadPool pool(1);
    const auto before = pool.stats();
    EXPECT_THROW(pool.parallelFor(0, 16,
                                  [&](size_t i) {
                                      if (i == 3)
                                          throw InvalidArgument("boom");
                                  }),
                 InvalidArgument);
    const auto after = pool.stats();
    // Indices 4..15 were skipped, but still count as executed so the
    // submitted == executed invariant holds.
    EXPECT_EQ(after.skipped - before.skipped, 12u);
    EXPECT_EQ(after.submitted - before.submitted, 16u);
    EXPECT_EQ(after.executed() - before.executed(), 16u);
}

TEST(ThreadPoolDrain, ThreadedPoolDrainsEveryTaskAfterFailure)
{
    engine::ThreadPool pool(4);
    const auto before = pool.stats();
    EXPECT_THROW(pool.parallelFor(0, 64,
                                  [&](size_t i) {
                                      if (i == 0)
                                          throw InvalidArgument("boom");
                                  }),
                 InvalidArgument);
    const auto after = pool.stats();
    // Every task completed (ran or skipped) before the rethrow.
    EXPECT_EQ(after.submitted - before.submitted, 64u);
    EXPECT_EQ(after.executed() - before.executed(), 64u);
}

TEST(ThreadPoolDrain, PreCancelledTokenSkipsEverythingAndThrows)
{
    for (size_t threads : {size_t{1}, size_t{4}}) {
        engine::ThreadPool pool(threads);
        robust::CancelToken token;
        token.requestCancel();
        int ran = 0;
        try {
            pool.parallelFor(
                0, 8, [&](size_t) { ++ran; }, &token);
            FAIL() << "cancelled parallelFor did not throw";
        } catch (const robust::StatusError& e) {
            EXPECT_EQ(e.status().code(), robust::StatusCode::Cancelled);
        }
        EXPECT_EQ(ran, 0);
        // Pool invariant intact after the abort.
        EXPECT_EQ(pool.stats().submitted, pool.stats().executed());
    }
}

TEST(ThreadPoolDrain, TaskFailureTakesPrecedenceOverCancellation)
{
    engine::ThreadPool pool(1);
    robust::CancelToken token;
    // The first task both fails and requests cancellation; the caller
    // must see the task's error, not the (later) cancellation status.
    EXPECT_THROW(pool.parallelFor(
                     0, 8,
                     [&](size_t i) {
                         if (i == 0) {
                             token.requestCancel();
                             throw InvalidArgument("boom");
                         }
                     },
                     &token),
                 InvalidArgument);
}

// ---------------------------------------------------------------------------
// Verification math (direct robust/verify.h checks, no engine).
// ---------------------------------------------------------------------------

TEST(Verify, EvalPointIsARootOfXnPlusOneAndCached)
{
    engine::Engine eng(bestBackend(), 1);
    const rns::RnsBasis& basis = testBasis();
    const size_t n = 64;
    const uint64_t seed = 0x1234;
    for (size_t ch = 0; ch < basis.size(); ++ch) {
        auto tables = eng.planCache().getNegacyclic(basis.prime(ch), n);
        const Modulus& m = basis.modulus(ch);
        auto pt = robust::evalPointFor(m, tables->psi(), n, seed);
        ASSERT_EQ(pt->powers.size(), n);
        // r is a root of x^n + 1: r^n == -1 mod q.
        EXPECT_EQ(m.pow(pt->r, U128::fromParts(0, n)),
                  m.sub(U128{}, U128::fromParts(0, 1)));
        // The powers table is exactly r^i.
        EXPECT_EQ(pt->powers.at(0), U128::fromParts(0, 1));
        EXPECT_EQ(pt->powers.at(1), pt->r);
        EXPECT_EQ(pt->powers.at(5), m.mul(pt->powers.at(4), pt->r));
        // Same (q, n, seed) -> the same cached table instance.
        auto pt2 = robust::evalPointFor(m, tables->psi(), n, seed);
        EXPECT_EQ(pt.get(), pt2.get());
    }
}

TEST(Verify, FreivaldsPassesCleanPolymulsOnEveryBackend)
{
    const rns::RnsBasis& basis = testBasis();
    const size_t n = 64;
    for (Backend backend : test::availableCorrectBackends()) {
        engine::Engine eng(backend, 1);
        rns::RnsKernels serial(basis, backend);
        for (uint64_t trial = 0; trial < 16; ++trial) {
            auto a = rns::randomPolynomial(basis, n, 2 * trial);
            auto b = rns::randomPolynomial(basis, n, 2 * trial + 1);
            auto c = serial.polymulNegacyclic(a, b);
            for (size_t ch = 0; ch < basis.size(); ++ch) {
                auto tables =
                    eng.planCache().getNegacyclic(basis.prime(ch), n);
                EXPECT_TRUE(robust::checkNegacyclicPolymul(
                    backend, basis.modulus(ch), tables->psi(),
                    a.channel(ch).span(), b.channel(ch).span(),
                    c.channel(ch).span(), trial))
                    << backendName(backend) << " trial " << trial
                    << " channel " << ch;
            }
        }
    }
}

TEST(Verify, FreivaldsCatchesEverySingleBitFlip)
{
    // A flipped residue word perturbs c(r) by ±2^b·r^k ≢ 0 mod q, so
    // detection of any single-bit flip is deterministic — assert all
    // 1000 planted flips are caught, not merely "most".
    const rns::RnsBasis& basis = testBasis();
    const Backend backend = bestBackend();
    const size_t n = 64;
    engine::Engine eng(backend, 1);
    rns::RnsKernels serial(basis, backend);
    auto a = rns::randomPolynomial(basis, n, 101);
    auto b = rns::randomPolynomial(basis, n, 102);
    auto c = serial.polymulNegacyclic(a, b);

    SplitMix64 rng(0xfeedbeef);
    size_t detected = 0;
    const size_t kTrials = 1000;
    for (size_t t = 0; t < kTrials; ++t) {
        const size_t ch = rng.next() % basis.size();
        auto corrupted = c; // fresh copy, plant one flip
        DSpan s = corrupted.channel(ch).span();
        const size_t word = rng.next() % (2 * n);
        const uint64_t bit = 1ull << (rng.next() % 64);
        if (word < n)
            s.lo[word] ^= bit;
        else
            s.hi[word - n] ^= bit;
        auto tables = eng.planCache().getNegacyclic(basis.prime(ch), n);
        if (!robust::checkNegacyclicPolymul(
                backend, basis.modulus(ch), tables->psi(),
                a.channel(ch).span(), b.channel(ch).span(),
                s, t))
            ++detected;
    }
    EXPECT_EQ(detected, kTrials);
}

TEST(Verify, FmaIdentityPassesCleanAndCatchesFlips)
{
    const rns::RnsBasis& basis = testBasis();
    const Backend backend = bestBackend();
    const size_t n = 32;
    engine::Engine eng(backend, 1);
    rns::RnsKernels serial(basis, backend);

    std::vector<rns::RnsPolynomial> operands;
    std::vector<std::pair<const rns::RnsPolynomial*,
                          const rns::RnsPolynomial*>>
        products;
    for (uint64_t i = 0; i < 6; ++i)
        operands.push_back(rns::randomPolynomial(basis, n, 300 + i));
    for (size_t i = 0; i < 3; ++i)
        products.emplace_back(&operands[2 * i], &operands[2 * i + 1]);
    auto c = serial.fmaBatch(products);

    for (size_t ch = 0; ch < basis.size(); ++ch) {
        auto tables = eng.planCache().getNegacyclic(basis.prime(ch), n);
        std::vector<std::pair<DConstSpan, DConstSpan>> spans;
        for (const auto& [pa, pb] : products)
            spans.emplace_back(pa->channel(ch).span(),
                               pb->channel(ch).span());
        EXPECT_TRUE(robust::checkNegacyclicFma(
            backend, basis.modulus(ch), tables->psi(), spans,
            c.channel(ch).span(), 9));

        auto corrupted = c;
        corrupted.channel(ch).span().lo[ch] ^= 2; // one planted flip
        EXPECT_FALSE(robust::checkNegacyclicFma(
            backend, basis.modulus(ch), tables->psi(), spans,
            corrupted.channel(ch).span(), 9))
            << "channel " << ch;
    }
}

TEST(Verify, GuardDigestIsLinearAndCatchesFlips)
{
    const rns::RnsBasis& basis = testBasis();
    const size_t n = 64;
    rns::RnsKernels serial(basis, bestBackend());
    auto a = rns::randomPolynomial(basis, n, 7);
    auto b = rns::randomPolynomial(basis, n, 8);
    auto c = serial.add(a, b);
    for (size_t ch = 0; ch < basis.size(); ++ch) {
        const Modulus& m = basis.modulus(ch);
        EXPECT_EQ(robust::channelDigest(m, c.channel(ch).span()),
                  m.add(robust::channelDigest(m, a.channel(ch).span()),
                        robust::channelDigest(m, b.channel(ch).span())));
        EXPECT_TRUE(robust::checkAddDigest(m, a.channel(ch).span(),
                                           b.channel(ch).span(),
                                           c.channel(ch).span()));
        auto corrupted = c;
        corrupted.channel(ch).span().lo[3] ^= 16;
        EXPECT_FALSE(robust::checkAddDigest(m, a.channel(ch).span(),
                                            b.channel(ch).span(),
                                            corrupted.channel(ch).span()));
    }
}

// ---------------------------------------------------------------------------
// Engine-level verification and cancellation plumbing (no injection).
// ---------------------------------------------------------------------------

engine::Engine
makeVerifyingEngine(robust::VerifyPolicy policy, uint32_t period,
                    size_t threads, bool guard_digest = false)
{
    engine::EngineOptions opts;
    opts.threads = threads;
    opts.verify.policy = policy;
    opts.verify.sample_period = period;
    opts.verify.guard_digest = guard_digest;
    return engine::Engine(std::move(opts));
}

TEST(EngineVerify, AlwaysOnVerificationPreservesResults)
{
    const rns::RnsBasis& basis = testBasis();
    const size_t n = 128;
    auto eng =
        makeVerifyingEngine(robust::VerifyPolicy::Always, 1, 2, true);
    rns::RnsKernels serial(basis, bestBackend());
    auto a = rns::randomPolynomial(basis, n, 21);
    auto b = rns::randomPolynomial(basis, n, 22);
    expectIdentical(eng.polymulNegacyclic(a, b),
                    serial.polymulNegacyclic(a, b));
    expectIdentical(eng.add(a, b), serial.add(a, b));
    std::vector<std::pair<const rns::RnsPolynomial*,
                          const rns::RnsPolynomial*>>
        products{{&a, &b}, {&b, &a}};
    expectIdentical(eng.fmaBatch(products), serial.fmaBatch(products));
    EXPECT_EQ(eng.workspacePool().leasedCount(), 0u);
}

TEST(EngineVerify, SampledVerificationPreservesResults)
{
    const rns::RnsBasis& basis = testBasis();
    const size_t n = 64;
    auto eng = makeVerifyingEngine(robust::VerifyPolicy::Sample, 4, 1);
    rns::RnsKernels serial(basis, bestBackend());
    for (uint64_t t = 0; t < 12; ++t) {
        auto a = rns::randomPolynomial(basis, n, 900 + 2 * t);
        auto b = rns::randomPolynomial(basis, n, 901 + 2 * t);
        expectIdentical(eng.polymulNegacyclic(a, b),
                        serial.polymulNegacyclic(a, b));
    }
}

TEST(EngineCancel, LiveTokenStagedPipelineIsBitIdentical)
{
    // A non-null token routes channels through the staged
    // forward -> pointwise -> inverse pipeline with checkpoints; a
    // token that never trips must not change a single output word.
    const rns::RnsBasis& basis = testBasis();
    const size_t n = 128;
    engine::Engine eng(bestBackend(), 2);
    rns::RnsKernels serial(basis, bestBackend());
    auto a = rns::randomPolynomial(basis, n, 55);
    auto b = rns::randomPolynomial(basis, n, 56);
    robust::CancelToken token;
    rns::RnsPolynomial c(basis, n);
    eng.polymulNegacyclicInto(a, b, c, &token);
    expectIdentical(c, serial.polymulNegacyclic(a, b));
    EXPECT_EQ(eng.workspacePool().leasedCount(), 0u);
}

TEST(EngineCancel, CancelledTokenAbortsWithLeasesReleased)
{
    const rns::RnsBasis& basis = testBasis();
    const size_t n = 64;
    engine::Engine eng(bestBackend(), 2);
    auto a = rns::randomPolynomial(basis, n, 57);
    auto b = rns::randomPolynomial(basis, n, 58);
    rns::RnsPolynomial c(basis, n);
    robust::CancelToken token;
    token.requestCancel();
    try {
        eng.polymulNegacyclicInto(a, b, c, &token);
        FAIL() << "cancelled op did not throw";
    } catch (const robust::StatusError& e) {
        EXPECT_EQ(e.status().code(), robust::StatusCode::Cancelled);
    }
    EXPECT_EQ(eng.workspacePool().leasedCount(), 0u);
    EXPECT_EQ(eng.pool().stats().submitted, eng.pool().stats().executed());
    // The engine is fully usable after the abort.
    rns::RnsKernels serial(basis, bestBackend());
    expectIdentical(eng.polymulNegacyclic(a, b),
                    serial.polymulNegacyclic(a, b));
}

TEST(EngineCancel, ExpiredDeadlineSurfacesDeadlineExceeded)
{
    const rns::RnsBasis& basis = testBasis();
    const size_t n = 64;
    engine::Engine eng(bestBackend(), 1);
    auto a = rns::randomPolynomial(basis, n, 59);
    auto b = rns::randomPolynomial(basis, n, 60);
    rns::RnsPolynomial c(basis, n);
    robust::CancelToken token = robust::CancelToken::withDeadlineNs(0);
    try {
        eng.polymulNegacyclicInto(a, b, c, &token);
        FAIL() << "expired deadline did not throw";
    } catch (const robust::StatusError& e) {
        EXPECT_EQ(e.status().code(), robust::StatusCode::DeadlineExceeded);
    }
    EXPECT_EQ(eng.workspacePool().leasedCount(), 0u);
}

// ---------------------------------------------------------------------------
// Workspace lease accounting.
// ---------------------------------------------------------------------------

TEST(WorkspaceLeases, BalancedAfterMixedWorkload)
{
    const rns::RnsBasis& basis = testBasis();
    engine::Engine eng(bestBackend(), 4);
    auto a = rns::randomPolynomial(basis, 128, 61);
    auto b = rns::randomPolynomial(basis, 128, 62);
    (void)eng.polymulNegacyclic(a, b);
    (void)eng.toCoeff(eng.mulEval(eng.toEval(a), eng.toEval(b)));
    std::vector<std::pair<const rns::RnsPolynomial*,
                          const rns::RnsPolynomial*>>
        products{{&a, &b}, {&b, &a}, {&a, &a}};
    (void)eng.fmaBatch(products);
    (void)eng.polymulNegacyclicBatch(products);
    EXPECT_EQ(eng.workspacePool().leasedCount(), 0u);
    EXPECT_GT(eng.workspacePool().totalLeases(), 0u);
}

// ---------------------------------------------------------------------------
// Fault-injection harness (compiled-in builds only).
// ---------------------------------------------------------------------------

#define MQX_REQUIRE_INJECTION()                                               \
    if (!robust::faultInjectionCompiledIn())                                  \
    GTEST_SKIP() << "built without -DMQX_FAULT_INJECTION=ON"

TEST(FaultInjection, CompileFlagIsVisible)
{
    // Informational: both values are legal; the injection-gated suites
    // below skip themselves on regular builds.
    SUCCEED() << "fault injection compiled in: "
              << robust::faultInjectionCompiledIn();
}

TEST(FaultInjection, SameSeedFiresTheSamePoints)
{
    MQX_REQUIRE_INJECTION();
    const rns::RnsBasis& basis = testBasis();
    const size_t n = 64;
    auto a = rns::randomPolynomial(basis, n, 71);
    auto b = rns::randomPolynomial(basis, n, 72);

    auto workload = [&](uint64_t seed) {
        robust::FaultPlan plan(seed);
        plan.arm("rns.polymul.out",
                 {robust::FaultAction::FlipBit, /*probability=*/0.5});
        plan.arm("thread_pool.task",
                 {robust::FaultAction::Throw, /*probability=*/0.05});
        robust::ScopedFaultInjection scope(std::move(plan));
        // threads=1: deterministic hit order on the caller thread.
        engine::Engine eng(bestBackend(), 1);
        for (int rep = 0; rep < 8; ++rep) {
            rns::RnsPolynomial c(basis, n);
            try {
                eng.polymulNegacyclicInto(a, b, c);
            } catch (const robust::StatusError&) {
                // injected Throw: expected occasionally
            }
        }
        return scope.allStats();
    };

    auto s1 = workload(42);
    auto s2 = workload(42);
    auto s3 = workload(43);
    ASSERT_EQ(s1.size(), s2.size());
    for (const auto& [point, stats] : s1) {
        EXPECT_EQ(stats.hits, s2[point].hits) << point;
        EXPECT_EQ(stats.fires, s2[point].fires) << point;
    }
    // A different seed draws a different firing pattern (hits can
    // differ too, since a Throw reshapes control flow).
    bool any_diff = false;
    for (const auto& [point, stats] : s1)
        any_diff = any_diff || stats.fires != s3[point].fires ||
                   stats.hits != s3[point].hits;
    EXPECT_TRUE(any_diff) << "seeds 42 and 43 fired identically";
}

TEST(FaultInjection, PlantedFlipIsDetectedAndRepairedBitIdentically)
{
    MQX_REQUIRE_INJECTION();
    const rns::RnsBasis& basis = testBasis();
    const size_t n = 64;
    auto a = rns::randomPolynomial(basis, n, 81);
    auto b = rns::randomPolynomial(basis, n, 82);
    rns::RnsKernels serial(basis, bestBackend());
    const auto expected = serial.polymulNegacyclic(a, b);

    // Sampled policy with period 1: this op is sampled, the flip is
    // caught by the Freivalds check, and the repair path recomputes the
    // corrupted channel through the fault-free serial path.
    auto eng = makeVerifyingEngine(robust::VerifyPolicy::Sample, 1, 1);
    robust::FaultPlan plan(7);
    plan.arm("rns.polymul.out",
             {robust::FaultAction::FlipBit, 1.0, /*max_fires=*/1});
    robust::ScopedFaultInjection scope(std::move(plan));
    const auto c = eng.polymulNegacyclic(a, b);
    EXPECT_EQ(scope.stats("rns.polymul.out").fires, 1u);
    expectIdentical(c, expected); // repaired bit-identically
    EXPECT_EQ(eng.workspacePool().leasedCount(), 0u);
}

TEST(FaultInjection, UnverifiedFlipActuallyCorrupts)
{
    // Sanity check on the harness itself: with verification Off the
    // planted flip must survive into the result — proving the repair in
    // the test above was real work, not a vacuous pass.
    MQX_REQUIRE_INJECTION();
    const rns::RnsBasis& basis = testBasis();
    const size_t n = 64;
    auto a = rns::randomPolynomial(basis, n, 81);
    auto b = rns::randomPolynomial(basis, n, 82);
    rns::RnsKernels serial(basis, bestBackend());
    const auto expected = serial.polymulNegacyclic(a, b);

    engine::Engine eng(bestBackend(), 1);
    robust::FaultPlan plan(7);
    plan.arm("rns.polymul.out",
             {robust::FaultAction::FlipBit, 1.0, /*max_fires=*/1});
    robust::ScopedFaultInjection scope(std::move(plan));
    const auto c = eng.polymulNegacyclic(a, b);
    ASSERT_EQ(scope.stats("rns.polymul.out").fires, 1u);
    bool identical = true;
    for (size_t ch = 0; ch < basis.size(); ++ch)
        identical = identical && c.channel(ch) == expected.channel(ch);
    EXPECT_FALSE(identical);
}

TEST(FaultInjection, BatchKernelFailureFallsBackBitIdentically)
{
    MQX_REQUIRE_INJECTION();
    const rns::RnsBasis& basis = testBasis();
    const size_t n = 32;
    const size_t il = ntt::batchInterleave(bestBackend());
    engine::Engine eng(bestBackend(), 1);
    if (il < 2 ||
        !ntt::batchSupported(
            eng.planCache().getNegacyclic(basis.prime(0), n)->plan()))
        GTEST_SKIP() << "no interleaved batch kernels on this backend";

    std::vector<rns::RnsPolynomial> operands;
    for (uint64_t i = 0; i < 2 * 2 * il; ++i)
        operands.push_back(rns::randomPolynomial(basis, n, 500 + i));
    std::vector<std::pair<const rns::RnsPolynomial*,
                          const rns::RnsPolynomial*>>
        products;
    for (size_t i = 0; i < 2 * il; ++i)
        products.emplace_back(&operands[2 * i], &operands[2 * i + 1]);

    rns::RnsKernels serial(basis, bestBackend());
    std::vector<rns::RnsPolynomial> expected;
    for (const auto& [pa, pb] : products)
        expected.push_back(serial.polymulNegacyclic(*pa, *pb));

    robust::FaultPlan plan(11);
    plan.arm("rns.batch.pack",
             {robust::FaultAction::Throw, 1.0, /*max_fires=*/2});
    robust::ScopedFaultInjection scope(std::move(plan));
    const uint64_t fallbacks_before =
        telemetry::counter("robust.batch_fallbacks").value();
    auto results = eng.polymulNegacyclicBatch(products);
    EXPECT_EQ(scope.stats("rns.batch.pack").fires, 2u);
    EXPECT_GE(telemetry::counter("robust.batch_fallbacks").value(),
              fallbacks_before + 2);
    ASSERT_EQ(results.size(), expected.size());
    for (size_t p = 0; p < results.size(); ++p)
        expectIdentical(results[p], expected[p]);
    EXPECT_EQ(eng.workspacePool().leasedCount(), 0u);
}

TEST(FaultInjection, PlanCacheBuildFailureIsNotCached)
{
    MQX_REQUIRE_INJECTION();
    const rns::RnsBasis& basis = testBasis();
    const size_t n = 64;
    auto a = rns::randomPolynomial(basis, n, 91);
    auto b = rns::randomPolynomial(basis, n, 92);
    engine::Engine eng(bestBackend(), 1); // fresh, cold plan cache
    robust::FaultPlan plan(3);
    plan.arm("plan_cache.alloc",
             {robust::FaultAction::Throw, 1.0, /*max_fires=*/1});
    robust::ScopedFaultInjection scope(std::move(plan));
    EXPECT_THROW((void)eng.polymulNegacyclic(a, b), robust::StatusError);
    // The failed build was not cached: the next call rebuilds cleanly.
    rns::RnsKernels serial(basis, bestBackend());
    expectIdentical(eng.polymulNegacyclic(a, b),
                    serial.polymulNegacyclic(a, b));
    EXPECT_EQ(eng.workspacePool().leasedCount(), 0u);
}

TEST(FaultInjection, LeasesBalanceAcrossRandomizedFailureRuns)
{
    MQX_REQUIRE_INJECTION();
    const rns::RnsBasis& basis = testBasis();
    const size_t n = 32;
    auto a = rns::randomPolynomial(basis, n, 93);
    auto b = rns::randomPolynomial(basis, n, 94);
    engine::Engine eng(bestBackend(), 2);
    rns::RnsPolynomial c(basis, n);
    for (uint64_t run = 0; run < 1000; ++run) {
        robust::FaultPlan plan(run);
        plan.arm("workspace_pool.acquire",
                 {robust::FaultAction::Throw, /*probability=*/0.25});
        plan.arm("thread_pool.task",
                 {robust::FaultAction::Throw, /*probability=*/0.1});
        plan.arm("rns.batch.pack",
                 {robust::FaultAction::Throw, /*probability=*/0.5});
        robust::ScopedFaultInjection scope(std::move(plan));
        try {
            eng.polymulNegacyclicInto(a, b, c);
        } catch (const robust::StatusError&) {
            // injected: RAII must have released every lease
        }
        ASSERT_EQ(eng.workspacePool().leasedCount(), 0u)
            << "leaked lease after run " << run;
    }
    EXPECT_EQ(eng.pool().stats().submitted, eng.pool().stats().executed());
}

TEST(FaultInjection, StalledTaskTripsDeadlineMidPipeline)
{
    MQX_REQUIRE_INJECTION();
    const rns::RnsBasis& basis = testBasis();
    const size_t n = 64;
    auto a = rns::randomPolynomial(basis, n, 95);
    auto b = rns::randomPolynomial(basis, n, 96);
    engine::Engine eng(bestBackend(), 1);
    rns::RnsPolynomial c(basis, n);
    // The first channel task stalls 20 ms against a 2 ms deadline, so
    // the token expires mid-op; the remaining channel tasks are skipped
    // at the task boundary and the op aborts with DeadlineExceeded.
    robust::FaultPlan plan(5);
    robust::FaultSpec stall;
    stall.action = robust::FaultAction::Stall;
    stall.max_fires = 1;
    stall.stall_ns = 20'000'000;
    plan.arm("thread_pool.task", stall);
    robust::ScopedFaultInjection scope(std::move(plan));
    robust::CancelToken token =
        robust::CancelToken::withDeadlineNs(2'000'000);
    try {
        eng.polymulNegacyclicInto(a, b, c, &token);
        FAIL() << "stalled op beat a 2ms deadline";
    } catch (const robust::StatusError& e) {
        EXPECT_EQ(e.status().code(), robust::StatusCode::DeadlineExceeded);
    }
    EXPECT_EQ(eng.workspacePool().leasedCount(), 0u);
    EXPECT_EQ(eng.pool().stats().submitted, eng.pool().stats().executed());
    // Still serviceable afterwards.
    rns::RnsKernels serial(basis, bestBackend());
    expectIdentical(eng.polymulNegacyclic(a, b),
                    serial.polymulNegacyclic(a, b));
}

} // namespace
} // namespace mqx
