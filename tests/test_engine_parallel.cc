/**
 * @file
 * Parallel execution engine tests: the thread pool primitives, plan
 * cache hit behavior, and — the load-bearing property — bit-identical
 * results between the threaded engine and the serial RnsKernels path
 * on every available backend, including under concurrent batch
 * submission from multiple caller threads.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "engine/engine.h"
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

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    engine::ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    EXPECT_FALSE(pool.serial());
    std::vector<std::atomic<int>> counts(257);
    pool.parallelFor(0, counts.size(),
                     [&](size_t i) { counts[i].fetch_add(1); });
    for (size_t i = 0; i < counts.size(); ++i)
        ASSERT_EQ(counts[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, SerialPoolRunsInlineOnCaller)
{
    engine::ThreadPool pool(1);
    EXPECT_TRUE(pool.serial());
    std::thread::id task_thread;
    pool.submit([&] { task_thread = std::this_thread::get_id(); }).get();
    EXPECT_EQ(task_thread, std::this_thread::get_id());

    // Indices run in order on the caller — the sequential path.
    std::vector<size_t> order;
    pool.parallelFor(3, 8, [&](size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<size_t>{3, 4, 5, 6, 7}));
}

TEST(ThreadPool, ParallelForPropagatesExceptions)
{
    for (size_t threads : {size_t{1}, size_t{4}}) {
        engine::ThreadPool pool(threads);
        EXPECT_THROW(pool.parallelFor(0, 16,
                                      [&](size_t i) {
                                          if (i == 11)
                                              throw InvalidArgument("boom");
                                      }),
                     InvalidArgument);
    }
}

TEST(ThreadPool, ConcurrentParallelForBatchesAllComplete)
{
    // Several external threads submit interleaved batches; the fixed
    // steal-until-own-futures-ready wait means every caller makes
    // progress on its own indices even while another batch occupies the
    // queue, and no index is lost or run twice.
    engine::ThreadPool pool(3);
    const int kCallers = 4;
    const size_t kIndices = 101;
    std::vector<std::vector<std::atomic<int>>> counts(kCallers);
    for (auto& c : counts) {
        std::vector<std::atomic<int>> fresh(kIndices);
        c.swap(fresh);
    }
    std::vector<std::thread> callers;
    for (int t = 0; t < kCallers; ++t) {
        callers.emplace_back([&, t] {
            for (int round = 0; round < 3; ++round) {
                pool.parallelFor(0, kIndices, [&, t](size_t i) {
                    counts[t][i].fetch_add(1);
                });
            }
        });
    }
    for (auto& c : callers)
        c.join();
    for (int t = 0; t < kCallers; ++t) {
        for (size_t i = 0; i < kIndices; ++i)
            ASSERT_EQ(counts[t][i].load(), 3) << "caller " << t << " index "
                                              << i;
    }
}

TEST(ThreadPool, StatsAttributeEveryTaskExactlyOnce)
{
    // The Stats invariant: once the pool is quiescent, every submitted
    // task was executed by exactly one executor — a worker or a caller
    // (inline or stealing) — so the counters add up with no loss and no
    // double count, even across concurrent batches.
    engine::ThreadPool pool(4);
    const int kCallers = 3;
    const size_t kIndices = 64;
    const int kRounds = 2;
    std::atomic<uint64_t> ran{0};
    std::vector<std::thread> callers;
    for (int t = 0; t < kCallers; ++t) {
        callers.emplace_back([&] {
            for (int round = 0; round < kRounds; ++round) {
                pool.parallelFor(0, kIndices, [&](size_t) {
                    ran.fetch_add(1, std::memory_order_relaxed);
                });
            }
        });
    }
    for (auto& c : callers)
        c.join();
    pool.submit([] {}).get();

    const uint64_t expected =
        static_cast<uint64_t>(kCallers) * kRounds * kIndices + 1;
    EXPECT_EQ(ran.load() + 1, expected);
    engine::ThreadPool::Stats s = pool.stats();
    EXPECT_EQ(s.worker_tasks.size(), 3u); // threadCount() - 1 workers
    EXPECT_EQ(s.submitted, expected);
    EXPECT_EQ(s.executed(), s.submitted);
    EXPECT_LE(s.steals, s.caller_tasks); // steals are caller-executed
}

TEST(ThreadPool, SerialPoolStatsCountInlineCallerTasks)
{
    engine::ThreadPool pool(1);
    pool.submit([] {}).get();
    pool.parallelFor(0, 5, [](size_t) {});
    engine::ThreadPool::Stats s = pool.stats();
    EXPECT_TRUE(s.worker_tasks.empty());
    EXPECT_EQ(s.submitted, 6u);
    EXPECT_EQ(s.caller_tasks, 6u);
    EXPECT_EQ(s.steals, 0u); // inline runs are not steals
    EXPECT_EQ(s.executed(), s.submitted);
}

TEST(PlanCache, StatsCountBuildsSeparatelyFromMisses)
{
    engine::PlanCache cache;
    const auto& prime = testBasis().prime(0);
    (void)cache.get(prime, 64);
    engine::PlanCache::Stats cold = cache.stats();
    EXPECT_EQ(cold.misses, 1u);
    EXPECT_EQ(cold.builds, 1u);
    EXPECT_GT(cold.build_ns, 0u);

    // Warm second lookup: one hit, zero new builds, no new build time.
    (void)cache.get(prime, 64);
    engine::PlanCache::Stats warm = cache.stats();
    EXPECT_EQ(warm.hits, 1u);
    EXPECT_EQ(warm.misses, 1u);
    EXPECT_EQ(warm.builds, 1u);
    EXPECT_EQ(warm.build_ns, cold.build_ns);

    // Negacyclic tables on a fresh key: the plan build and the twist
    // build are timed separately (one get call, two derivations).
    (void)cache.getNegacyclic(prime, 128);
    engine::PlanCache::Stats after = cache.stats();
    EXPECT_EQ(after.misses, 2u);
    EXPECT_EQ(after.builds, 3u);
    EXPECT_LE(after.builds, after.misses + cache.planCount() +
                                cache.negacyclicCount());
    EXPECT_GT(after.build_ns, warm.build_ns);
}

TEST(ThreadPool, DefaultThreadCountHonorsMqxThreadsEnv)
{
    const char* old = std::getenv("MQX_THREADS");
    std::string saved = old ? old : "";
    setenv("MQX_THREADS", "3", 1);
    EXPECT_EQ(engine::defaultThreadCount(), 3u);
    setenv("MQX_THREADS", "not-a-number", 1);
    EXPECT_GE(engine::defaultThreadCount(), 1u); // invalid -> hardware
    setenv("MQX_THREADS", "0", 1);
    EXPECT_GE(engine::defaultThreadCount(), 1u); // non-positive -> hardware
    if (old)
        setenv("MQX_THREADS", saved.c_str(), 1);
    else
        unsetenv("MQX_THREADS");
}

TEST(PlanCache, MemoizesByModulusAndSize)
{
    engine::PlanCache cache;
    const auto& prime = testBasis().prime(0);
    auto p1 = cache.get(prime, 64);
    auto p2 = cache.get(prime, 64);
    EXPECT_EQ(p1.get(), p2.get()); // same instance, not just same value
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);

    auto p3 = cache.get(prime, 128);
    EXPECT_NE(p1.get(), p3.get());
    auto p4 = cache.get(testBasis().prime(1), 64);
    EXPECT_NE(p1.get(), p4.get());
    EXPECT_EQ(cache.misses(), 3u);
    EXPECT_EQ(cache.size(), 3u); // three plans, no negacyclic tables yet
    EXPECT_EQ(cache.planCount(), 3u);
    EXPECT_EQ(cache.negacyclicCount(), 0u);

    // Negacyclic tables land in their own map; size() counts both.
    (void)cache.getNegacyclic(prime, 64);
    EXPECT_EQ(cache.negacyclicCount(), 1u);
    EXPECT_EQ(cache.planCount(), 3u);
    EXPECT_EQ(cache.size(), 4u);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(p1->n(), 64u); // outstanding plans survive clear()
}

TEST(PlanCache, TwiddleBytesAccountShoupAndTwistTables)
{
    engine::PlanCache cache;
    const auto& prime = testBasis().prime(0);
    EXPECT_EQ(cache.twiddleBytes(), 0u);

    auto plan = cache.get(prime, 64);
    // The plan's own accounting already includes the Shoup companions
    // (8 arrays of n/2 words); the cache must report exactly that.
    EXPECT_EQ(cache.twiddleBytes(), plan->twiddleBytes());
    EXPECT_EQ(plan->twiddleBytes(), 8u * 32 * sizeof(uint64_t));

    auto tables = cache.getNegacyclic(prime, 64);
    // Negacyclic entries add their twist tables + companions (4 split
    // vectors of n elements) on top of the shared cyclic plan.
    EXPECT_EQ(cache.twiddleBytes(),
              plan->twiddleBytes() + tables->tableBytes());
    EXPECT_EQ(tables->tableBytes(), 4u * 2 * 64 * sizeof(uint64_t));

    auto plan2 = cache.get(prime, 128);
    EXPECT_EQ(cache.twiddleBytes(), plan->twiddleBytes() +
                                        tables->tableBytes() +
                                        plan2->twiddleBytes());
    cache.clear();
    EXPECT_EQ(cache.twiddleBytes(), 0u);
}

TEST(PlanCache, EnginePolymulHitsCacheOnRepeat)
{
    engine::Engine eng(Backend::Scalar, 2);
    const auto& basis = testBasis();
    auto a = rns::randomPolynomial(basis, 64, 1);
    auto b = rns::randomPolynomial(basis, 64, 2);
    eng.polymulNegacyclic(a, b);
    EXPECT_EQ(eng.planCache().misses(), basis.size());
    eng.polymulNegacyclic(a, b);
    EXPECT_EQ(eng.planCache().misses(), basis.size());
    EXPECT_EQ(eng.planCache().hits(), basis.size());
    // Each channel caches its cyclic plan AND the negacyclic tables
    // built on it; size() reports both maps.
    EXPECT_EQ(eng.planCache().planCount(), basis.size());
    EXPECT_EQ(eng.planCache().negacyclicCount(), basis.size());
    EXPECT_EQ(eng.planCache().size(), 2 * basis.size());
}

TEST(EngineParallel, ThreadedMatchesSerialOnAllBackends)
{
    const auto& basis = testBasis();
    const size_t n = 64;
    auto a = rns::randomPolynomial(basis, n, 42);
    auto b = rns::randomPolynomial(basis, n, 43);

    for (Backend be : test::availableCorrectBackends()) {
        SCOPED_TRACE(backendName(be));
        rns::RnsKernels serial(basis, be);
        auto add_ref = serial.add(a, b);
        auto mul_ref = serial.mul(a, b);
        auto poly_ref = serial.polymulNegacyclic(a, b);

        for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
            SCOPED_TRACE(threads);
            engine::Engine eng(be, threads);
            EXPECT_EQ(eng.threads(), threads);
            expectIdentical(eng.add(a, b), add_ref);
            expectIdentical(eng.mul(a, b), mul_ref);
            expectIdentical(eng.polymulNegacyclic(a, b), poly_ref);
        }
    }
}

TEST(EngineParallelLargeN, ThreadedPolymulRoundTripAt65536)
{
    // The raised size ceiling end to end: negacyclic polymul at
    // n = 2^16 under the thread pool must stay bit-identical to the
    // serial path. Primes need 2-adicity >= 17 for the 2n-th root.
    static rns::RnsBasis basis(40, 17, 2);
    const size_t n = size_t{1} << 16;
    auto a = rns::randomPolynomial(basis, n, 161);
    auto b = rns::randomPolynomial(basis, n, 162);

    Backend be = bestBackend();
    rns::RnsKernels serial(basis, be);
    auto poly_ref = serial.polymulNegacyclic(a, b);

    engine::Engine eng(be, 4);
    expectIdentical(eng.polymulNegacyclic(a, b), poly_ref);
    EXPECT_EQ(eng.planCache().negacyclicCount(), basis.size());

    // Round trip through the evaluation form at the same size.
    auto back = eng.toCoeff(eng.toEval(a));
    expectIdentical(back, a);
}

TEST(EngineParallel, RnsKernelsRoutedThroughEngineMatchesSerial)
{
    const auto& basis = testBasis();
    auto a = rns::randomPolynomial(basis, 128, 7);
    auto b = rns::randomPolynomial(basis, 128, 8);

    Backend be = bestBackend();
    rns::RnsKernels serial(basis, be);
    engine::Engine eng(be, 4);
    rns::RnsKernels routed(basis, eng);

    expectIdentical(routed.add(a, b), serial.add(a, b));
    expectIdentical(routed.mul(a, b), serial.mul(a, b));
    expectIdentical(routed.polymulNegacyclic(a, b),
                    serial.polymulNegacyclic(a, b));
    EXPECT_GT(eng.planCache().size(), 0u);
}

TEST(EngineParallel, OperandValidation)
{
    const auto& basis = testBasis();
    rns::RnsBasis other(40, 8, 2);
    engine::Engine eng(Backend::Scalar, 2);

    auto a = rns::randomPolynomial(basis, 64, 1);
    auto short_b = rns::randomPolynomial(basis, 32, 2);
    auto foreign = rns::randomPolynomial(other, 64, 3);
    EXPECT_THROW(eng.add(a, short_b), InvalidArgument);
    EXPECT_THROW(eng.polymulNegacyclic(a, foreign), InvalidArgument);
    EXPECT_THROW(eng.polymulNegacyclicBatch({{&a, nullptr}}),
                 InvalidArgument);
}

TEST(EngineParallel, BatchMatchesIndividualOps)
{
    const auto& basis = testBasis();
    const size_t n = 64;
    engine::Engine eng(bestBackend(), 4);

    std::vector<rns::RnsPolynomial> as, bs;
    for (uint64_t i = 0; i < 5; ++i) {
        as.push_back(rns::randomPolynomial(basis, n, 100 + i));
        bs.push_back(rns::randomPolynomial(basis, n, 200 + i));
    }
    std::vector<std::pair<const rns::RnsPolynomial*,
                          const rns::RnsPolynomial*>>
        products;
    for (size_t i = 0; i < as.size(); ++i)
        products.push_back({&as[i], &bs[i]});

    auto results = eng.polymulNegacyclicBatch(products);
    ASSERT_EQ(results.size(), products.size());
    rns::RnsKernels serial(basis, eng.backend());
    for (size_t i = 0; i < results.size(); ++i)
        expectIdentical(results[i], serial.polymulNegacyclic(as[i], bs[i]));
}

TEST(EngineParallel, ConcurrentBatchSubmission)
{
    const auto& basis = testBasis();
    const size_t n = 64;
    engine::Engine eng(bestBackend(), 4);

    auto a = rns::randomPolynomial(basis, n, 11);
    auto b = rns::randomPolynomial(basis, n, 12);
    rns::RnsKernels serial(basis, eng.backend());
    auto reference = serial.polymulNegacyclic(a, b);

    // Several external threads hammer the same engine: every result
    // must match, and nothing may deadlock.
    const int kSubmitters = 4;
    std::vector<std::vector<rns::RnsPolynomial>> outputs(kSubmitters);
    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t) {
        submitters.emplace_back([&, t] {
            std::vector<std::pair<const rns::RnsPolynomial*,
                                  const rns::RnsPolynomial*>>
                products(3, {&a, &b});
            outputs[t] = eng.polymulNegacyclicBatch(products);
        });
    }
    for (auto& t : submitters)
        t.join();
    for (const auto& batch : outputs) {
        ASSERT_EQ(batch.size(), 3u);
        for (const auto& result : batch)
            expectIdentical(result, reference);
    }
}

} // namespace
} // namespace mqx
