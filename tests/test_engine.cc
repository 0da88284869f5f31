/**
 * @file
 * High-level Engine tests and larger cross-backend integration runs:
 * all available backends must produce bit-identical transforms on the
 * same inputs at production sizes.
 */
#include <gtest/gtest.h>

#include "core/cpu_features.h"
#include "ntt/ntt.h"
#include "ntt/reference_ntt.h"
#include "test_util.h"

namespace mqx {
namespace {

TEST(Engine, PolymulMatchesSchoolbookConvolution)
{
    const size_t n = 64;
    ntt::NttPlan plan(ntt::smallTestPrime(), n);
    ntt::Engine engine(plan, Backend::Scalar);
    auto f = randomResidues(n, ntt::smallTestPrime().q, 1);
    auto g = randomResidues(n, ntt::smallTestPrime().q, 2);
    EXPECT_EQ(engine.polymulCyclic(f, g),
              ntt::cyclicConvolution(plan.modulus(), f, g));
}

TEST(Engine, ForwardNaturalMatchesReference)
{
    const size_t n = 32;
    ntt::NttPlan plan(ntt::smallTestPrime(), n);
    ntt::Engine engine(plan, Backend::Scalar);
    auto input = randomResidues(n, ntt::smallTestPrime().q, 3);
    EXPECT_EQ(engine.forwardNatural(input), ntt::referenceNtt(plan, input));
}

TEST(Engine, DefaultBackendIsBestAvailable)
{
    ntt::NttPlan plan(ntt::smallTestPrime(), 16);
    ntt::Engine engine(plan);
    EXPECT_EQ(engine.backend(), bestBackend());
    auto input = randomResidues(16, ntt::smallTestPrime().q, 4);
    EXPECT_EQ(engine.inverse(engine.forward(input)), input);
}

TEST(Engine, SizeMismatchThrows)
{
    ntt::NttPlan plan(ntt::smallTestPrime(), 16);
    ntt::Engine engine(plan, Backend::Scalar);
    std::vector<U128> wrong(8);
    EXPECT_THROW(engine.forward(wrong), InvalidArgument);
    EXPECT_THROW(engine.polymulCyclic(wrong, wrong), InvalidArgument);
}

TEST(Integration, AllBackendsAgreeAtProductionSize)
{
    const size_t n = 2048;
    const auto& prime = ntt::defaultBenchPrime();
    ntt::NttPlan plan(prime, n);
    auto input = randomResidues(n, prime.q, 2718);

    ResidueVector vin = ResidueVector::fromU128(input);
    std::vector<U128> golden;
    for (Backend be : test::availableCorrectBackends()) {
        ResidueVector out(n), scratch(n);
        ntt::forward(plan, be, vin.span(), out.span(), scratch.span());
        auto result = out.toU128();
        if (golden.empty()) {
            golden = result;
        } else {
            ASSERT_EQ(result, golden) << backendName(be);
        }
        // Each backend also inverts its own transform.
        ResidueVector back(n);
        ntt::inverse(plan, be, out.span(), back.span(), scratch.span());
        ASSERT_EQ(back.toU128(), input) << backendName(be);
    }
    ASSERT_FALSE(golden.empty());
}

TEST(Integration, BackendAvailabilityIsConsistent)
{
    // Scalar and Portable always exist; SIMD availability must follow
    // the CPU features; MqxPisa availability equals MqxEmulate.
    EXPECT_TRUE(backendAvailable(Backend::Scalar));
    EXPECT_TRUE(backendAvailable(Backend::Portable));
    const CpuFeatures& f = hostCpuFeatures();
    if (backendAvailable(Backend::Avx512)) {
        EXPECT_TRUE(f.hasAvx512());
    }
    if (backendAvailable(Backend::Avx2)) {
        EXPECT_TRUE(f.avx2);
    }
    EXPECT_EQ(backendAvailable(Backend::MqxEmulate),
              backendAvailable(Backend::MqxPisa));
    // bestBackend is correct and available.
    EXPECT_TRUE(backendAvailable(bestBackend()));
    EXPECT_NE(bestBackend(), Backend::MqxPisa);
}

TEST(Integration, BestBackendFallsBackToScalarWithoutSimd)
{
    // Hosts (or builds) without AVX2 and AVX-512 run Scalar, never the
    // slower Portable model of the SIMD lanes.
    if (backendAvailable(Backend::Avx2) || backendAvailable(Backend::Avx512))
        GTEST_SKIP() << "SIMD backend available; covered by the "
                        "portable-only build";
    EXPECT_EQ(bestBackend(), Backend::Scalar);
}

TEST(Integration, BackendNamesAreUnique)
{
    std::vector<std::string> names;
    for (Backend b : {Backend::Scalar, Backend::Portable, Backend::Avx2,
                      Backend::Avx512, Backend::MqxEmulate, Backend::MqxPisa})
        names.push_back(backendName(b));
    std::sort(names.begin(), names.end());
    EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

} // namespace
} // namespace mqx
