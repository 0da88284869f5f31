/**
 * @file
 * NTT correctness tests: plan validation, reference agreement,
 * roundtrips, linearity, the convolution theorem, cross-backend
 * agreement, and the MQX feature variants in emulation mode.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>
#include <utility>

#include "ntt/ntt.h"
#include "ntt/reference_ntt.h"
#include "test_util.h"

namespace mqx {
namespace {

using test::availableCorrectBackends;

const ntt::NttPrime&
testPrime()
{
    return ntt::smallTestPrime();
}

std::vector<U128>
runForward(const ntt::NttPlan& plan, Backend be, const std::vector<U128>& in,
           MulAlgo algo = MulAlgo::Schoolbook,
           Reduction red = Reduction::ShoupLazy,
           StageFusion fusion = StageFusion::Radix4)
{
    ResidueVector vin = ResidueVector::fromU128(in);
    ResidueVector out(plan.n()), scratch(plan.n());
    ntt::forward(plan, be, vin.span(), out.span(), scratch.span(), algo, red,
                 fusion);
    return out.toU128();
}

std::vector<U128>
runInverse(const ntt::NttPlan& plan, Backend be, const std::vector<U128>& in,
           MulAlgo algo = MulAlgo::Schoolbook,
           Reduction red = Reduction::ShoupLazy,
           StageFusion fusion = StageFusion::Radix4)
{
    ResidueVector vin = ResidueVector::fromU128(in);
    ResidueVector out(plan.n()), scratch(plan.n());
    ntt::inverse(plan, be, vin.span(), out.span(), scratch.span(), algo, red,
                 fusion);
    return out.toU128();
}

std::vector<U128>
bitReverse(const std::vector<U128>& v)
{
    ResidueVector rv = ResidueVector::fromU128(v);
    DSpan s = rv.span();
    ntt::bitReversePermute(s);
    return rv.toU128();
}

TEST(NttPlan, Validation)
{
    Modulus m(testPrime().q);
    EXPECT_THROW(ntt::NttPlan(m, 0), InvalidArgument);
    EXPECT_THROW(ntt::NttPlan(m, 1), InvalidArgument);
    EXPECT_THROW(ntt::NttPlan(m, 3), InvalidArgument);  // not a power of 2
    EXPECT_THROW(ntt::NttPlan(m, 48), InvalidArgument); // not a power of 2
    // Composite modulus must be rejected.
    EXPECT_THROW(ntt::NttPlan(Modulus(U128{15}), 4), InvalidArgument);
    // n exceeding the 2-adicity must be rejected (order does not divide
    // q - 1).
    size_t too_big = size_t{1} << (testPrime().two_adicity + 1);
    EXPECT_THROW(ntt::NttPlan(m, too_big), InvalidArgument);
    EXPECT_NO_THROW(ntt::NttPlan(m, 2));
}

TEST(NttPlan, TwiddleStructure)
{
    ntt::NttPlan plan(testPrime(), 16);
    const Modulus& m = plan.modulus();
    // omega has order exactly n.
    EXPECT_EQ(m.pow(plan.omega(), U128{16}), U128{1});
    EXPECT_NE(m.pow(plan.omega(), U128{8}), U128{1});
    EXPECT_EQ(m.mul(plan.omega(), plan.omegaInv()), U128{1});
    EXPECT_EQ(m.mul(plan.nInv(), U128{16}), U128{1});
    // Stage-s twiddle is omega^((j >> s) << s); stage s has exactly
    // n/2^(s+1) distinct entries in the shared power table.
    for (int s = 0; s < plan.logn(); ++s) {
        EXPECT_EQ(plan.stageTwiddles(s), plan.half() >> s);
        for (size_t j = 0; j < plan.half(); ++j) {
            EXPECT_LT(ntt::NttPlan::stageTwiddleIndex(s, j), plan.half());
            uint64_t e = (j >> s) << s;
            EXPECT_EQ(plan.twiddle(s, j), m.pow(plan.omega(), U128{e}));
            EXPECT_EQ(plan.twiddleInv(s, j),
                      m.pow(plan.omegaInv(), U128{e}));
        }
    }
    // Compact layout: 8 arrays (fwd/inv x value/Shoup x hi/lo) of n/2
    // words — no stretched per-stage duplication.
    EXPECT_EQ(plan.twiddleBytes(), 8u * plan.half() * 8);
    EXPECT_EQ(plan.twiddleBytesStretched(),
              4u * static_cast<size_t>(plan.logn()) * plan.half() * 8);
}

TEST(NttPlan, ShoupCompanionsMatchPrecompute)
{
    ntt::NttPlan plan(testPrime(), 32);
    const mod::DW<uint64_t> q = mod::toDw(plan.modulus().value());
    for (size_t k = 0; k < plan.half(); ++k) {
        mod::DW<uint64_t> w{plan.twiddleHi()[k], plan.twiddleLo()[k]};
        auto wq = mod::shoupPrecompute(w, q);
        EXPECT_EQ(plan.twiddleShoupHi()[k], wq.hi) << "k=" << k;
        EXPECT_EQ(plan.twiddleShoupLo()[k], wq.lo) << "k=" << k;
        mod::DW<uint64_t> wi{plan.twiddleInvHi()[k], plan.twiddleInvLo()[k]};
        auto wiq = mod::shoupPrecompute(wi, q);
        EXPECT_EQ(plan.twiddleInvShoupHi()[k], wiq.hi) << "k=" << k;
        EXPECT_EQ(plan.twiddleInvShoupLo()[k], wiq.lo) << "k=" << k;
    }
    EXPECT_EQ(plan.nInvShoup(),
              mod::fromDw(mod::shoupPrecompute(mod::toDw(plan.nInv()), q)));
}

TEST(NttPlan, CompactTablesShrinkTwiddleBytes4xAt4096)
{
    // Acceptance: even counting the Shoup companions, the compact
    // shared power tables cut twiddle storage by >= 4x at n = 4096
    // relative to the stretched per-stage layout (exactly logn/2 = 6x).
    ntt::NttPlan plan(testPrime(), 4096);
    EXPECT_GE(plan.twiddleBytesStretched(), 4 * plan.twiddleBytes());
    EXPECT_EQ(plan.twiddleBytesStretched() / plan.twiddleBytes(),
              static_cast<size_t>(plan.logn()) / 2);
}

TEST(NttReference, MatchesEquation11ByHand)
{
    // n = 4 over q = 5 with omega = 2 (the classic toy case, Sec. 2.3).
    Modulus m(U128{5});
    ntt::NttPlan plan(m, 4);
    // Our plan picks some valid 4th root; evaluate Eq. 11 directly with
    // the plan's omega for the hand check.
    std::vector<U128> x = {U128{1}, U128{2}, U128{3}, U128{4}};
    auto y = ntt::referenceNtt(plan, x);
    for (size_t k = 0; k < 4; ++k) {
        U128 acc{0};
        for (size_t j = 0; j < 4; ++j) {
            U128 term = m.mul(x[j], m.pow(plan.omega(),
                                          U128{static_cast<uint64_t>(j * k)}));
            acc = m.add(acc, term);
        }
        EXPECT_EQ(y[k], acc);
    }
    // Inverse recovers the input.
    EXPECT_EQ(ntt::referenceIntt(plan, y), x);
}

class NttBackend : public testing::TestWithParam<Backend>
{
};

TEST_P(NttBackend, ForwardMatchesReferenceBitReversed)
{
    Backend be = GetParam();
    for (size_t n : {2u, 4u, 8u, 16u, 64u, 256u}) {
        ntt::NttPlan plan(testPrime(), n);
        auto input = randomResidues(n, testPrime().q, 42 + n);
        auto expect = ntt::referenceNtt(plan, input); // natural order
        auto got = runForward(plan, be, input);       // bit-reversed
        EXPECT_EQ(bitReverse(got), expect)
            << "n=" << n << " backend=" << backendName(be);
    }
}

TEST_P(NttBackend, RoundTripIsIdentity)
{
    Backend be = GetParam();
    for (size_t n : {2u, 8u, 32u, 128u, 1024u, 4096u}) {
        ntt::NttPlan plan(testPrime(), n);
        auto input = randomResidues(n, testPrime().q, 1000 + n);
        auto transformed = runForward(plan, be, input);
        auto back = runInverse(plan, be, transformed);
        EXPECT_EQ(back, input) << "n=" << n << " backend=" << backendName(be);
    }
}

TEST_P(NttBackend, LinearityHolds)
{
    Backend be = GetParam();
    const size_t n = 128;
    ntt::NttPlan plan(testPrime(), n);
    const Modulus& m = plan.modulus();
    auto f = randomResidues(n, testPrime().q, 1);
    auto g = randomResidues(n, testPrime().q, 2);
    SplitMix64 rng(3);
    U128 alpha = rng.nextBelow(testPrime().q);
    // NTT(alpha*f + g) == alpha*NTT(f) + NTT(g).
    std::vector<U128> combo(n);
    for (size_t i = 0; i < n; ++i)
        combo[i] = m.add(m.mul(alpha, f[i]), g[i]);
    auto lhs = runForward(plan, be, combo);
    auto tf = runForward(plan, be, f);
    auto tg = runForward(plan, be, g);
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(lhs[i], m.add(m.mul(alpha, tf[i]), tg[i])) << "i=" << i;
}

TEST_P(NttBackend, ConvolutionTheorem)
{
    Backend be = GetParam();
    const size_t n = 64;
    ntt::NttPlan plan(testPrime(), n);
    const Modulus& m = plan.modulus();
    auto f = randomResidues(n, testPrime().q, 10);
    auto g = randomResidues(n, testPrime().q, 11);
    auto tf = runForward(plan, be, f);
    auto tg = runForward(plan, be, g);
    std::vector<U128> prod(n);
    for (size_t i = 0; i < n; ++i)
        prod[i] = m.mul(tf[i], tg[i]);
    auto conv = runInverse(plan, be, prod);
    EXPECT_EQ(conv, ntt::cyclicConvolution(m, f, g));
}

TEST_P(NttBackend, KaratsubaPathAgrees)
{
    Backend be = GetParam();
    const size_t n = 256;
    ntt::NttPlan plan(testPrime(), n);
    auto input = randomResidues(n, testPrime().q, 77);
    for (Reduction red : {Reduction::ShoupLazy, Reduction::Barrett}) {
        EXPECT_EQ(runForward(plan, be, input, MulAlgo::Karatsuba, red),
                  runForward(plan, be, input, MulAlgo::Schoolbook, red));
    }
}

TEST_P(NttBackend, ShoupLazyBitIdenticalToBarrett)
{
    // Acceptance: the Shoup-lazy steady state must produce EXACTLY the
    // Barrett path's words on every compiled backend, for n spanning
    // 8..4096, on both the forward and inverse transforms.
    Backend be = GetParam();
    for (size_t n : {8u, 16u, 64u, 256u, 1024u, 4096u}) {
        ntt::NttPlan plan(testPrime(), n);
        auto input = randomResidues(n, testPrime().q, 31337 + n);
        auto fwd_shoup = runForward(plan, be, input, MulAlgo::Schoolbook,
                                    Reduction::ShoupLazy);
        auto fwd_barrett = runForward(plan, be, input, MulAlgo::Schoolbook,
                                      Reduction::Barrett);
        EXPECT_EQ(fwd_shoup, fwd_barrett)
            << "forward n=" << n << " backend=" << backendName(be);
        auto inv_shoup = runInverse(plan, be, fwd_shoup, MulAlgo::Schoolbook,
                                    Reduction::ShoupLazy);
        auto inv_barrett = runInverse(plan, be, fwd_shoup,
                                      MulAlgo::Schoolbook,
                                      Reduction::Barrett);
        EXPECT_EQ(inv_shoup, inv_barrett)
            << "inverse n=" << n << " backend=" << backendName(be);
        EXPECT_EQ(inv_shoup, input) << "roundtrip n=" << n;
    }
}

TEST_P(NttBackend, ShoupLazyBitIdenticalOnWideModulus)
{
    // The 124-bit Barrett ceiling is also the lazy-headroom edge: 4q
    // just fits below 2^126. Exercise it explicitly.
    Backend be = GetParam();
    const auto& prime = ntt::defaultBenchPrime();
    const size_t n = 256;
    ntt::NttPlan plan(prime, n);
    auto input = randomResidues(n, prime.q, 99);
    EXPECT_EQ(runForward(plan, be, input, MulAlgo::Schoolbook,
                         Reduction::ShoupLazy),
              runForward(plan, be, input, MulAlgo::Schoolbook,
                         Reduction::Barrett));
}

TEST_P(NttBackend, VmulShoupMatchesBlasVmul)
{
    Backend be = GetParam();
    const size_t n = 128;
    ntt::NttPlan plan(testPrime(), n);
    const Modulus& m = plan.modulus();
    const mod::DW<uint64_t> q = mod::toDw(m.value());
    auto a = randomResidues(n, testPrime().q, 7);
    auto t = randomResidues(n, testPrime().q, 8);
    ResidueVector va = ResidueVector::fromU128(a);
    ResidueVector vt = ResidueVector::fromU128(t);
    ResidueVector vtq(n), out(n);
    for (size_t i = 0; i < n; ++i) {
        vtq.set(i, mod::fromDw(
                       mod::shoupPrecompute(mod::toDw(vt.at(i)), q)));
    }
    ntt::vmulShoup(be, m, va.span(), vt.span(), vtq.span(), out.span());
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(out.at(i), m.mul(a[i], t[i])) << "i=" << i;
    // In-place (c == a) is part of the contract.
    ntt::vmulShoup(be, m, va.span(), vt.span(), vtq.span(), va.span());
    EXPECT_EQ(va.toU128(), out.toU128());
}

TEST_P(NttBackend, WideModulusWorks)
{
    // Full 124-bit modulus: the Barrett ceiling.
    Backend be = GetParam();
    const auto& prime = ntt::defaultBenchPrime();
    ASSERT_EQ(prime.bits, 124);
    const size_t n = 128;
    ntt::NttPlan plan(prime, n);
    auto input = randomResidues(n, prime.q, 5);
    auto expect = ntt::referenceNtt(plan, input);
    EXPECT_EQ(bitReverse(runForward(plan, be, input)), expect);
    EXPECT_EQ(runInverse(plan, be, runForward(plan, be, input)), input);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, NttBackend,
                         testing::ValuesIn(test::availableCorrectBackends()),
                         test::backendParamName);

TEST_P(NttBackend, Radix4BitIdenticalToRadix2)
{
    // Acceptance: the fused radix-4 passes must produce EXACTLY the
    // radix-2 path's words on every compiled backend, for odd and even
    // logn, under both reduction strategies (Barrett ignores the knob
    // by design — the fused kernels are Shoup-lazy — so the comparison
    // is trivially exact there, but the dispatch path is exercised).
    Backend be = GetParam();
    for (size_t n : {4u, 8u, 16u, 32u, 64u, 128u, 256u, 512u, 1024u, 2048u,
                     4096u}) {
        ntt::NttPlan plan(testPrime(), n);
        auto input = randomResidues(n, testPrime().q, 7777 + n);
        for (Reduction red : {Reduction::ShoupLazy, Reduction::Barrett}) {
            auto fwd4 = runForward(plan, be, input, MulAlgo::Schoolbook, red,
                                   StageFusion::Radix4);
            auto fwd2 = runForward(plan, be, input, MulAlgo::Schoolbook, red,
                                   StageFusion::Radix2);
            EXPECT_EQ(fwd4, fwd2) << "forward n=" << n
                                  << " backend=" << backendName(be);
            auto inv4 = runInverse(plan, be, fwd2, MulAlgo::Schoolbook, red,
                                   StageFusion::Radix4);
            auto inv2 = runInverse(plan, be, fwd2, MulAlgo::Schoolbook, red,
                                   StageFusion::Radix2);
            EXPECT_EQ(inv4, inv2) << "inverse n=" << n
                                  << " backend=" << backendName(be);
            EXPECT_EQ(inv4, input) << "roundtrip n=" << n;
        }
    }
}

TEST_P(NttBackend, Radix4BitIdenticalOnWideModulus)
{
    // The 124-bit Barrett/lazy-headroom ceiling under stage fusion.
    Backend be = GetParam();
    const auto& prime = ntt::defaultBenchPrime();
    for (size_t n : {128u, 256u}) { // odd and even logn
        ntt::NttPlan plan(prime, n);
        auto input = randomResidues(n, prime.q, 4242 + n);
        auto fwd4 = runForward(plan, be, input, MulAlgo::Schoolbook,
                               Reduction::ShoupLazy, StageFusion::Radix4);
        EXPECT_EQ(fwd4, runForward(plan, be, input, MulAlgo::Schoolbook,
                                   Reduction::ShoupLazy,
                                   StageFusion::Radix2));
        EXPECT_EQ(runInverse(plan, be, fwd4, MulAlgo::Schoolbook,
                             Reduction::ShoupLazy, StageFusion::Radix4),
                  input);
    }
}

TEST(NttPlan, SweepAndTwiddleAccounting)
{
    // Compact tables: 8 arrays (fwd/inv x value/Shoup x hi/lo) of n/2
    // words. Swept-bytes model: one 32n-byte pass per stage, radix-4
    // halves the passes.
    ntt::NttPlan plan(testPrime(), 256);
    EXPECT_EQ(plan.twiddleBytes(), 8u * 128 * sizeof(uint64_t));
    EXPECT_EQ(plan.bytesSweptPerTransform(StageFusion::Radix2),
              32u * 256 * 8);
    EXPECT_EQ(plan.bytesSweptPerTransform(StageFusion::Radix4),
              32u * 256 * 4);
}

TEST(NttPlan, ZeroThirdArgumentBuildsTheDirectPlan)
{
    // The three-argument NttPrime form is kept for source compatibility
    // only: 0 yields the ordinary plan, anything else is rejected.
    ntt::NttPlan plan(testPrime(), 64);
    ntt::NttPlan compat(testPrime(), 64, size_t{0});
    EXPECT_EQ(compat.omega(), plan.omega());
    EXPECT_EQ(compat.twiddleBytes(), plan.twiddleBytes());
    EXPECT_THROW(ntt::NttPlan(testPrime(), 64, size_t{1024}),
                 InvalidArgument);
}

TEST(NttPlan, StageTwiddlePairIndexing)
{
    // The fused second layer's shared twiddle: butterflies 2p and 2p+1
    // of stage s+1 both read pow[2 * ((p >> s) << s)].
    ntt::NttPlan plan(testPrime(), 64);
    for (int s = 0; s + 1 < plan.logn(); ++s) {
        for (size_t p = 0; p < plan.n() / 4; ++p) {
            size_t e = ntt::NttPlan::stageTwiddlePair(s, p);
            EXPECT_EQ(e, ntt::NttPlan::stageTwiddleIndex(s + 1, 2 * p));
            EXPECT_EQ(e, ntt::NttPlan::stageTwiddleIndex(s + 1, 2 * p + 1));
            EXPECT_LT(e, plan.half());
            // First-layer partner index stays in range too.
            EXPECT_LT(ntt::NttPlan::stageTwiddleIndex(s, p) + plan.n() / 4,
                      plan.half());
        }
    }
}

/**
 * X[k] = sum_j x_j * omega^(j*k) mod q by direct O(n) evaluation — the
 * definition the forward transform must reproduce, independent of any
 * butterfly kernel.
 */
U128
evaluateAt(const Modulus& m, const std::vector<U128>& x, const U128& omega,
           size_t k)
{
    const U128 step = m.pow(omega, U128{static_cast<uint64_t>(k)});
    U128 acc{0}, w{1};
    for (const U128& xj : x) {
        acc = m.add(acc, m.mul(xj, w));
        w = m.mul(w, step);
    }
    return acc;
}

/**
 * The realistic FHE sizes n = 2^16 (even logn) and 2^17 (odd logn) on
 * every compiled backend: radix-2, fused radix-4 and Barrett agree word
 * for word, the inverse undoes the forward, and seeded output positions
 * match the transform's definition.
 */
void
checkLargeN(const ntt::NttPrime& prime, uint64_t seed)
{
    const Modulus m(prime.q);
    for (size_t n : {size_t{1} << 16, size_t{1} << 17}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        ntt::NttPlan plan(prime, n);
        auto input = randomResidues(n, prime.q, seed + n);

        std::mt19937_64 rng(seed ^ n);
        std::vector<std::pair<size_t, U128>> expect;
        for (int t = 0; t < 8; ++t) {
            const size_t k = rng() % n;
            expect.emplace_back(k, evaluateAt(m, input, plan.omega(), k));
        }

        for (Backend be : availableCorrectBackends()) {
            SCOPED_TRACE(backendName(be));
            auto fwd2 = runForward(plan, be, input, MulAlgo::Schoolbook,
                                   Reduction::ShoupLazy,
                                   StageFusion::Radix2);
            EXPECT_EQ(runForward(plan, be, input, MulAlgo::Schoolbook,
                                 Reduction::ShoupLazy, StageFusion::Radix4),
                      fwd2);
            EXPECT_EQ(runForward(plan, be, input, MulAlgo::Schoolbook,
                                 Reduction::Barrett),
                      fwd2);
            // Forward output is bit-reversed: X[k] sits at bitrev(k).
            const auto natural = bitReverse(fwd2);
            for (const auto& [k, want] : expect)
                EXPECT_EQ(natural[k], want) << "X[" << k << "]";

            auto inv2 = runInverse(plan, be, fwd2, MulAlgo::Schoolbook,
                                   Reduction::ShoupLazy,
                                   StageFusion::Radix2);
            EXPECT_EQ(inv2, input) << "roundtrip";
            EXPECT_EQ(runInverse(plan, be, fwd2, MulAlgo::Schoolbook,
                                 Reduction::ShoupLazy, StageFusion::Radix4),
                      inv2);
            EXPECT_EQ(runInverse(plan, be, fwd2, MulAlgo::Schoolbook,
                                 Reduction::Barrett),
                      inv2);
        }
    }
}

TEST(NttLargeN, VariantsAgreeWithDefinitionOnTestPrime)
{
    checkLargeN(testPrime(), 90000);
}

TEST(NttLargeN, VariantsAgreeWithDefinitionOnWideModulus)
{
    // The 124-bit modulus: lazy headroom and Shoup companions at the
    // Barrett ceiling.
    checkLargeN(ntt::defaultBenchPrime(), 5678);
}

TEST(NttMqxVariants, AllEmulatedVariantsMatchScalar)
{
    if (!backendAvailable(Backend::MqxEmulate))
        GTEST_SKIP() << "AVX-512 not available";
    const size_t n = 256;
    ntt::NttPlan plan(testPrime(), n);
    auto input = randomResidues(n, testPrime().q, 123);
    auto expect = runForward(plan, Backend::Scalar, input);
    for (MqxVariant v :
         {MqxVariant::MulOnly, MqxVariant::CarryOnly, MqxVariant::Full,
          MqxVariant::MulhiCarry, MqxVariant::FullPredicated}) {
        ResidueVector vin = ResidueVector::fromU128(input);
        ResidueVector out(n), scratch(n);
        ntt::forwardMqx(plan, v, /*pisa=*/false, vin.span(), out.span(),
                        scratch.span());
        EXPECT_EQ(out.toU128(), expect) << mqxVariantName(v);
        // Inverse roundtrip per variant.
        ResidueVector back(n);
        ntt::inverseMqx(plan, v, false, out.span(), back.span(),
                        scratch.span());
        EXPECT_EQ(back.toU128(), input) << mqxVariantName(v);
    }
}

TEST(NttErrors, BufferValidation)
{
    ntt::NttPlan plan(testPrime(), 16);
    ResidueVector a(16), b(16), c(8);
    // Wrong scratch size.
    EXPECT_THROW(ntt::forward(plan, Backend::Scalar, a.span(), b.span(),
                              c.span()),
                 InvalidArgument);
    // Aliased buffers.
    EXPECT_THROW(ntt::forward(plan, Backend::Scalar, a.span(), a.span(),
                              b.span()),
                 InvalidArgument);
}

TEST(NttErrors, RejectsLoAndMixedAliasing)
{
    // The ping-pong needs three fully distinct buffers: distinct hi
    // pointers are NOT enough. Aliased lo arrays and mixed hi/lo
    // overlap must be rejected too (span-overlap contract).
    ntt::NttPlan plan(testPrime(), 16);
    ResidueVector a(16), b(16), c(16), d(16);
    DSpan sa = a.span(), sb = b.span(), sc = c.span(), sd = d.span();

    // out shares its lo array with in (hi pointers distinct).
    DSpan lo_aliased{sb.hi, sa.lo, 16};
    EXPECT_THROW(ntt::forward(plan, Backend::Scalar, sa, lo_aliased, sc),
                 InvalidArgument);

    // scratch's hi array is in's lo array (mixed hi/lo overlap).
    DSpan mixed{sa.lo, sd.lo, 16};
    EXPECT_THROW(ntt::forward(plan, Backend::Scalar, sa, sb, mixed),
                 InvalidArgument);

    // out and scratch share a lo array.
    DSpan scratch_shared{sd.hi, sb.lo, 16};
    EXPECT_THROW(
        ntt::forward(plan, Backend::Scalar, sa, sb, scratch_shared),
        InvalidArgument);

    // Inverse goes through the same validation.
    EXPECT_THROW(ntt::inverse(plan, Backend::Scalar, sa, lo_aliased, sc),
                 InvalidArgument);

    // Fully distinct buffers still work.
    EXPECT_NO_THROW(ntt::forward(plan, Backend::Scalar, sa, sb, sc));
}

TEST(NttErrors, MessagesCarryBufferGeometry)
{
    // The validation error text names the offending pointers and
    // lengths plus the plan's n, so a failing dispatch log identifies
    // WHICH buffer is wrong without a debugger.
    ntt::NttPlan plan(testPrime(), 16);
    ResidueVector a(16), b(16), c(8);
    try {
        ntt::forward(plan, Backend::Scalar, a.span(), b.span(), c.span());
        FAIL() << "size mismatch not rejected";
    } catch (const InvalidArgument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("buffer sizes must equal the plan size"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("plan n=16"), std::string::npos) << msg;
        // The offending scratch length and every buffer's base pointers
        // are spelled out.
        EXPECT_NE(msg.find("scratch hi="), std::string::npos) << msg;
        EXPECT_NE(msg.find("n=8"), std::string::npos) << msg;
        char ptr[32];
        std::snprintf(ptr, sizeof ptr, "%p",
                      static_cast<const void*>(a.span().hi));
        EXPECT_NE(msg.find(ptr), std::string::npos) << msg;
    }
    try {
        ntt::forward(plan, Backend::Scalar, a.span(), a.span(), b.span());
        FAIL() << "aliasing not rejected";
    } catch (const InvalidArgument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("distinct, non-overlapping"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("plan n=16"), std::string::npos) << msg;
    }
    // The scratch-aliasing rejection carries the same geometry report
    // (out and scratch sharing one lo array).
    ResidueVector d(16);
    DSpan shared{d.span().hi, b.span().lo, 16};
    try {
        ntt::forward(plan, Backend::Scalar, a.span(), b.span(), shared);
        FAIL() << "scratch aliasing not rejected";
    } catch (const InvalidArgument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("distinct, non-overlapping"), std::string::npos)
            << msg;
        char ptr[32];
        std::snprintf(ptr, sizeof ptr, "%p",
                      static_cast<const void*>(b.span().lo));
        EXPECT_NE(msg.find(ptr), std::string::npos) << msg;
    }
}

TEST(NttOrdering, ForwardIsBitReversedReference)
{
    // The documented ordering contract, explicitly.
    const size_t n = 32;
    ntt::NttPlan plan(testPrime(), n);
    auto input = randomResidues(n, testPrime().q, 55);
    auto natural = ntt::referenceNtt(plan, input);
    auto ours = runForward(plan, Backend::Scalar, input);
    EXPECT_EQ(ours, bitReverse(natural));
}

} // namespace
} // namespace mqx
