/**
 * @file
 * Self-tests of the benchmark's own checks: each check must reject a
 * planted fault, or a run that passes them shows nothing. They run at
 * the end of every benchmark run and alone with --selftest.
 */
#include <algorithm>
#include <string>

#include "engine/engine.h"
#include "oracle.h"
#include "workloads.h"

namespace perfbench {

using mqx::DConstSpan;
using mqx::U128;
using mqx::rns::RnsBasis;
using mqx::rns::RnsPolynomial;

namespace {

constexpr size_t kN = 64;

/** Flip bit 0 of word @p i of channel 0 (lo word, or hi with @p high). */
RnsPolynomial
flipped(const RnsPolynomial& p, size_t i, bool high = false)
{
    RnsPolynomial q = p;
    mqx::DSpan s = q.channel(0).span();
    (high ? s.hi : s.lo)[i] ^= 1;
    return q;
}

bool
schoolbookOracleRejectsFlips(std::string& report)
{
    RnsBasis basis(40, 12, 1);
    const uint64_t q = basis.prime(0).q.lo;
    mqx::engine::Engine engine(mqx::engine::EngineOptions{
        mqx::bestBackend(), 1, {}, 0});
    const RnsPolynomial a = mqx::rns::randomPolynomial(basis, kN, 11);
    const RnsPolynomial b = mqx::rns::randomPolynomial(basis, kN, 12);
    const RnsPolynomial c = engine.polymulNegacyclic(a, b);
    const std::vector<uint64_t> want = schoolbookNegacyclic(
        q, a.channel(0).span(), b.channel(0).span());
    if (!equalsWords(c.channel(0).span(), want)) {
        report = "schoolbook oracle rejects a correct product";
        return false;
    }
    for (size_t i : {size_t{0}, kN / 2, kN - 1}) {
        for (bool high : {false, true}) {
            if (equalsWords(flipped(c, i, high).channel(0).span(), want)) {
                report = "schoolbook check accepts a flipped word";
                return false;
            }
        }
    }
    return true;
}

bool
evalOracleRejectsFlips(std::string& report)
{
    RnsBasis basis(124, 20, 1);
    const U128 q = basis.prime(0).q;
    mqx::engine::Engine engine(mqx::engine::EngineOptions{
        mqx::bestBackend(), 1, {}, 0});
    std::vector<RnsPolynomial> polys;
    for (uint64_t s = 0; s < 6; ++s)
        polys.push_back(mqx::rns::randomPolynomial(basis, kN, 100 + s));
    const EvalOracle oracle(q, kN, 2, 7);

    // One pair: a plain product. Three pairs: a dot product.
    for (size_t pairs : {size_t{1}, size_t{3}}) {
        std::vector<std::pair<const RnsPolynomial*, const RnsPolynomial*>>
            products;
        std::vector<std::pair<DConstSpan, DConstSpan>> spans;
        for (size_t j = 0; j < pairs; ++j) {
            products.emplace_back(&polys[2 * j], &polys[2 * j + 1]);
            spans.emplace_back(polys[2 * j].channel(0).span(),
                               polys[2 * j + 1].channel(0).span());
        }
        const RnsPolynomial c = pairs == 1
                                    ? engine.polymulNegacyclic(polys[0],
                                                               polys[1])
                                    : engine.fmaBatch(products);
        if (!oracle.check(spans, c.channel(0).span())) {
            report = "GMP evaluation check rejects a correct result";
            return false;
        }
        for (size_t i : {size_t{0}, kN / 2, kN - 1}) {
            for (bool high : {false, true}) {
                if (oracle.check(spans, flipped(c, i, high).channel(0).span())) {
                    report = "GMP evaluation check accepts a flipped word";
                    return false;
                }
            }
        }
        // Same residue, but not reduced: c_i + q is not a valid output.
        RnsPolynomial wide = c;
        const U128 sum = wide.channel(0).at(3) + q;
        wide.channel(0).set(3, sum);
        if (oracle.check(spans, wide.channel(0).span())) {
            report = "GMP evaluation check accepts a word >= q";
            return false;
        }
    }
    return true;
}

bool
wrongRootsRejected(std::string& report)
{
    RnsBasis basis(124, 20, 1);
    const U128 q = basis.prime(0).q;
    // 1^n = 1 and (q - 1)^n = (-1)^n = 1 for even n: neither is a root
    // of x^n + 1, so neither may be used as an evaluation point.
    for (const U128& r : {U128(1), q - U128(1)}) {
        if (EvalOracle::isNegacyclicRoot(q, kN, r)) {
            report = "a non-root of x^n + 1 passes the root test";
            return false;
        }
        bool rejected = false;
        try {
            const EvalOracle oracle(q, kN, std::vector<U128>{r});
        } catch (const std::invalid_argument&) {
            rejected = true;
        }
        if (!rejected) {
            report = "EvalOracle accepts a wrong root";
            return false;
        }
    }
    return true;
}

bool
droppedResponseRejected(std::string& report)
{
    ReplyLedger ledger(4);
    const bool first = ledger.answer(0) && ledger.answer(1) && ledger.answer(3);
    if (!first || ledger.missing() != 1) {
        report = "reply ledger misses a dropped response";
        return false;
    }
    if (ledger.answer(1) || ledger.answer(4)) {
        report = "reply ledger accepts a duplicate or unknown reply";
        return false;
    }
    return true;
}

bool
percentileMatchesSortedOracle(std::string& report)
{
    uint64_t state = 12345;
    const auto next = [&] {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 33;
    };
    // p in tenths of a percent, so the oracle's rank is exact integers.
    for (uint64_t p10 : {10u, 100u, 250u, 500u, 750u, 900u, 950u, 990u,
                         999u, 1000u}) {
        for (size_t n = 1; n <= 64; ++n) {
            std::vector<double> values(n);
            for (double& v : values)
                v = static_cast<double>(next() % 20);
            std::vector<double> sorted = values;
            std::sort(sorted.begin(), sorted.end());
            const size_t rank =
                std::max<size_t>(1, (p10 * n + 999) / 1000);
            const double p = static_cast<double>(p10) / 10.0;
            if (percentile(values, p) != sorted[rank - 1] ||
                samplesBeyond(n, p) != n - rank) {
                report = "percentile disagrees with the sorted-array oracle "
                         "at n=" + std::to_string(n) + " " +
                         percentileLabel(p);
                return false;
            }
        }
    }
    if (minSamplesForTail(90) != 100 || minSamplesForTail(95) != 200 ||
        minSamplesForTail(99) != 1000) {
        report = "minSamplesForTail is off";
        return false;
    }
    return true;
}

} // namespace

bool
runSelfTests(std::string& report)
{
    return schoolbookOracleRejectsFlips(report) &&
           evalOracleRejectsFlips(report) && wrongRootsRejected(report) &&
           droppedResponseRejected(report) &&
           percentileMatchesSortedOracle(report);
}

} // namespace perfbench
