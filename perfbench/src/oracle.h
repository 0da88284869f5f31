/**
 * @file
 * Output checks that share no code with the library: a schoolbook
 * negacyclic product in native 128-bit integers for word-sized primes,
 * GMP evaluation checks at roots of x^n + 1 for the 124-bit primes, and
 * the reply ledger that catches a lost service response.
 */
#pragma once

#include <gmp.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/residue_span.h"
#include "u128/u128.h"

namespace perfbench {

/**
 * a * b mod (x^n + 1, q) by the O(n^2) schoolbook product. Needs
 * q < 2^63 and n * q^2 < 2^127 so that every coefficient sum fits an
 * unsigned __int128 before its single reduction; throws otherwise, and
 * when an operand word is not below q.
 */
std::vector<uint64_t> schoolbookNegacyclic(uint64_t q, mqx::DConstSpan a,
                                           mqx::DConstSpan b);

/** True when @p c is the single-word vector @p expected, word for word. */
bool equalsWords(mqx::DConstSpan c, const std::vector<uint64_t>& expected);

/** Owning mpz_t (GMP's C interface, no gmpxx dependency). */
class Mpz
{
  public:
    Mpz() { mpz_init(v_); }
    explicit Mpz(const mqx::U128& x);
    ~Mpz() { mpz_clear(v_); }
    Mpz(const Mpz&) = delete;
    Mpz& operator=(const Mpz&) = delete;

    mpz_ptr get() { return v_; }
    mpz_srcptr get() const { return v_; }

  private:
    mpz_t v_;
};

/**
 * Evaluation check of negacyclic products over one prime q: for a root
 * r of x^n + 1 (r^n = -1 mod q), c = a * b mod (x^n + 1) implies
 * c(r) = a(r) b(r) mod q, and a dot product c = sum a_j b_j implies
 * c(r) = sum a_j(r) b_j(r). Any single wrong coefficient changes c(r)
 * (r is a unit), so one root catches every one-word corruption.
 */
class EvalOracle
{
  public:
    /**
     * Draw @p count roots r = psi^(2e+1) from @p seed, where psi is a
     * primitive 2n-th root of unity found from a seeded base. Throws
     * when 2n does not divide q - 1.
     */
    EvalOracle(const mqx::U128& q, size_t n, int count, uint64_t seed);

    /** Use explicit roots; throws unless every one satisfies r^n = -1. */
    EvalOracle(const mqx::U128& q, size_t n,
               const std::vector<mqx::U128>& roots);

    EvalOracle(const EvalOracle&) = delete;
    EvalOracle& operator=(const EvalOracle&) = delete;

    /** r^n = -1 (mod q). */
    static bool isNegacyclicRoot(const mqx::U128& q, size_t n,
                                 const mqx::U128& r);

    /**
     * True when every word of @p c is below q and, at every root,
     * c(r) = sum over pairs of a(r) b(r) (one pair: a plain product).
     */
    bool check(const std::vector<std::pair<mqx::DConstSpan,
                                           mqx::DConstSpan>>& pairs,
               mqx::DConstSpan c) const;

  private:
    /** out = p(r) mod q by Horner's rule. */
    void evaluate(mqx::DConstSpan p, const Mpz& r, Mpz& out) const;

    size_t n_;
    mqx::U128 q_;
    Mpz q_mpz_;
    std::vector<std::unique_ptr<Mpz>> roots_;
};

/**
 * Which open-loop requests got exactly one reply. A request never
 * answered is a lost response and counts as a failed operation.
 */
class ReplyLedger
{
  public:
    explicit ReplyLedger(size_t requests) : answered_(requests, 0) {}

    /** Mark @p seq answered; false for an unknown or repeated reply. */
    bool answer(size_t seq);

    size_t missing() const;

  private:
    std::vector<uint8_t> answered_;
};

} // namespace perfbench
