#include "oracle.h"

#include <stdexcept>

namespace perfbench {

using mqx::DConstSpan;
using mqx::U128;

namespace {

using u128 = unsigned __int128;

/** Local SplitMix64 so that root choice shares no code with the library. */
uint64_t
splitmix(uint64_t& state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void
setWords(mpz_ptr out, uint64_t hi, uint64_t lo)
{
    mpz_set_ui(out, hi);
    mpz_mul_2exp(out, out, 64);
    mpz_add_ui(out, out, lo);
}

bool
belowQ(DConstSpan v, const U128& q)
{
    for (size_t i = 0; i < v.n; ++i) {
        if (v.hi[i] > q.hi || (v.hi[i] == q.hi && v.lo[i] >= q.lo))
            return false;
    }
    return true;
}

} // namespace

std::vector<uint64_t>
schoolbookNegacyclic(uint64_t q, DConstSpan a, DConstSpan b)
{
    const size_t n = a.n;
    if (b.n != n || n == 0)
        throw std::invalid_argument("schoolbook: operand lengths differ");
    if (q < 2 || q >= (1ull << 63) ||
        static_cast<u128>(q) * q > (static_cast<u128>(1) << 127) / n)
        throw std::invalid_argument("schoolbook: q too wide for n");
    for (size_t i = 0; i < n; ++i) {
        if (a.hi[i] != 0 || b.hi[i] != 0 || a.lo[i] >= q || b.lo[i] >= q)
            throw std::invalid_argument("schoolbook: operand not below q");
    }
    // x^n = -1: products landing at i + j >= n are subtracted at
    // i + j - n. Both sums stay below n q^2 < 2^127, so each output
    // coefficient is reduced exactly once.
    std::vector<u128> pos(n, 0), neg(n, 0);
    for (size_t i = 0; i < n; ++i) {
        const u128 ai = a.lo[i];
        if (ai == 0)
            continue;
        for (size_t j = 0; j < n - i; ++j)
            pos[i + j] += ai * b.lo[j];
        for (size_t j = n - i; j < n; ++j)
            neg[i + j - n] += ai * b.lo[j];
    }
    std::vector<uint64_t> out(n);
    for (size_t k = 0; k < n; ++k) {
        const uint64_t p = static_cast<uint64_t>(pos[k] % q);
        const uint64_t m = static_cast<uint64_t>(neg[k] % q);
        out[k] = p >= m ? p - m : p + (q - m);
    }
    return out;
}

bool
equalsWords(DConstSpan c, const std::vector<uint64_t>& expected)
{
    if (c.n != expected.size())
        return false;
    for (size_t i = 0; i < c.n; ++i) {
        if (c.hi[i] != 0 || c.lo[i] != expected[i])
            return false;
    }
    return true;
}

Mpz::Mpz(const U128& x)
{
    mpz_init(v_);
    setWords(v_, x.hi, x.lo);
}

EvalOracle::EvalOracle(const U128& q, size_t n, int count, uint64_t seed)
    : n_(n), q_(q), q_mpz_(q)
{
    Mpz order, exp, rem;
    mpz_sub_ui(order.get(), q_mpz_.get(), 1);
    mpz_tdiv_qr_ui(exp.get(), rem.get(), order.get(),
                   static_cast<unsigned long>(2 * n));
    if (mpz_sgn(rem.get()) != 0)
        throw std::invalid_argument("EvalOracle: 2n does not divide q - 1");

    // psi = g^((q-1)/2n) has order 2n exactly when psi^n = -1.
    uint64_t state = seed ^ 0x6a09e667f3bcc909ull;
    Mpz g, psi, t, minus_one;
    mpz_sub_ui(minus_one.get(), q_mpz_.get(), 1);
    for (int tries = 0;; ++tries) {
        if (tries > 1000)
            throw std::runtime_error("EvalOracle: no primitive 2n-th root");
        setWords(g.get(), splitmix(state), splitmix(state));
        mpz_mod(g.get(), g.get(), q_mpz_.get());
        if (mpz_cmp_ui(g.get(), 2) < 0)
            continue;
        mpz_powm(psi.get(), g.get(), exp.get(), q_mpz_.get());
        mpz_powm_ui(t.get(), psi.get(), static_cast<unsigned long>(n),
                    q_mpz_.get());
        if (mpz_cmp(t.get(), minus_one.get()) == 0)
            break;
    }
    for (int i = 0; i < count; ++i) {
        const uint64_t e = splitmix(state) % n;
        auto r = std::make_unique<Mpz>();
        mpz_powm_ui(r->get(), psi.get(), static_cast<unsigned long>(2 * e + 1),
                    q_mpz_.get());
        roots_.push_back(std::move(r));
    }
}

EvalOracle::EvalOracle(const U128& q, size_t n,
                       const std::vector<U128>& roots)
    : n_(n), q_(q), q_mpz_(q)
{
    for (const U128& r : roots) {
        if (!isNegacyclicRoot(q, n, r))
            throw std::invalid_argument("EvalOracle: r^n != -1 (mod q)");
        roots_.push_back(std::make_unique<Mpz>(r));
    }
}

bool
EvalOracle::isNegacyclicRoot(const U128& q, size_t n, const U128& r)
{
    Mpz qm(q), rm(r), t, minus_one;
    mpz_sub_ui(minus_one.get(), qm.get(), 1);
    mpz_powm_ui(t.get(), rm.get(), static_cast<unsigned long>(n), qm.get());
    return mpz_cmp(t.get(), minus_one.get()) == 0;
}

void
EvalOracle::evaluate(DConstSpan p, const Mpz& r, Mpz& out) const
{
    Mpz coeff;
    mpz_set_ui(out.get(), 0);
    for (size_t i = p.n; i-- > 0;) {
        mpz_mul(out.get(), out.get(), r.get());
        setWords(coeff.get(), p.hi[i], p.lo[i]);
        mpz_add(out.get(), out.get(), coeff.get());
        mpz_tdiv_r(out.get(), out.get(), q_mpz_.get());
    }
}

bool
EvalOracle::check(const std::vector<std::pair<DConstSpan, DConstSpan>>& pairs,
                  DConstSpan c) const
{
    if (c.n != n_ || !belowQ(c, q_))
        return false;
    Mpz lhs, rhs, ea, eb;
    for (const auto& r : roots_) {
        evaluate(c, *r, lhs);
        mpz_set_ui(rhs.get(), 0);
        for (const auto& [a, b] : pairs) {
            if (a.n != n_ || b.n != n_)
                return false;
            evaluate(a, *r, ea);
            evaluate(b, *r, eb);
            mpz_addmul(rhs.get(), ea.get(), eb.get());
        }
        mpz_tdiv_r(rhs.get(), rhs.get(), q_mpz_.get());
        if (mpz_cmp(lhs.get(), rhs.get()) != 0)
            return false;
    }
    return true;
}

bool
ReplyLedger::answer(size_t seq)
{
    if (seq >= answered_.size() || answered_[seq])
        return false;
    answered_[seq] = 1;
    return true;
}

size_t
ReplyLedger::missing() const
{
    size_t m = 0;
    for (uint8_t a : answered_)
        m += a ? 0 : 1;
    return m;
}

} // namespace perfbench
