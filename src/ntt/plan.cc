/**
 * @file
 * NttPlan construction: root finding and twiddle table precomputation.
 */
#include "ntt/plan.h"

namespace mqx {
namespace ntt {

namespace {

/** Bit-reversal of @p i within @p bits bits. */
size_t
bitrev(size_t i, int bits)
{
    size_t r = 0;
    for (int b = 0; b < bits; ++b)
        r |= ((i >> b) & 1) << (bits - 1 - b);
    return r;
}

} // namespace

NttPlan::NttPlan(const NttPrime& prime, size_t n, size_t must_be_zero)
    : NttPlan(Modulus(prime.q), n)
{
    checkArg(must_be_zero == 0,
             "NttPlan: the third argument must be 0 (every plan is direct)");
}

NttPlan::NttPlan(const Modulus& modulus, size_t n)
    : mod_(modulus), n_(n)
{
    checkArg(n >= 2 && (n & (n - 1)) == 0,
             "NttPlan: n must be a power of two >= 2");
    logn_ = 0;
    for (size_t t = n; t > 1; t >>= 1)
        ++logn_;
    checkArg(isPrime(mod_.value()), "NttPlan: modulus must be prime");

    omega_ = rootOfUnity(mod_, U128{static_cast<uint64_t>(n)});
    omega_inv_ = mod_.inverse(omega_);
    n_inv_ = mod_.inverse(mod_.reduce(U128{static_cast<uint64_t>(n)}));

    // Shared power tables pow[k] = omega^k and powInv[k] = omega^-k,
    // k < n/2, plus the Shoup companion floor(w * 2^128 / q) for every
    // entry; stage s addresses them with stageTwiddleIndex(). One entry
    // per distinct twiddle — the stretched per-stage layout is gone.
    const size_t h = half();
    const mod::DW<uint64_t> qd = mod::toDw(mod_.value());
    fwd_hi_.reset(h);
    fwd_lo_.reset(h);
    fwd_sh_hi_.reset(h);
    fwd_sh_lo_.reset(h);
    inv_hi_.reset(h);
    inv_lo_.reset(h);
    inv_sh_hi_.reset(h);
    inv_sh_lo_.reset(h);
    U128 acc_f{1}, acc_i{1};
    for (size_t i = 0; i < h; ++i) {
        fwd_hi_[i] = acc_f.hi;
        fwd_lo_[i] = acc_f.lo;
        inv_hi_[i] = acc_i.hi;
        inv_lo_[i] = acc_i.lo;
        mod::DW<uint64_t> sf = mod::shoupPrecompute(mod::toDw(acc_f), qd);
        mod::DW<uint64_t> si = mod::shoupPrecompute(mod::toDw(acc_i), qd);
        fwd_sh_hi_[i] = sf.hi;
        fwd_sh_lo_[i] = sf.lo;
        inv_sh_hi_[i] = si.hi;
        inv_sh_lo_[i] = si.lo;
        acc_f = mod_.mul(acc_f, omega_);
        acc_i = mod_.mul(acc_i, omega_inv_);
    }
    n_inv_shoup_ =
        mod::fromDw(mod::shoupPrecompute(mod::toDw(n_inv_), qd));
}

size_t
NttPlan::twiddleBytes() const
{
    return 8 * half() * sizeof(uint64_t);
}

size_t
NttPlan::twiddleBytesStretched() const
{
    return 4 * static_cast<size_t>(logn_) * half() * sizeof(uint64_t);
}

size_t
NttPlan::bytesSweptPerTransform(StageFusion fusion) const
{
    // One ping-pong pass reads and writes n split residues: 32n bytes.
    const size_t sweep = 32 * n_;
    const size_t logn = static_cast<size_t>(logn_);
    const size_t passes =
        fusion == StageFusion::Radix4 ? (logn + 1) / 2 : logn;
    return passes * sweep;
}

void
bitReversePermute(DSpan data)
{
    size_t n = data.n;
    if (n < 2)
        return;
    int logn = 0;
    for (size_t t = n; t > 1; t >>= 1)
        ++logn;
    for (size_t i = 0; i < n; ++i) {
        size_t r = bitrev(i, logn);
        if (r > i) {
            std::swap(data.hi[i], data.hi[r]);
            std::swap(data.lo[i], data.lo[r]);
        }
    }
}

} // namespace ntt
} // namespace mqx
