/**
 * @file
 * Public NTT dispatch and the convenience Engine.
 */
#include "ntt/ntt.h"

#include "core/config.h"
#include "ntt/ntt_backends.h"
#include "telemetry/telemetry.h"

namespace mqx {
namespace ntt {

namespace {

void
requireAvailable(Backend backend)
{
    if (!backendAvailable(backend)) {
        throw BackendUnavailable("NTT backend not available on this host: " +
                                 backendName(backend));
    }
}

} // namespace

StageFusion
resolveStageFusion(Backend backend, size_t n, StageFusion fusion)
{
    if (fusion != StageFusion::Auto)
        return fusion;
    // BENCH_ntt.json: Scalar fused_speedup is 1.11-1.27x at every
    // measured n, so it always fuses. AVX-512 loses at every n
    // (0.85-0.96x), so it and the MQX tiers, which run the AVX-512
    // bodies, keep radix-2, as does Portable (0.90-0.98x). AVX2 is
    // within a few percent either way (0.89-1.06x at n = 65536 across
    // regenerations); it fuses from 65536, the size where an earlier
    // committed run measured its only gain (1.04x).
    constexpr size_t kAvx2Radix4MinN = 65536;
    if (backend == Backend::Scalar ||
        (backend == Backend::Avx2 && n >= kAvx2Radix4MinN))
        return StageFusion::Radix4;
    return StageFusion::Radix2;
}

void
forward(const NttPlan& plan, Backend backend, DConstSpan in, DSpan out,
        DSpan scratch, MulAlgo algo, Reduction red, StageFusion fusion)
{
    MQX_SCOPED_SPAN(ntt_span, "ntt.forward");
    requireAvailable(backend);
    fusion = resolveStageFusion(backend, plan.n(), fusion);
    switch (backend) {
      case Backend::Scalar:
        backends::forwardScalar(plan, in, out, scratch, algo, red, fusion);
        return;
      case Backend::Portable:
        backends::forwardPortable(plan, in, out, scratch, algo, red, fusion);
        return;
      case Backend::Avx2:
#if MQX_BUILD_AVX2
        backends::forwardAvx2(plan, in, out, scratch, algo, red, fusion);
        return;
#else
        break;
#endif
      case Backend::Avx512:
#if MQX_BUILD_AVX512
        backends::forwardAvx512(plan, in, out, scratch, algo, red, fusion);
        return;
#else
        break;
#endif
      case Backend::MqxEmulate:
#if MQX_BUILD_AVX512
        backends::forwardMqxImpl(plan, MqxVariant::Full, false, in, out,
                                 scratch, algo, red, fusion);
        return;
#else
        break;
#endif
      case Backend::MqxPisa:
#if MQX_BUILD_AVX512
        backends::forwardMqxImpl(plan, MqxVariant::Full, true, in, out,
                                 scratch, algo, red, fusion);
        return;
#else
        break;
#endif
    }
    throw BackendUnavailable("NTT backend not compiled in: " +
                             backendName(backend));
}

void
inverse(const NttPlan& plan, Backend backend, DConstSpan in, DSpan out,
        DSpan scratch, MulAlgo algo, Reduction red, StageFusion fusion)
{
    MQX_SCOPED_SPAN(ntt_span, "ntt.inverse");
    requireAvailable(backend);
    fusion = resolveStageFusion(backend, plan.n(), fusion);
    switch (backend) {
      case Backend::Scalar:
        backends::inverseScalar(plan, in, out, scratch, algo, red, fusion);
        return;
      case Backend::Portable:
        backends::inversePortable(plan, in, out, scratch, algo, red, fusion);
        return;
      case Backend::Avx2:
#if MQX_BUILD_AVX2
        backends::inverseAvx2(plan, in, out, scratch, algo, red, fusion);
        return;
#else
        break;
#endif
      case Backend::Avx512:
#if MQX_BUILD_AVX512
        backends::inverseAvx512(plan, in, out, scratch, algo, red, fusion);
        return;
#else
        break;
#endif
      case Backend::MqxEmulate:
#if MQX_BUILD_AVX512
        backends::inverseMqxImpl(plan, MqxVariant::Full, false, in, out,
                                 scratch, algo, red, fusion);
        return;
#else
        break;
#endif
      case Backend::MqxPisa:
#if MQX_BUILD_AVX512
        backends::inverseMqxImpl(plan, MqxVariant::Full, true, in, out,
                                 scratch, algo, red, fusion);
        return;
#else
        break;
#endif
    }
    throw BackendUnavailable("NTT backend not compiled in: " +
                             backendName(backend));
}

void
vmulShoup(Backend backend, const Modulus& m, DConstSpan a, DConstSpan t,
          DConstSpan tq, DSpan c, MulAlgo algo)
{
    requireAvailable(backend);
    switch (backend) {
      case Backend::Scalar:
        backends::vmulShoupScalar(m, a, t, tq, c, algo);
        return;
      case Backend::Portable:
        backends::vmulShoupPortable(m, a, t, tq, c, algo);
        return;
      case Backend::Avx2:
#if MQX_BUILD_AVX2
        backends::vmulShoupAvx2(m, a, t, tq, c, algo);
        return;
#else
        break;
#endif
      case Backend::Avx512:
#if MQX_BUILD_AVX512
        backends::vmulShoupAvx512(m, a, t, tq, c, algo);
        return;
#else
        break;
#endif
      case Backend::MqxEmulate:
#if MQX_BUILD_AVX512
        backends::vmulShoupMqx(false, m, a, t, tq, c, algo);
        return;
#else
        break;
#endif
      case Backend::MqxPisa:
#if MQX_BUILD_AVX512
        backends::vmulShoupMqx(true, m, a, t, tq, c, algo);
        return;
#else
        break;
#endif
    }
    throw BackendUnavailable("NTT backend not compiled in: " +
                             backendName(backend));
}

void
forwardMqx(const NttPlan& plan, MqxVariant variant, bool pisa, DConstSpan in,
           DSpan out, DSpan scratch, MulAlgo algo, Reduction red,
           StageFusion fusion)
{
    requireAvailable(Backend::MqxEmulate);
    fusion = resolveStageFusion(pisa ? Backend::MqxPisa : Backend::MqxEmulate,
                                plan.n(), fusion);
#if MQX_BUILD_AVX512
    backends::forwardMqxImpl(plan, variant, pisa, in, out, scratch, algo,
                             red, fusion);
#else
    (void)plan;
    (void)variant;
    (void)pisa;
    (void)in;
    (void)out;
    (void)scratch;
    (void)algo;
    (void)red;
    (void)fusion;
    throw BackendUnavailable("MQX backend not compiled in");
#endif
}

void
inverseMqx(const NttPlan& plan, MqxVariant variant, bool pisa, DConstSpan in,
           DSpan out, DSpan scratch, MulAlgo algo, Reduction red,
           StageFusion fusion)
{
    requireAvailable(Backend::MqxEmulate);
    fusion = resolveStageFusion(pisa ? Backend::MqxPisa : Backend::MqxEmulate,
                                plan.n(), fusion);
#if MQX_BUILD_AVX512
    backends::inverseMqxImpl(plan, variant, pisa, in, out, scratch, algo,
                             red, fusion);
#else
    (void)plan;
    (void)variant;
    (void)pisa;
    (void)in;
    (void)out;
    (void)scratch;
    (void)algo;
    (void)red;
    (void)fusion;
    throw BackendUnavailable("MQX backend not compiled in");
#endif
}

size_t
batchInterleave(Backend backend)
{
    switch (backend) {
      case Backend::Scalar:
      case Backend::Portable:
      case Backend::Avx2:
        return 4;
      case Backend::Avx512:
      case Backend::MqxEmulate:
      case Backend::MqxPisa:
        return 8;
    }
    return 4;
}

bool
batchSupported(const NttPlan& plan)
{
    return plan.n() >= 16;
}

namespace {

/** Shared batch accounting: spans plus the roofline-consistent sweep
 *  counters (il lanes, each sweeping the radix-2 per-transform bytes). */
void
noteBatchSweep(const NttPlan& plan, size_t il)
{
    telemetry::counter("batch.channels_per_sweep").add(il);
    telemetry::counter("batch.bytes_swept")
        .add(il * plan.bytesSweptPerTransform(StageFusion::Radix2));
}

} // namespace

void
forwardBatch(const NttPlan& plan, Backend backend, size_t il, DConstSpan in,
             DSpan out, DSpan scratch, MulAlgo algo)
{
    MQX_SCOPED_SPAN(ntt_span, "ntt.forward_batch");
    requireAvailable(backend);
    checkArg(batchSupported(plan),
             "forwardBatch: plan too small for the batch kernels (n < 16)");
    noteBatchSweep(plan, il);
    switch (backend) {
      case Backend::Scalar:
        backends::forwardBatchScalar(plan, il, in, out, scratch, algo);
        return;
      case Backend::Portable:
        backends::forwardBatchPortable(plan, il, in, out, scratch, algo);
        return;
      case Backend::Avx2:
#if MQX_BUILD_AVX2
        backends::forwardBatchAvx2(plan, il, in, out, scratch, algo);
        return;
#else
        break;
#endif
      case Backend::Avx512:
#if MQX_BUILD_AVX512
        backends::forwardBatchAvx512(plan, il, in, out, scratch, algo);
        return;
#else
        break;
#endif
      case Backend::MqxEmulate:
#if MQX_BUILD_AVX512
        backends::forwardBatchMqx(false, plan, il, in, out, scratch, algo);
        return;
#else
        break;
#endif
      case Backend::MqxPisa:
#if MQX_BUILD_AVX512
        backends::forwardBatchMqx(true, plan, il, in, out, scratch, algo);
        return;
#else
        break;
#endif
    }
    throw BackendUnavailable("NTT backend not compiled in: " +
                             backendName(backend));
}

void
inverseBatch(const NttPlan& plan, Backend backend, size_t il, DConstSpan in,
             DSpan out, DSpan scratch, MulAlgo algo)
{
    MQX_SCOPED_SPAN(ntt_span, "ntt.inverse_batch");
    requireAvailable(backend);
    checkArg(batchSupported(plan),
             "inverseBatch: plan too small for the batch kernels (n < 16)");
    noteBatchSweep(plan, il);
    switch (backend) {
      case Backend::Scalar:
        backends::inverseBatchScalar(plan, il, in, out, scratch, algo);
        return;
      case Backend::Portable:
        backends::inverseBatchPortable(plan, il, in, out, scratch, algo);
        return;
      case Backend::Avx2:
#if MQX_BUILD_AVX2
        backends::inverseBatchAvx2(plan, il, in, out, scratch, algo);
        return;
#else
        break;
#endif
      case Backend::Avx512:
#if MQX_BUILD_AVX512
        backends::inverseBatchAvx512(plan, il, in, out, scratch, algo);
        return;
#else
        break;
#endif
      case Backend::MqxEmulate:
#if MQX_BUILD_AVX512
        backends::inverseBatchMqx(false, plan, il, in, out, scratch, algo);
        return;
#else
        break;
#endif
      case Backend::MqxPisa:
#if MQX_BUILD_AVX512
        backends::inverseBatchMqx(true, plan, il, in, out, scratch, algo);
        return;
#else
        break;
#endif
    }
    throw BackendUnavailable("NTT backend not compiled in: " +
                             backendName(backend));
}

void
vmulShoupBatch(Backend backend, const Modulus& m, size_t il, DConstSpan a,
               DConstSpan t, DConstSpan tq, DSpan c, MulAlgo algo)
{
    requireAvailable(backend);
    switch (backend) {
      case Backend::Scalar:
        backends::vmulShoupBatchScalar(m, il, a, t, tq, c, algo);
        return;
      case Backend::Portable:
        backends::vmulShoupBatchPortable(m, il, a, t, tq, c, algo);
        return;
      case Backend::Avx2:
#if MQX_BUILD_AVX2
        backends::vmulShoupBatchAvx2(m, il, a, t, tq, c, algo);
        return;
#else
        break;
#endif
      case Backend::Avx512:
#if MQX_BUILD_AVX512
        backends::vmulShoupBatchAvx512(m, il, a, t, tq, c, algo);
        return;
#else
        break;
#endif
      case Backend::MqxEmulate:
#if MQX_BUILD_AVX512
        backends::vmulShoupBatchMqx(false, m, il, a, t, tq, c, algo);
        return;
#else
        break;
#endif
      case Backend::MqxPisa:
#if MQX_BUILD_AVX512
        backends::vmulShoupBatchMqx(true, m, il, a, t, tq, c, algo);
        return;
#else
        break;
#endif
    }
    throw BackendUnavailable("NTT backend not compiled in: " +
                             backendName(backend));
}

Engine::Engine(const NttPlan& plan, Backend backend)
    : plan_(plan), backend_(backend), buf_a_(plan.n()), buf_b_(plan.n()),
      buf_c_(plan.n()), scratch_(plan.n())
{
    requireAvailable(backend_);
}

Engine::Engine(const NttPlan& plan) : Engine(plan, bestBackend()) {}

std::vector<U128>
Engine::forward(const std::vector<U128>& input)
{
    checkArg(input.size() == plan_.n(), "Engine::forward: size mismatch");
    buf_in_.assignFromU128(input);
    ntt::forward(plan_, backend_, buf_in_.span(), buf_a_.span(),
                 scratch_.span());
    return buf_a_.toU128();
}

std::vector<U128>
Engine::inverse(const std::vector<U128>& input)
{
    checkArg(input.size() == plan_.n(), "Engine::inverse: size mismatch");
    buf_in_.assignFromU128(input);
    ntt::inverse(plan_, backend_, buf_in_.span(), buf_a_.span(),
                 scratch_.span());
    return buf_a_.toU128();
}

std::vector<U128>
Engine::forwardNatural(const std::vector<U128>& input)
{
    checkArg(input.size() == plan_.n(),
             "Engine::forwardNatural: size mismatch");
    buf_in_.assignFromU128(input);
    ntt::forward(plan_, backend_, buf_in_.span(), buf_a_.span(),
                 scratch_.span());
    DSpan s = buf_a_.span();
    bitReversePermute(s);
    return buf_a_.toU128();
}

std::vector<U128>
Engine::polymulCyclic(const std::vector<U128>& f, const std::vector<U128>& g)
{
    checkArg(f.size() == plan_.n() && g.size() == plan_.n(),
             "Engine::polymulCyclic: size mismatch");
    buf_in_.assignFromU128(f);
    buf_in2_.assignFromU128(g);
    ntt::forward(plan_, backend_, buf_in_.span(), buf_a_.span(),
                 scratch_.span());
    ntt::forward(plan_, backend_, buf_in2_.span(), buf_b_.span(),
                 scratch_.span());
    // Point-wise multiply in the (bit-reversed) transformed domain.
    const Modulus& m = plan_.modulus();
    for (size_t i = 0; i < plan_.n(); ++i)
        buf_c_.set(i, m.mul(buf_a_.at(i), buf_b_.at(i)));
    ntt::inverse(plan_, backend_, buf_c_.span(), buf_a_.span(),
                 scratch_.span());
    return buf_a_.toU128();
}

} // namespace ntt
} // namespace mqx
