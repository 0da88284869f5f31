/**
 * @file
 * Backend taxonomy helpers and runtime dispatch policy.
 */
#include "core/backend.h"

#include "core/config.h"
#include "core/cpu_features.h"

namespace mqx {

std::string
backendName(Backend b)
{
    switch (b) {
      case Backend::Scalar:
        return "Scalar";
      case Backend::Portable:
        return "Portable";
      case Backend::Avx2:
        return "AVX2";
      case Backend::Avx512:
        return "AVX-512";
      case Backend::MqxEmulate:
        return "MQX (emulated)";
      case Backend::MqxPisa:
        return "MQX";
    }
    return "unknown";
}

std::string
mqxVariantName(MqxVariant v)
{
    switch (v) {
      case MqxVariant::MulOnly:
        return "+M";
      case MqxVariant::CarryOnly:
        return "+C";
      case MqxVariant::Full:
        return "+M,C";
      case MqxVariant::MulhiCarry:
        return "+Mh,C";
      case MqxVariant::FullPredicated:
        return "+M,C,P";
    }
    return "unknown";
}

std::vector<Backend>
correctBackends()
{
    return {Backend::Scalar, Backend::Portable, Backend::Avx2,
            Backend::Avx512, Backend::MqxEmulate};
}

bool
backendAvailable(Backend b)
{
    const CpuFeatures& f = hostCpuFeatures();
    switch (b) {
      case Backend::Scalar:
      case Backend::Portable:
        return true;
      case Backend::Avx2:
        return MQX_BUILD_AVX2 && f.avx2;
      case Backend::Avx512:
      case Backend::MqxEmulate:
      case Backend::MqxPisa:
        return MQX_BUILD_AVX512 && f.hasAvx512();
    }
    return false;
}

Backend
bestBackend()
{
    if (backendAvailable(Backend::Avx512))
        return Backend::Avx512;
    if (backendAvailable(Backend::Avx2))
        return Backend::Avx2;
    // No SIMD: Scalar. Portable (the plain-C++ model of the 8-lane
    // kernels) is 3.6-5.1x slower at every n in BENCH_ntt.json.
    return Backend::Scalar;
}

} // namespace mqx
