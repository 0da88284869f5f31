/**
 * @file
 * Internal per-backend NTT entry points. Each lives in a translation
 * unit compiled with the matching ISA flags; the public dispatcher in
 * ntt.cc routes to them. Not part of the public API.
 */
#pragma once

#include "core/backend.h"
#include "ntt/plan.h"

namespace mqx {
namespace ntt {
namespace backends {

void forwardScalar(const NttPlan&, DConstSpan, DSpan, DSpan, MulAlgo,
                   Reduction, StageFusion);
void inverseScalar(const NttPlan&, DConstSpan, DSpan, DSpan, MulAlgo,
                   Reduction, StageFusion);
void vmulShoupScalar(const Modulus&, DConstSpan, DConstSpan, DConstSpan,
                     DSpan, MulAlgo);

void forwardPortable(const NttPlan&, DConstSpan, DSpan, DSpan, MulAlgo,
                     Reduction, StageFusion);
void inversePortable(const NttPlan&, DConstSpan, DSpan, DSpan, MulAlgo,
                     Reduction, StageFusion);
void vmulShoupPortable(const Modulus&, DConstSpan, DConstSpan, DConstSpan,
                       DSpan, MulAlgo);

void forwardAvx2(const NttPlan&, DConstSpan, DSpan, DSpan, MulAlgo,
                 Reduction, StageFusion);
void inverseAvx2(const NttPlan&, DConstSpan, DSpan, DSpan, MulAlgo,
                 Reduction, StageFusion);
void vmulShoupAvx2(const Modulus&, DConstSpan, DConstSpan, DConstSpan, DSpan,
                   MulAlgo);

void forwardAvx512(const NttPlan&, DConstSpan, DSpan, DSpan, MulAlgo,
                   Reduction, StageFusion);
void inverseAvx512(const NttPlan&, DConstSpan, DSpan, DSpan, MulAlgo,
                   Reduction, StageFusion);
void vmulShoupAvx512(const Modulus&, DConstSpan, DConstSpan, DConstSpan,
                     DSpan, MulAlgo);

void forwardMqxImpl(const NttPlan&, MqxVariant, bool pisa, DConstSpan, DSpan,
                    DSpan, MulAlgo, Reduction, StageFusion);
void inverseMqxImpl(const NttPlan&, MqxVariant, bool pisa, DConstSpan, DSpan,
                    DSpan, MulAlgo, Reduction, StageFusion);
void vmulShoupMqx(bool pisa, const Modulus&, DConstSpan, DConstSpan,
                  DConstSpan, DSpan, MulAlgo);

// Interleaved batch entry points (ROADMAP item 2): buffers are
// il * plan.n() words per half, packed by batch::packLanes. Always the
// radix-2 Shoup-lazy wiring — word-identical per lane to every
// per-channel variant.
void forwardBatchScalar(const NttPlan&, size_t il, DConstSpan, DSpan, DSpan,
                        MulAlgo);
void inverseBatchScalar(const NttPlan&, size_t il, DConstSpan, DSpan, DSpan,
                        MulAlgo);
void vmulShoupBatchScalar(const Modulus&, size_t il, DConstSpan, DConstSpan,
                          DConstSpan, DSpan, MulAlgo);

void forwardBatchPortable(const NttPlan&, size_t il, DConstSpan, DSpan, DSpan,
                          MulAlgo);
void inverseBatchPortable(const NttPlan&, size_t il, DConstSpan, DSpan, DSpan,
                          MulAlgo);
void vmulShoupBatchPortable(const Modulus&, size_t il, DConstSpan, DConstSpan,
                            DConstSpan, DSpan, MulAlgo);

void forwardBatchAvx2(const NttPlan&, size_t il, DConstSpan, DSpan, DSpan,
                      MulAlgo);
void inverseBatchAvx2(const NttPlan&, size_t il, DConstSpan, DSpan, DSpan,
                      MulAlgo);
void vmulShoupBatchAvx2(const Modulus&, size_t il, DConstSpan, DConstSpan,
                        DConstSpan, DSpan, MulAlgo);

void forwardBatchAvx512(const NttPlan&, size_t il, DConstSpan, DSpan, DSpan,
                        MulAlgo);
void inverseBatchAvx512(const NttPlan&, size_t il, DConstSpan, DSpan, DSpan,
                        MulAlgo);
void vmulShoupBatchAvx512(const Modulus&, size_t il, DConstSpan, DConstSpan,
                          DConstSpan, DSpan, MulAlgo);

void forwardBatchMqx(bool pisa, const NttPlan&, size_t il, DConstSpan, DSpan,
                     DSpan, MulAlgo);
void inverseBatchMqx(bool pisa, const NttPlan&, size_t il, DConstSpan, DSpan,
                     DSpan, MulAlgo);
void vmulShoupBatchMqx(bool pisa, const Modulus&, size_t il, DConstSpan,
                       DConstSpan, DConstSpan, DSpan, MulAlgo);

} // namespace backends
} // namespace ntt
} // namespace mqx
