#include "block_predict.h"

#include "sim/measurement_cache.h"
#include "support/status.h"

namespace uops::sim {

BlockPredictor::BlockPredictor(const isa::InstrDb &instrs,
                               uarch::UArch arch,
                               int64_t cycle_budget)
    : timing_(instrs, arch),
      harness_(timing_, SimOptions{.cycle_budget = cycle_budget})
{
}

Measurement
BlockPredictor::predict(const isa::Kernel &body) const
{
    fatalIf(body.empty(), "predict: empty kernel");
    const uarch::UArchInfo &gen = info();
    for (const isa::InstrInstance &inst : body) {
        fatalIf(!gen.supports(*inst.variant), "predict: ",
                inst.variant->name(), " is not available on ",
                gen.short_name);
    }
    return harness_.measure(body);
}

std::string
BlockPredictor::fingerprint(uarch::UArch arch, const isa::Kernel &body)
{
    std::string key = uarch::uarchShortName(arch);
    key += '\0';
    key += MeasurementCache::fingerprint(body);
    return key;
}

} // namespace uops::sim
