/**
 * @file
 * Per-microarchitecture timing database (lazy cache over synthesis).
 */

#ifndef UOPS_UARCH_TIMING_DB_H
#define UOPS_UARCH_TIMING_DB_H

#include <memory>
#include <vector>

#include "isa/kernel.h"
#include "uarch/timing.h"
#include "uarch/timing_synth.h"

namespace uops::uarch {

/**
 * Ground-truth timing for all instruction variants on one uarch.
 *
 * Acts as the "silicon" description the simulator executes against and
 * the reference the characterization results are validated against in
 * the test suite. Lookups synthesize lazily and cache.
 */
class TimingDb
{
  public:
    TimingDb(const isa::InstrDb &db, UArch arch)
        : db_(db), arch_(arch), cache_(db.size())
    {
    }

    UArch arch() const { return arch_; }
    const isa::InstrDb &instrDb() const { return db_; }

    /** Timing of a variant (synthesized on first use). */
    const TimingInfo &
    timing(const isa::InstrVariant &variant) const
    {
        auto &slot = cache_.at(static_cast<size_t>(variant.id()));
        if (!slot)
            slot = std::make_unique<TimingInfo>(
                synthesizeTiming(variant, arch_));
        return *slot;
    }

    /**
     * True when the first two explicit register operands of the
     * instance name the same architectural register (the zero-idiom /
     * SHLD-fast-path condition).
     */
    static bool
    sameRegOperands(const isa::InstrInstance &inst)
    {
        const isa::InstrVariant &v = *inst.variant;
        const auto &expl = v.explicitOperands();
        if (expl.size() < 2)
            return false;
        const auto &a = v.operand(expl[0]);
        const auto &b = v.operand(expl[1]);
        if (a.kind != isa::OpKind::Reg || b.kind != isa::OpKind::Reg)
            return false;
        return inst.ops[expl[0]].reg == inst.ops[expl[1]].reg;
    }

    /** Effective µop list for an instance (same-register override). */
    const std::vector<UopSpec> &
    uopsFor(const isa::InstrInstance &inst) const
    {
        const TimingInfo &t = timing(*inst.variant);
        if (t.same_reg_uops && sameRegOperands(inst))
            return *t.same_reg_uops;
        return t.uops;
    }

  private:
    const isa::InstrDb &db_;
    UArch arch_;
    mutable std::vector<std::unique_ptr<TimingInfo>> cache_;
};

} // namespace uops::uarch

#endif // UOPS_UARCH_TIMING_DB_H
