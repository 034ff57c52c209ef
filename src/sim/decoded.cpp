#include "sim/decoded.h"

#include <algorithm>
#include <cstdint>

#include "support/status.h"

namespace uops::sim {

using isa::InstrInstance;
using isa::Kernel;
using isa::OperandSpec;
using isa::OpKind;
using isa::RegClass;
using uarch::Domain;
using uarch::OpRef;
using uarch::UopSpec;

DecodedKernel::DecodedKernel(const uarch::TimingDb &timing,
                             const Kernel &prologue, const Kernel &body,
                             const Kernel &epilogue)
    : timing_(timing), info_(uarch::uarchInfo(timing.arch())),
      prologue_size_(prologue.size()), body_size_(body.size())
{
    pattern_.reserve(prologue.size() + body.size() + epilogue.size());
    for (const InstrInstance &inst : prologue)
        pattern_.push_back(decodeOne(inst));
    for (const InstrInstance &inst : body)
        pattern_.push_back(decodeOne(inst));
    for (const InstrInstance &inst : epilogue)
        pattern_.push_back(decodeOne(inst));

    // Successor of each pattern position within one pass of the
    // stream: next element of the same segment, else the first
    // element of the following non-empty segment.
    auto successor = [&](size_t pos) -> const InstrInstance * {
        if (pos + 1 < pattern_.size())
            return pattern_[pos + 1].inst;
        return nullptr;
    };
    for (size_t pos = 0; pos < pattern_.size(); ++pos) {
        if (const InstrInstance *next = successor(pos))
            pattern_[pos].fused_next =
                fusedSpec(*pattern_[pos].inst, *next);
    }
    // Copy-wrapping pair: last body instruction -> first body
    // instruction of the next copy.
    if (body_size_ > 0) {
        DecodedInstr &last = pattern_[prologue_size_ + body_size_ - 1];
        last.fused_wrap =
            fusedSpec(*last.inst, *pattern_[prologue_size_].inst);
    }
    // Both fused variants read and write what the producer's µop does.
    for (DecodedInstr &d : pattern_) {
        const UopSpec *fused = d.fused_next ? d.fused_next : d.fused_wrap;
        if (fused != nullptr)
            d.fused_plan = planUop(*d.inst, *fused, -1, false);
    }
}

DecodedKernel::Ref
DecodedKernel::at(size_t v, int body_reps) const
{
    if (v < prologue_size_)
        return {&pattern_[v], false};
    size_t rel = v - prologue_size_;
    size_t unrolled = body_size_ * static_cast<size_t>(body_reps);
    if (rel < unrolled) {
        size_t offset = rel % body_size_;
        bool last_copy =
            rel / body_size_ == static_cast<size_t>(body_reps) - 1;
        return {&pattern_[prologue_size_ + offset],
                offset == body_size_ - 1 && !last_copy};
    }
    return {&pattern_[prologue_size_ + body_size_ + (rel - unrolled)],
            false};
}

DecodedInstr
DecodedKernel::decodeOne(const InstrInstance &inst)
{
    DecodedInstr d;
    d.inst = &inst;
    const uarch::TimingInfo &timing = timing_.timing(*inst.variant);
    d.uops = &timing_.uopsFor(inst);
    bool same_reg = uarch::TimingDb::sameRegOperands(inst);
    bool idiom = same_reg && timing.dep_breaking_same_reg;
    bool zero_elim =
        same_reg && timing.zero_idiom && info_.zero_idiom_elim;
    d.rename_direct = d.uops->empty() || zero_elim;
    d.try_mov_elim = timing.mov_elim && d.uops->size() == 1;
    d.serializing = inst.variant->attrs().is_serializing;
    d.slow = inst.div_class == isa::DivValueClass::Slow;

    if (idiom) {
        const auto &expl = inst.variant->explicitOperands();
        d.skip_unit = isa::regUnit(inst.regOf(expl[0]));
    }
    if (d.try_mov_elim) {
        const auto &expl = inst.variant->explicitOperands();
        d.elim_dst_unit = isa::regUnit(inst.regOf(expl[0]));
        d.elim_src_unit = isa::regUnit(inst.regOf(expl[1]));
    }

    d.plan.reserve(d.uops->size());
    for (const UopSpec &spec : *d.uops)
        d.plan.push_back(planUop(inst, spec, d.skip_unit, true));

    if (inst.variant->mnemonic() == "VZEROUPPER") {
        d.ymm_effect = DecodedInstr::YmmEffect::ClearUpper;
    } else if (inst.variant->attrs().is_avx) {
        for (size_t i = 0; i < inst.variant->numOperands(); ++i) {
            const OperandSpec &op = inst.variant->operand(i);
            if (op.kind == OpKind::Reg && op.written &&
                op.reg_class == RegClass::Ymm)
                d.ymm_effect = DecodedInstr::YmmEffect::DirtyUpper;
        }
    }
    return d;
}

UopPlan
DecodedKernel::planUop(const InstrInstance &inst, const UopSpec &spec,
                       int skip_unit, bool merges)
{
    using Kind = RenameRef::Kind;
    static_assert(isa::kUnitFlagAf == isa::kUnitFlagCf + 1 &&
                      isa::kUnitFlagSpazo == isa::kUnitFlagCf + 2,
                  "RenameRef::Kind::Flags numbers the flag units in order");
    UopPlan plan;
    auto temp = [&](int index) {
        num_temps_ = std::max(num_temps_, static_cast<size_t>(index) + 1);
        return RenameRef{Kind::Temp, false, index};
    };
    for (const OpRef &r : spec.reads) {
        const auto i = static_cast<size_t>(r.index);
        switch (r.kind) {
          case OpRef::Kind::Operand: {
            const OperandSpec &op = inst.variant->operand(i);
            if (op.kind == OpKind::Flags) {
                // Each flag group is a separate source.
                for (isa::ArchUnit u : op.flags_read.units())
                    plan.srcs.push_back({Kind::Unit, false, u});
                break;
            }
            panicIf(op.kind != OpKind::Reg,
                    "planUop: unexpected operand kind for ",
                    inst.variant->name());
            isa::ArchUnit u = isa::regUnit(inst.regOf(i));
            if (u != skip_unit) // dependency-breaking idiom
                plan.srcs.push_back({Kind::Unit, false, u});
            break;
          }
          case OpRef::Kind::MemAddr:
            plan.srcs.push_back(
                {Kind::Unit, false, isa::regUnit(inst.ops[i].mem.base)});
            break;
          case OpRef::Kind::MemData:
            plan.srcs.push_back({Kind::Mem, false, inst.ops[i].mem.tag});
            break;
          case OpRef::Kind::Temp:
            plan.srcs.push_back(temp(r.index));
            break;
        }
    }
    // Partial-register and dirty-upper merges add a read of the
    // written register's previous value.
    for (const OpRef &w : spec.writes) {
        if (!merges || w.kind != OpRef::Kind::Operand)
            continue;
        const auto i = static_cast<size_t>(w.index);
        const OperandSpec &op = inst.variant->operand(i);
        if (op.kind != OpKind::Reg)
            continue;
        RegClass cls = op.reg_class;
        bool narrow = cls == RegClass::Gpr8 || cls == RegClass::Gpr8High ||
                      cls == RegClass::Gpr16;
        // Legacy-SSE XMM writes merge while the upper state is dirty.
        bool dirty = !narrow && info_.sse_avx_transition &&
                     cls == RegClass::Xmm && !inst.variant->attrs().is_avx;
        isa::ArchUnit u = isa::regUnit(inst.regOf(i));
        if ((narrow || dirty) && u != skip_unit)
            plan.srcs.push_back({Kind::Unit, dirty, u});
    }
    panicIf(plan.srcs.size() > UINT8_MAX, "planUop: too many sources for ",
            inst.variant->name());
    for (const OpRef &w : spec.writes) {
        const auto i = static_cast<size_t>(w.index);
        switch (w.kind) {
          case OpRef::Kind::Operand: {
            const OperandSpec &op = inst.variant->operand(i);
            if (op.kind == OpKind::Flags) {
                int bits = 0;
                for (isa::ArchUnit u : op.flags_written.units())
                    bits |= 1 << (u - isa::kUnitFlagCf);
                plan.dsts.push_back({Kind::Flags, false, bits});
                break;
            }
            panicIf(op.kind != OpKind::Reg,
                    "planUop: unexpected operand kind for ",
                    inst.variant->name());
            plan.dsts.push_back(
                {Kind::Unit, false, isa::regUnit(inst.regOf(i))});
            break;
          }
          case OpRef::Kind::MemData:
            plan.dsts.push_back({Kind::Mem, false, inst.ops[i].mem.tag});
            break;
          case OpRef::Kind::Temp:
            plan.dsts.push_back(temp(w.index));
            break;
          case OpRef::Kind::MemAddr:
            panic("planUop: a µop cannot write an address");
        }
    }
    return plan;
}

bool
DecodedKernel::canFuse(const InstrInstance &prod,
                       const InstrInstance &branch) const
{
    if (!info_.fuses_cmp_jcc)
        return false;
    const isa::InstrVariant &pv = *prod.variant;
    const isa::InstrVariant &bv = *branch.variant;
    if (!bv.attrs().is_branch || bv.attrs().is_cf_reg)
        return false;
    int bf = bv.flagsOperand();
    if (bf < 0 ||
        !bv.operand(static_cast<size_t>(bf)).flags_read.any())
        return false;
    if (pv.memOperand() >= 0)
        return false;
    int pf = pv.flagsOperand();
    if (pf < 0)
        return false;
    const OperandSpec &flags = pv.operand(static_cast<size_t>(pf));
    if (!flags.flags_written.any() || flags.flags_read.any())
        return false;
    // Zero idioms are handled at rename, never fused.
    if (uarch::TimingDb::sameRegOperands(prod) &&
        timing_.timing(pv).dep_breaking_same_reg)
        return false;
    if (timing_.uopsFor(prod).size() != 1)
        return false;
    const std::string &m = pv.mnemonic();
    if (m == "CMP" || m == "TEST")
        return true;
    bool alu_like = m == "ADD" || m == "SUB" || m == "AND" ||
                    m == "INC" || m == "DEC";
    return alu_like && info_.fuses_alu_jcc;
}

const UopSpec *
DecodedKernel::fusedSpec(const InstrInstance &prod,
                         const InstrInstance &branch)
{
    if (!canFuse(prod, branch))
        return nullptr;
    const UopSpec &prod_uop = timing_.uopsFor(prod).front();
    const UopSpec &branch_uop = timing_.uopsFor(branch).front();

    auto spec = std::make_unique<UopSpec>(prod_uop);
    spec->ports = branch_uop.ports; // executes on the branch unit
    spec->latency = 1;
    spec->domain = Domain::Gpr;
    fused_specs_.push_back(std::move(spec));
    return fused_specs_.back().get();
}

} // namespace uops::sim
