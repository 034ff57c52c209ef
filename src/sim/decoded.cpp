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
                             const Kernel &body)
    : timing_(timing), info_(uarch::uarchInfo(timing.arch()))
{
    body_.reserve(body.size());
    for (const InstrInstance &inst : body)
        body_.push_back(decodeOne(inst));

    // Each instruction's successor in the stream, the last one's being
    // the next copy's first. Both members of a fused pair read and
    // write what the producer's µop does.
    for (size_t pos = 0; pos < body_.size(); ++pos) {
        DecodedInstr &d = body_[pos];
        d.fused = fusedSpec(*d.inst, *body_[(pos + 1) % body_.size()].inst);
        if (d.fused != nullptr)
            d.fused_plan = planUop(*d.inst, *d.fused, -1, false);
    }
}

DecodedInstr
DecodedKernel::decodeOne(const InstrInstance &inst)
{
    DecodedInstr d;
    d.inst = &inst;
    const uarch::TimingInfo &timing = timing_.timing(*inst.variant);
    d.uops = &timing_.uopsFor(inst);
    panicIf(d.uops->size() > kMaxInstrUops, "DecodedKernel: ",
            inst.variant->name(), " has more than ", kMaxInstrUops,
            " µops");
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
