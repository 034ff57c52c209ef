#include "codegen.h"

#include <algorithm>

#include "support/status.h"

namespace uops::core {

using isa::InstrInstance;
using isa::InstrVariant;
using isa::Kernel;
using isa::MemLoc;
using isa::OperandSpec;
using isa::OperandValue;
using isa::OpKind;
using isa::Reg;
using isa::RegClass;

RegPool::RegPool(Zone zone) : zone_(zone)
{
    next_mem_tag_ = zone == Zone::Analyzed ? 1000 : 2000;
}

std::span<const int>
RegPool::candidates(RegClass cls, bool src) const
{
    // Reserved everywhere: RSP(4), RBP(5) (stack), R14/R15 (harness
    // reserved registers, Section 6.2), XMM0 (implicit blend mask).
    // RAX/RCX/RDX are allowed as destinations but excluded dynamically
    // when a variant pins them as implicit operands.
    static constexpr int kGprDst[] = {0, 1, 2, 3};
    static constexpr int kGprSrc[] = {6, 7};
    static constexpr int kGprFillerDst[] = {8, 9, 10, 11};
    static constexpr int kGprFillerSrc[] = {12, 13};
    static constexpr int kGpr8HighDst[] = {0, 1};
    static constexpr int kGpr8HighSrc[] = {2, 3};
    static constexpr int kMmxDst[] = {0, 1, 2};
    static constexpr int kMmxSrc[] = {3};
    static constexpr int kMmxFillerDst[] = {4, 5, 6};
    static constexpr int kMmxFillerSrc[] = {7};
    static constexpr int kVecDst[] = {1, 2, 3, 4};
    static constexpr int kVecSrc[] = {5, 6, 7};
    static constexpr int kVecFillerDst[] = {8, 9, 10, 11};
    static constexpr int kVecFillerSrc[] = {12, 13, 14, 15};
    const bool analyzed = zone_ == Zone::Analyzed;
    switch (cls) {
      case RegClass::Gpr8:
      case RegClass::Gpr16:
      case RegClass::Gpr32:
      case RegClass::Gpr64:
        if (analyzed)
            return src ? std::span<const int>(kGprSrc) : kGprDst;
        return src ? std::span<const int>(kGprFillerSrc) : kGprFillerDst;
      case RegClass::Gpr8High:
        return src ? std::span<const int>(kGpr8HighSrc) : kGpr8HighDst;
      case RegClass::Mmx:
        if (analyzed)
            return src ? std::span<const int>(kMmxSrc) : kMmxDst;
        return src ? std::span<const int>(kMmxFillerSrc) : kMmxFillerDst;
      case RegClass::Xmm:
      case RegClass::Ymm:
        if (analyzed)
            return src ? std::span<const int>(kVecSrc) : kVecDst;
        return src ? std::span<const int>(kVecFillerSrc) : kVecFillerDst;
      case RegClass::None:
        break;
    }
    return {};
}

isa::Reg
RegPool::pick(RegClass cls, bool src)
{
    std::span<const int> cand = candidates(cls, src);
    if (cand.empty())
        panic("RegPool: no candidates for class ", isa::regClassName(cls));
    size_t &cur = cursor_[static_cast<int>(cls) * 2 + (src ? 1 : 0)];
    for (size_t tries = 0; tries < cand.size(); ++tries) {
        int idx = cand[cur % cand.size()];
        ++cur;
        Reg reg{cls, idx};
        bool bad = false;
        for (const Reg &ex : excluded_)
            if (isa::regUnit(ex) == isa::regUnit(reg))
                bad = true;
        if (!bad)
            return reg;
    }
    // Everything excluded: fall back to the first candidate.
    return Reg{cls, cand.front()};
}

isa::Reg
RegPool::next(RegClass cls)
{
    return pick(cls, false);
}

isa::Reg
RegPool::nextSrc(RegClass cls)
{
    return pick(cls, true);
}

void
RegPool::exclude(const Reg &reg)
{
    // makeIndependent excludes a variant's fixed registers per built
    // instance; keep each once so the list stays short.
    if (std::find(excluded_.begin(), excluded_.end(), reg) ==
        excluded_.end())
        excluded_.push_back(reg);
}

MemLoc
RegPool::nextMem(RegClass base_class)
{
    // Base (address) registers are pure sources: never written.
    if (!mem_base_)
        mem_base_ = nextSrc(base_class);
    MemLoc loc;
    loc.base = *mem_base_;
    loc.tag = next_mem_tag_++;
    return loc;
}

InstrInstance
makeIndependent(const InstrVariant &variant, RegPool &pool,
                isa::DivValueClass div_class)
{
    // Exclude implicit fixed registers so explicit operands never
    // alias them.
    for (const OperandSpec &op : variant.operands())
        if (op.kind == OpKind::Reg && op.fixed_reg >= 0)
            pool.exclude(Reg{op.reg_class, op.fixed_reg});

    const std::vector<int> &expl = variant.explicitOperands();
    std::vector<OperandValue> values;
    values.reserve(expl.size());
    for (int idx : expl) {
        const OperandSpec &op = variant.operand(idx);
        OperandValue val;
        switch (op.kind) {
          case OpKind::Reg:
            // Written registers rotate over the destination sub-pool
            // (WAW only, renamed away); pure sources come from the
            // never-written sub-pool so sequences stay independent.
            val.reg = op.written ? pool.next(op.reg_class)
                                 : pool.nextSrc(op.reg_class);
            break;
          case OpKind::Mem:
            val.mem = pool.nextMem();
            break;
          case OpKind::Imm:
            val.imm = 1;
            break;
          case OpKind::Flags:
            break;
        }
        values.push_back(val);
    }
    InstrInstance inst =
        isa::makeInstance(variant, values, pool.nextMem());
    if (variant.attrs().uses_divider &&
        div_class == isa::DivValueClass::None)
        inst.div_class = isa::DivValueClass::Fast;
    else
        inst.div_class = div_class;
    return inst;
}

Kernel
independentSequence(const InstrVariant &variant, RegPool &pool, int count,
                    isa::DivValueClass div_class)
{
    Kernel out;
    out.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i)
        out.push_back(makeIndependent(variant, pool, div_class));
    return out;
}

namespace {

/** Self-chain latency: the instruction chained on one register. */
double
selfChain(const sim::MeasurementHarness &harness, const InstrVariant *v,
          const std::vector<OperandValue> &values)
{
    if (v == nullptr)
        return 1.0;
    Kernel body = {isa::makeInstance(*v, values)};
    return harness.measure(body).cycles;
}

} // namespace

ChainInstruments
calibrateInstruments(const sim::MeasurementHarness &harness)
{
    const isa::InstrDb &db = harness.timingDb().instrDb();
    const uarch::UArchInfo &info = harness.info();
    ChainInstruments ci;

    auto get = [&](const char *name) { return db.byName(name); };

    ci.movsx_r64_r8 = get("MOVSX_R64_R8");
    ci.movsx_r64_r16 = get("MOVSX_R64_R16");
    ci.movsx_r64_r32 = get("MOVSX_R64_R32");
    ci.test_r64 = get("TEST_R64_R64");
    ci.cmovb_r64 = get("CMOVB_R64_R64");
    ci.cmovs_r64 = get("CMOVS_R64_R64");
    ci.cmovnz_r64 = get("CMOVNZ_R64_R64");
    ci.pshufd = get("PSHUFD_X_X_I8");
    ci.shufps = get("SHUFPS_X_X_I8");
    ci.pshufw_mm = get("PSHUFW_MM_MM_I8");
    ci.xor_r64 = get("XOR_R64_R64");
    ci.mov_load_r64 = get("MOV_R64_M64");
    ci.and_r64 = get("AND_R64_R64");
    ci.or_r64 = get("OR_R64_R64");
    ci.andps = get("ANDPS_X_X");
    ci.orps = get("ORPS_X_X");
    ci.movq2dq = get("MOVQ2DQ_X_MM");
    ci.movdq2q = get("MOVDQ2Q_MM_X");
    if (info.hasExtension(isa::Extension::Avx)) {
        ci.vpermilps_x = get("VPERMILPS_X_X_I8");
        ci.vpermilps_y = get("VPERMILPS_Y_Y_I8");
    }
    if (info.hasExtension(isa::Extension::Avx2)) {
        ci.vpshufd_x = get("VPSHUFD_X_X_I8");
        ci.vpshufd_y = get("VPSHUFD_Y_Y_I8");
    }

    for (const char *name :
         {"MOVD_R32_X", "MOVQ_R64_X", "MOVD_R32_MM", "MOVQ_R64_MM"}) {
        if (const auto *v = get(name))
            ci.to_gpr.push_back(v);
    }
    for (const char *name :
         {"MOVD_X_R32", "MOVQ_X_R64", "MOVD_MM_R32", "MOVQ_MM_R64"}) {
        if (const auto *v = get(name))
            ci.from_gpr.push_back(v);
    }

    // --- calibration ---
    Reg r3{RegClass::Gpr64, 3};
    Reg r3_32{RegClass::Gpr32, 3};
    Reg x1{RegClass::Xmm, 1};

    // MOVSX self-chain: MOVSX RBX, EBX.
    ci.movsx_lat = selfChain(harness, ci.movsx_r64_r32,
                             {{.reg = r3}, {.reg = r3_32}});

    // Integer / fp shuffle self-chains: PSHUFD X1, X1, 0.
    ci.int_shuffle_lat = selfChain(
        harness, ci.pshufd, {{.reg = x1}, {.reg = x1}, {.imm = 0}});
    ci.fp_shuffle_lat = selfChain(
        harness, ci.shufps, {{.reg = x1}, {.reg = x1}, {.imm = 0}});

    // Pointer chase: MOV RBX, [RBX].
    {
        Kernel body = {isa::makeInstance(
            *ci.mov_load_r64,
            {{.reg = r3}, {.mem = MemLoc{7, r3}}})};
        ci.load_lat = harness.measure(body).cycles;
    }

    // XOR latency: self-chain XOR RBX, RBX would be a zero idiom;
    // use XOR RBX, RSI (chained on RBX) instead.
    {
        Reg rsi{RegClass::Gpr64, 6};
        Kernel body = {isa::makeInstance(*ci.xor_r64,
                                         {{.reg = r3}, {.reg = rsi}})};
        ci.xor_lat = harness.measure(body).cycles;
    }

    // TEST is assumed 1 cycle; CMOV calibrated via TEST+CMOV loop:
    // TEST RBX, RBX ; CMOVcc RBX, RSI  ->  test_lat + cmov_lat.
    ci.test_lat = 1.0;
    auto cmov_cal = [&](const InstrVariant *cmov) {
        if (cmov == nullptr || ci.test_r64 == nullptr)
            return 1.0;
        Reg rsi{RegClass::Gpr64, 6};
        Kernel body = {
            isa::makeInstance(*ci.test_r64, {{.reg = r3}, {.reg = r3}}),
            isa::makeInstance(*cmov, {{.reg = r3}, {.reg = rsi}}),
        };
        double round = harness.measure(body).cycles;
        return std::max(1.0, round - ci.test_lat);
    };
    ci.cmovb_lat = cmov_cal(ci.cmovb_r64);
    ci.cmovs_lat = cmov_cal(ci.cmovs_r64);
    ci.cmovnz_lat = cmov_cal(ci.cmovnz_r64);

    // AND+OR divider-pinning pair: AND RBX, R8 ; OR RBX, R8.
    {
        Reg r8{RegClass::Gpr64, 8};
        Kernel body = {
            isa::makeInstance(*ci.and_r64, {{.reg = r3}, {.reg = r8}}),
            isa::makeInstance(*ci.or_r64, {{.reg = r3}, {.reg = r8}}),
        };
        ci.and_or_lat = harness.measure(body).cycles;
    }

    return ci;
}

} // namespace uops::core
