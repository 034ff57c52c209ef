#include "latency.h"

#include <algorithm>
#include <cmath>

#include "support/stats.h"
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

namespace {

/** Coarse operand storage classes for chain selection. */
enum class Storage { Gpr, Vec, Mmx, Flags, Mem };

Storage
storageOf(const OperandSpec &op)
{
    switch (op.kind) {
      case OpKind::Mem:
        return Storage::Mem;
      case OpKind::Flags:
        return Storage::Flags;
      case OpKind::Imm:
        panic("storageOf: immediate");
      case OpKind::Reg:
        if (isa::isGprClass(op.reg_class))
            return Storage::Gpr;
        if (op.reg_class == RegClass::Mmx)
            return Storage::Mmx;
        return Storage::Vec;
    }
    panic("storageOf: unreachable");
}

/** 32-bit view of a GPR unit (for MOV-imm dependency breakers). */
Reg
gpr32View(const Reg &reg)
{
    return Reg{RegClass::Gpr32, reg.index};
}

/** 64-bit view of a GPR unit. */
Reg
gpr64View(const Reg &reg)
{
    return Reg{RegClass::Gpr64, reg.index};
}

} // namespace

std::string
LatencyPair::toString(const InstrVariant &v) const
{
    std::string src = src_op >= 0 ? v.operand(src_op).typeTag() : "?";
    std::string dst = dst_op >= 0 ? v.operand(dst_op).typeTag() : "?";
    std::string out = "lat(" + src + "->" + dst + ")=" + cycles.str();
    if (upper_bound)
        out = "<=" + out;
    return out;
}

int
LatencyResult::maxLatency() const
{
    Cycles max_lat = Cycles::fromHundredths(100);
    for (const auto &p : pairs) {
        max_lat = std::max(max_lat, p.cycles);
        if (p.slow_cycles)
            max_lat = std::max(max_lat, *p.slow_cycles);
    }
    if (store_roundtrip)
        max_lat = std::max(max_lat, *store_roundtrip);
    return max_lat.ceil();
}

const LatencyPair *
LatencyResult::pair(int src_op, int dst_op) const
{
    for (const auto &p : pairs)
        if (p.src_op == src_op && p.dst_op == dst_op)
            return &p;
    return nullptr;
}

LatencyAnalyzer::LatencyAnalyzer(const sim::MeasurementHarness &harness,
                                 const ChainInstruments &instruments)
    : harness_(harness), ci_(instruments)
{
}

namespace {

/** One candidate chain: instrument kernel suffix + known latency. */
struct ChainPlan
{
    std::string name;
    Kernel suffix;       ///< chain instruments (after I)
    double chain_lat;    ///< known latency to subtract
    bool upper_bound = false;
};

/**
 * Builds the benchmark bodies for one instruction's latency pairs.
 * Holds the concrete instance of I and the filler registers shared by
 * all measurements of this variant.
 */
class ChainBuilder
{
  public:
    ChainBuilder(const sim::MeasurementHarness &harness,
                 const ChainInstruments &ci, const InstrVariant &v)
        : harness_(harness), ci_(ci), v_(v),
          pool_(RegPool::Zone::Analyzed),
          filler_(RegPool::Zone::Filler)
    {
        inst_ = makeIndependent(v, pool_);
        filler_reg_ = filler_.nextSrc(RegClass::Gpr64); // never written
        chain_tmp_ = filler_.next(RegClass::Gpr64);
    }

    const InstrInstance &instance() const { return inst_; }

    /** Register bound to operand @p idx. */
    Reg reg(int idx) const { return inst_.regOf(static_cast<size_t>(idx)); }

    bool
    isAvx() const
    {
        return v_.attrs().is_avx;
    }

    // ---- instrument instance helpers ----
    InstrInstance
    movsxInto(const Reg &dst_unit, const Reg &src_reg) const
    {
        // MOVSX (64-bit view of dst_unit) <- (view of src_reg).
        const InstrVariant *variant = nullptr;
        Reg src = src_reg;
        switch (isa::regClassWidth(src_reg.cls)) {
          case 8:
            variant = ci_.movsx_r64_r8;
            break;
          case 16:
            variant = ci_.movsx_r64_r16;
            break;
          default:
            variant = ci_.movsx_r64_r32;
            src = gpr32View(src_reg);
            break;
        }
        panicIf(variant == nullptr, "MOVSX instrument missing");
        return isa::makeInstance(
            *variant, {{.reg = gpr64View(dst_unit)}, {.reg = src}});
    }

    InstrInstance
    testFlags(const Reg &src_reg) const
    {
        Reg r = gpr64View(src_reg);
        return isa::makeInstance(*ci_.test_r64, {{.reg = r}, {.reg = r}});
    }

    /** CMOV reading a flag group written by I; returns nullopt when no
     *  suitable instrument exists. */
    std::optional<std::pair<InstrInstance, double>>
    cmovFromFlags(const isa::FlagMask &written, const Reg &dst) const
    {
        const InstrVariant *variant = nullptr;
        double lat = 1.0;
        if (written.cf && ci_.cmovb_r64) {
            variant = ci_.cmovb_r64;
            lat = ci_.cmovb_lat;
        } else if (written.spazo && ci_.cmovs_r64) {
            variant = ci_.cmovs_r64;
            lat = ci_.cmovs_lat;
        }
        if (variant == nullptr)
            return std::nullopt;
        return std::make_pair(
            isa::makeInstance(*variant, {{.reg = gpr64View(dst)},
                                         {.reg = gpr64View(filler_reg_)}}),
            lat);
    }

    /** Vector shuffle instruments matching @p avx / int-or-fp. */
    std::vector<std::pair<const InstrVariant *, std::pair<std::string,
                                                          double>>>
    vecShuffles() const
    {
        std::vector<
            std::pair<const InstrVariant *, std::pair<std::string, double>>>
            out;
        if (isAvx()) {
            if (ci_.vpshufd_x)
                out.push_back({ci_.vpshufd_x,
                               {"VPSHUFD", ci_.int_shuffle_lat}});
            if (ci_.vpermilps_x)
                out.push_back({ci_.vpermilps_x,
                               {"VPERMILPS", ci_.fp_shuffle_lat}});
        } else {
            if (ci_.pshufd)
                out.push_back(
                    {ci_.pshufd, {"PSHUFD", ci_.int_shuffle_lat}});
            if (ci_.shufps)
                out.push_back(
                    {ci_.shufps, {"SHUFPS", ci_.fp_shuffle_lat}});
        }
        return out;
    }

    /** Instance of a 2-operand+imm shuffle writing dst from src. */
    InstrInstance
    shuffleInto(const InstrVariant &variant, const Reg &dst,
                const Reg &src) const
    {
        Reg d = dst, s = src;
        // Adapt the register class to the instrument's operand class.
        const auto &expl = variant.explicitOperands();
        d.cls = variant.operand(expl[0]).reg_class;
        bool has_imm = false;
        for (int e : expl)
            if (variant.operand(e).kind == OpKind::Imm)
                has_imm = true;
        s.cls = variant.operand(expl[1]).reg_class;
        if (has_imm)
            return isa::makeInstance(variant,
                                     {{.reg = d}, {.reg = s}, {.imm = 0}});
        return isa::makeInstance(variant, {{.reg = d}, {.reg = s}});
    }

    // ---- dependency breakers ----
    /** Breaker writing (without reading) the storage of operand @p idx. */
    std::optional<InstrInstance>
    breakerFor(int idx) const
    {
        const isa::InstrDb &db = harness_.timingDb().instrDb();
        const OperandSpec &op = v_.operand(static_cast<size_t>(idx));
        switch (storageOf(op)) {
          case Storage::Gpr: {
            const InstrVariant *mov = db.byName("MOV_R32_I32");
            panicIf(mov == nullptr, "MOV_R32_I32 missing");
            return isa::makeInstance(
                *mov, {{.reg = gpr32View(reg(idx))}, {.imm = 7}});
          }
          case Storage::Flags: {
            return testFlags(filler_reg_);
          }
          case Storage::Vec: {
            Reg r = reg(idx);
            r.cls = RegClass::Xmm;
            if (isAvx()) {
                const InstrVariant *vpxor = db.byName("VPXOR_X_X_X");
                if (vpxor)
                    return isa::makeInstance(
                        *vpxor, {{.reg = r}, {.reg = r}, {.reg = r}});
            }
            const InstrVariant *pxor = db.byName("PXOR_X_X");
            panicIf(pxor == nullptr, "PXOR_X_X missing");
            return isa::makeInstance(*pxor, {{.reg = r}, {.reg = r}});
          }
          case Storage::Mmx: {
            const InstrVariant *movd = db.byName("MOVD_MM_R32");
            if (movd == nullptr)
                return std::nullopt;
            return isa::makeInstance(
                *movd,
                {{.reg = reg(idx)}, {.reg = gpr32View(filler_reg_)}});
          }
          case Storage::Mem:
            return std::nullopt; // memory self-deps are part of 5.2.4
        }
        return std::nullopt;
    }

    /**
     * Breakers for all read-written storages except the pair's own
     * src/dst (the chain handles those).
     */
    Kernel
    breakers(int src_idx, int dst_idx, bool break_dst) const
    {
        Kernel out;
        for (size_t i = 0; i < v_.numOperands(); ++i) {
            const OperandSpec &op = v_.operand(i);
            bool rw = op.readWritten() ||
                      (op.kind == OpKind::Flags &&
                       op.flags_read.any() && op.flags_written.any());
            if (!rw)
                continue;
            int idx = static_cast<int>(i);
            if (idx == src_idx)
                continue; // the chain's final write breaks this loop
            if (idx == dst_idx && !break_dst)
                continue;
            if (auto b = breakerFor(idx))
                out.push_back(std::move(*b));
        }
        return out;
    }

    const sim::MeasurementHarness &harness_;
    const ChainInstruments &ci_;
    const InstrVariant &v_;
    RegPool pool_;
    RegPool filler_;
    InstrInstance inst_;
    Reg filler_reg_;  ///< ready scratch register (never written)
    Reg chain_tmp_;   ///< scratch for multi-step chains
};

} // namespace

LatencyResult
LatencyAnalyzer::analyze(const InstrVariant &variant) const
{
    LatencyResult result;
    ChainBuilder b(harness_, ci_, variant);
    const InstrInstance &inst = b.instance();

    auto measure_plan = [&](const ChainPlan &plan)
        -> std::optional<double> {
        Kernel body;
        body.push_back(inst);
        body.insert(body.end(), plan.suffix.begin(), plan.suffix.end());
        double cycles = harness_.measure(body).cycles;
        double lat = cycles - plan.chain_lat;
        if (plan.upper_bound)
            lat -= 1.0; // unknown instrument contributes >= 1 cycle
        if (lat < 0.01)
            return std::nullopt;
        return lat;
    };

    auto div_instance = [&](isa::DivValueClass cls) {
        InstrInstance copy = inst;
        copy.div_class = cls;
        return copy;
    };

    // --------------------------------------------------------------
    // Enumerate operand pairs.
    // --------------------------------------------------------------
    for (int s : variant.sourceOperands()) {
        const OperandSpec &src_op = variant.operand(s);
        if (src_op.kind == OpKind::Imm)
            continue;
        for (int d : variant.destOperands()) {
            const OperandSpec &dst_op = variant.operand(d);

            // ---- register/flags -> memory: 5.2.4 round trip ----
            if (dst_op.kind == OpKind::Mem) {
                if (result.store_roundtrip || src_op.kind == OpKind::Mem ||
                    src_op.kind == OpKind::Flags)
                    continue;
                const isa::InstrDb &db = harness_.timingDb().instrDb();
                const InstrVariant *load = nullptr;
                Storage st = storageOf(src_op);
                if (st == Storage::Gpr)
                    load = db.byName("MOV_R64_M64");
                else if (st == Storage::Vec)
                    load = db.byName(b.isAvx() ? "VMOVAPS_Y_M256"
                                               : "MOVDQA_X_M128");
                else if (st == Storage::Mmx)
                    load = db.byName("MOVQ_MM_M64");
                if (load == nullptr)
                    continue;
                // Load from I's store location back into I's source.
                MemLoc loc = inst.ops[static_cast<size_t>(d)].mem;
                Reg dst_reg = b.reg(s);
                const auto &expl = load->explicitOperands();
                dst_reg.cls = load->operand(expl[0]).reg_class;
                Kernel body;
                body.push_back(inst);
                body.push_back(isa::makeInstance(
                    *load, {{.reg = dst_reg}, {.mem = loc}}));
                Kernel brk = b.breakers(s, d, false);
                body.insert(body.end(), brk.begin(), brk.end());
                result.store_roundtrip =
                    roundCycles(harness_.measure(body).cycles);
                continue;
            }

            LatencyPair pair;
            pair.src_op = s;
            pair.dst_op = d;

            Storage ss = src_op.kind == OpKind::Mem
                             ? Storage::Mem
                             : storageOf(src_op);
            Storage ds = storageOf(dst_op);

            // Read-modify-write memory operands carry a loop through
            // the store buffer that no dependency breaker can cut
            // (Section 5.2.4); every measured pair of such a variant
            // is therefore only an upper bound.
            bool mem_rmw = false;
            for (const auto &op : variant.operands())
                if (op.kind == OpKind::Mem && op.readWritten())
                    mem_rmw = true;

            // ---- divider instructions (5.2.5) ----
            if (variant.attrs().uses_divider) {
                if (s != d || dst_op.kind != OpKind::Reg)
                    continue; // only the read-write register pair
                const isa::InstrDb &db = harness_.timingDb().instrDb();
                Reg r = b.reg(d);
                Kernel pin;
                if (isa::isGprClass(r.cls)) {
                    Reg r64 = gpr64View(r);
                    Reg pinr{RegClass::Gpr64, 8};
                    pin.push_back(isa::makeInstance(
                        *db.byName("AND_R64_R64"),
                        {{.reg = r64}, {.reg = pinr}}));
                    pin.push_back(isa::makeInstance(
                        *db.byName("OR_R64_R64"),
                        {{.reg = r64}, {.reg = pinr}}));
                } else {
                    Reg x = r;
                    x.cls = RegClass::Xmm;
                    Reg pinx{RegClass::Xmm, 8};
                    pin.push_back(isa::makeInstance(
                        *db.byName("ANDPS_X_X"),
                        {{.reg = x}, {.reg = pinx}}));
                    pin.push_back(isa::makeInstance(
                        *db.byName("ORPS_X_X"),
                        {{.reg = x}, {.reg = pinx}}));
                }
                auto run_div = [&](isa::DivValueClass cls) {
                    Kernel body;
                    body.push_back(div_instance(cls));
                    body.insert(body.end(), pin.begin(), pin.end());
                    Kernel brk = b.breakers(s, d, false);
                    body.insert(body.end(), brk.begin(), brk.end());
                    return harness_.measure(body).cycles -
                           ci_.and_or_lat;
                };
                pair.cycles =
                    roundCycles(run_div(isa::DivValueClass::Fast));
                pair.slow_cycles =
                    roundCycles(run_div(isa::DivValueClass::Slow));
                result.pairs.push_back(pair);
                continue;
            }

            // ---- build chain plans for the pair ----
            std::vector<ChainPlan> plans;

            if (ss == Storage::Mem) {
                // 5.2.2: address dependency via double XOR.
                MemLoc loc = inst.ops[static_cast<size_t>(s)].mem;
                Reg ra = loc.base;
                auto double_xor = [&](const Reg &from, Kernel &k) {
                    Reg f64 = gpr64View(from);
                    k.push_back(isa::makeInstance(
                        *ci_.xor_r64,
                        {{.reg = gpr64View(ra)}, {.reg = f64}}));
                    k.push_back(isa::makeInstance(
                        *ci_.xor_r64,
                        {{.reg = gpr64View(ra)}, {.reg = f64}}));
                };
                if (ds == Storage::Gpr) {
                    ChainPlan plan;
                    plan.name = "double-xor";
                    Reg dreg = b.reg(d);
                    double lat = 2.0 * ci_.xor_lat;
                    if (isa::regClassWidth(dreg.cls) < 32) {
                        plan.suffix.push_back(b.movsxInto(dreg, dreg));
                        dreg = gpr64View(dreg);
                        lat += ci_.movsx_lat;
                    }
                    double_xor(dreg, plan.suffix);
                    plan.chain_lat = lat;
                    plans.push_back(std::move(plan));
                } else if (ds == Storage::Vec || ds == Storage::Mmx) {
                    for (const InstrVariant *tg : ci_.to_gpr) {
                        const auto &expl = tg->explicitOperands();
                        RegClass src_cls =
                            tg->operand(expl[1]).reg_class;
                        bool mmx = src_cls == RegClass::Mmx;
                        if (mmx != (ds == Storage::Mmx))
                            continue;
                        ChainPlan plan;
                        plan.name = "xor+" + tg->name();
                        Reg vreg = b.reg(d);
                        vreg.cls = src_cls;
                        Reg t = b.chain_tmp_;
                        t.cls = tg->operand(expl[0]).reg_class;
                        plan.suffix.push_back(isa::makeInstance(
                            *tg, {{.reg = t}, {.reg = vreg}}));
                        double_xor(b.chain_tmp_, plan.suffix);
                        plan.chain_lat = 2.0 * ci_.xor_lat;
                        plan.upper_bound = true;
                        plans.push_back(std::move(plan));
                    }
                } else if (ds == Storage::Flags) {
                    if (auto cm = b.cmovFromFlags(dst_op.flags_written,
                                                  b.chain_tmp_)) {
                        ChainPlan plan;
                        plan.name = "xor+cmov";
                        plan.suffix.push_back(cm->first);
                        double_xor(b.chain_tmp_, plan.suffix);
                        plan.chain_lat = cm->second + 2.0 * ci_.xor_lat;
                        plans.push_back(std::move(plan));
                    }
                }
            } else if (s == d) {
                // Self pair: direct loop, no chain instrument.
                ChainPlan plan;
                plan.name = "self";
                plan.chain_lat = 0.0;
                plans.push_back(std::move(plan));
            } else if (ss == Storage::Flags && ds == Storage::Gpr) {
                // 5.2.3 inverse: dst(reg) -> flags via TEST.
                ChainPlan plan;
                plan.name = "test";
                plan.suffix.push_back(b.testFlags(b.reg(d)));
                plan.chain_lat = ci_.test_lat;
                plans.push_back(std::move(plan));
            } else if (ss == Storage::Gpr && ds == Storage::Flags) {
                // flags -> reg via CMOVcc reading what I writes.
                if (auto cm = b.cmovFromFlags(dst_op.flags_written,
                                              b.chain_tmp_)) {
                    ChainPlan plan;
                    plan.name = "cmov+movsx";
                    plan.suffix.push_back(cm->first);
                    plan.suffix.push_back(
                        b.movsxInto(b.reg(s), gpr64View(b.chain_tmp_)));
                    plan.chain_lat = cm->second + ci_.movsx_lat;
                    plans.push_back(std::move(plan));
                }
            } else if (ss == Storage::Flags && ds == Storage::Flags) {
                ChainPlan plan;
                plan.name = "self";
                plan.chain_lat = 0.0;
                plans.push_back(std::move(plan));
            } else if (ss == Storage::Gpr && ds == Storage::Gpr) {
                ChainPlan plan;
                plan.name = "movsx";
                plan.suffix.push_back(b.movsxInto(b.reg(s), b.reg(d)));
                plan.chain_lat = ci_.movsx_lat;
                plans.push_back(std::move(plan));
            } else if ((ss == Storage::Vec && ds == Storage::Vec) ||
                       (ss == Storage::Mmx && ds == Storage::Mmx)) {
                if (ss == Storage::Mmx) {
                    if (ci_.pshufw_mm) {
                        ChainPlan plan;
                        plan.name = "PSHUFW";
                        plan.suffix.push_back(b.shuffleInto(
                            *ci_.pshufw_mm, b.reg(s), b.reg(d)));
                        plan.chain_lat = ci_.int_shuffle_lat;
                        plans.push_back(std::move(plan));
                    }
                } else {
                    for (const auto &[shuf, info] : b.vecShuffles()) {
                        ChainPlan plan;
                        plan.name = info.first;
                        plan.suffix.push_back(
                            b.shuffleInto(*shuf, b.reg(s), b.reg(d)));
                        plan.chain_lat = info.second;
                        plans.push_back(std::move(plan));
                    }
                }
            } else {
                // Cross-class register pairs: compositions with the
                // transfer instruments (upper bounds).
                auto add_transfer = [&](const InstrVariant *tv) {
                    const auto &expl = tv->explicitOperands();
                    RegClass dst_cls = tv->operand(expl[0]).reg_class;
                    RegClass src_cls = tv->operand(expl[1]).reg_class;
                    // The transfer must read the pair's dst storage
                    // and write the pair's src storage.
                    auto compatible = [&](Storage st, RegClass cls) {
                        if (st == Storage::Gpr)
                            return isa::isGprClass(cls);
                        if (st == Storage::Mmx)
                            return cls == RegClass::Mmx;
                        if (st == Storage::Vec)
                            return isa::isVecClass(cls);
                        return false;
                    };
                    if (!compatible(ds, src_cls) ||
                        !compatible(ss, dst_cls))
                        return;
                    ChainPlan plan;
                    plan.name = tv->name();
                    Reg dst_reg = b.reg(s);
                    dst_reg.cls = dst_cls;
                    Reg src_reg = b.reg(d);
                    src_reg.cls = src_cls;
                    plan.suffix.push_back(isa::makeInstance(
                        *tv, {{.reg = dst_reg}, {.reg = src_reg}}));
                    plan.chain_lat = 0.0;
                    plan.upper_bound = true;
                    plans.push_back(std::move(plan));
                };
                for (const InstrVariant *tv : ci_.to_gpr)
                    add_transfer(tv);
                for (const InstrVariant *tv : ci_.from_gpr)
                    add_transfer(tv);
                if (ci_.movq2dq)
                    add_transfer(ci_.movq2dq);
                if (ci_.movdq2q)
                    add_transfer(ci_.movdq2q);
            }

            // ---- measure all plans, keep the best ----
            // Selection runs on the raw chain-adjusted doubles; only
            // the winner is rounded into the canonical result.
            bool have = false;
            double best_cycles = 0.0;
            for (const ChainPlan &base_plan : plans) {
                ChainPlan plan = base_plan;
                // Break the dst self-loop when I reads its destination
                // and the chain does not overwrite it.
                bool dst_read = dst_op.read ||
                                (dst_op.kind == OpKind::Flags &&
                                 dst_op.flags_read.any());
                bool chain_overwrites_dst = false; // chains write src
                Kernel brk = b.breakers(
                    s, d, dst_read && !chain_overwrites_dst && s != d);
                plan.suffix.insert(plan.suffix.end(), brk.begin(),
                                   brk.end());
                auto lat = measure_plan(plan);
                if (!lat)
                    continue;
                pair.per_chain[plan.name] = *lat;
                if (!have || *lat < best_cycles) {
                    best_cycles = *lat;
                    pair.upper_bound = plan.upper_bound || mem_rmw;
                }
                have = true;
            }
            if (have) {
                pair.cycles = roundCycles(best_cycles);
                result.pairs.push_back(std::move(pair));
            }
        }
    }

    // ------------------------------------------------------------------
    // Same-register microbenchmark (5.2.1).
    // ------------------------------------------------------------------
    {
        const auto &expl = variant.explicitOperands();
        if (expl.size() >= 2) {
            const OperandSpec &a = variant.operand(expl[0]);
            const OperandSpec &c = variant.operand(expl[1]);
            if (a.kind == OpKind::Reg && c.kind == OpKind::Reg &&
                a.reg_class == c.reg_class &&
                !variant.attrs().uses_divider) {
                RegPool pool(RegPool::Zone::Analyzed);
                Reg shared = pool.next(a.reg_class);
                std::vector<OperandValue> values;
                for (int e : expl) {
                    const OperandSpec &op =
                        variant.operand(static_cast<size_t>(e));
                    OperandValue val;
                    if (op.kind == OpKind::Reg)
                        val.reg = op.reg_class == a.reg_class
                                      ? shared
                                      : pool.next(op.reg_class);
                    else if (op.kind == OpKind::Mem)
                        val.mem = pool.nextMem();
                    else
                        val.imm = 1;
                    values.push_back(val);
                }
                Kernel body = {isa::makeInstance(variant, values,
                                                 pool.nextMem())};
                result.same_reg_cycles =
                    roundCycles(harness_.measure(body).cycles);
            }
        }
    }

    return result;
}

} // namespace uops::core
