#include "pipeline.h"

#include <algorithm>
#include <limits>

#include "support/small_vector.h"
#include "support/status.h"

namespace uops::sim {

using isa::InstrInstance;
using isa::Kernel;
using isa::OpKind;
using isa::OperandSpec;
using isa::Reg;
using isa::RegClass;
using uarch::Domain;
using uarch::OpRef;
using uarch::UopSpec;

namespace {

constexpr int64_t kNotReady = std::numeric_limits<int64_t>::max() / 4;

/** Move elimination succeeds for one candidate in every kMovElimPeriod
 *  (the paper's ~1/3 in dependent chains). */
constexpr uint64_t kMovElimPeriod = 3;

/** Dynamic (renamed) instance of one µop in flight. */
struct UopDyn
{
    const UopSpec *spec = nullptr; ///< nullptr for rename-eliminated.
    int32_t instr_idx = -1;
    int16_t port = -1;
    bool slow = false;
    bool dispatched = false;
    int64_t complete = -1;                ///< -1: not finished.
    SmallVector<int32_t, 4> srcs;         ///< value ids
    SmallVector<int32_t, 4> dsts;         ///< value ids, per write
};

} // namespace

/**
 * Whole-run working memory, owned by the Pipeline and reused across
 * runs. Every container is reset (not reallocated) at the start of a
 * run, so the simulated core still observes pristine power-on state
 * while steady-state runs stay allocation-free.
 */
class PipelineScratch
{
  public:
    std::vector<size_t> marker_set;

    std::vector<int64_t> value_ready;
    std::vector<uint8_t> value_domain;
    std::vector<int32_t> unit_value;
    /** Memory-location values, flat (tag, value) pairs: kernels touch
     *  a handful of distinct tags, so linear scans beat a std::map. */
    std::vector<std::pair<int, int32_t>> mem_value;
    std::vector<int32_t> temp_value;

    std::vector<UopDyn> pending_uops;
    std::vector<uint8_t> pending_rename_only;
    std::vector<UopDyn> rob;
    std::vector<std::vector<size_t>> bound;
    std::vector<size_t> bound_head;
    std::vector<int> waiting;
    std::vector<int64_t> div_busy;
    std::vector<int> instr_uops_left;
};

namespace {

/** Whole-run simulation over a decoded virtual instruction stream. */
class Core
{
  public:
    Core(const uarch::TimingDb &timing, const uarch::UArchInfo &info,
         const SimOptions &options, const DecodedKernel &decoded,
         int body_reps, const std::vector<size_t> &markers,
         PipelineScratch &s)
        : timing_(timing), info_(info), options_(options),
          decoded_(decoded), body_reps_(body_reps),
          total_(decoded.totalSize(body_reps)),
          marker_set_(s.marker_set), value_ready_(s.value_ready),
          value_domain_(s.value_domain), unit_value_(s.unit_value),
          mem_value_(s.mem_value), temp_value_(s.temp_value),
          pending_uops_(s.pending_uops),
          pending_rename_only_(s.pending_rename_only), rob_(s.rob),
          bound_(s.bound), bound_head_(s.bound_head),
          waiting_(s.waiting), div_busy_(s.div_busy),
          instr_uops_left_(s.instr_uops_left)
    {
        marker_set_.assign(markers.begin(), markers.end());
        std::sort(marker_set_.begin(), marker_set_.end());
        // Value 0: power-on state (ready, integer domain).
        value_ready_.clear();
        value_ready_.push_back(0);
        value_domain_.clear();
        value_domain_.push_back(static_cast<uint8_t>(Domain::Gpr));
        unit_value_.assign(isa::kNumArchUnits, 0);
        mem_value_.clear();
        temp_value_.clear();
        pending_uops_.clear();
        pending_rename_only_.clear();
        rob_.clear();
        bound_.resize(static_cast<size_t>(info.num_ports));
        for (auto &queue : bound_)
            queue.clear();
        bound_head_.assign(static_cast<size_t>(info.num_ports), 0);
        waiting_.assign(static_cast<size_t>(info.num_ports), 0);
        div_busy_.assign(static_cast<size_t>(info.num_ports), 0);
        // -1: not yet renamed (blocks the in-order retire cursor).
        instr_uops_left_.assign(total_, -1);
        result_.snapshots.resize(marker_set_.size());
    }

    RunResult
    run()
    {
        while (!done()) {
            ++cycle_;
            panicIf(cycle_ > options_.max_cycles,
                    "simulation exceeded max_cycles (deadlock?)");
            if (options_.cycle_budget > 0 &&
                cycle_ > options_.cycle_budget) {
                throw CycleBudgetExceeded(
                    "simulation exceeded the cycle budget (" +
                        std::to_string(options_.cycle_budget) +
                        " cycles)",
                    options_.cycle_budget);
            }
            activity_ = false;
            dispatch();
            issue();
            retire();
            if (!activity_ && options_.skip_idle)
                skipIdleCycles();
        }
        counters_.cycles = cycle_;
        result_.final = counters_;
        result_.cycles = cycle_;
        return std::move(result_);
    }

  private:
    bool
    done() const
    {
        return next_instr_ >= total_ && pendingEmpty() &&
               retire_head_ == rob_.size() && retire_cursor_ >= total_;
    }

    bool
    pendingEmpty() const
    {
        return pending_head_ == pending_uops_.size();
    }

    void
    pendingPush(UopDyn &&dyn, bool rename_only)
    {
        pending_uops_.push_back(std::move(dyn));
        pending_rename_only_.push_back(rename_only ? 1 : 0);
    }

    // ---- value table -------------------------------------------------
    int32_t
    newValue()
    {
        value_ready_.push_back(kNotReady);
        value_domain_.push_back(static_cast<uint8_t>(Domain::Gpr));
        return static_cast<int32_t>(value_ready_.size() - 1);
    }

    int64_t
    effectiveReady(int32_t value, Domain consumer) const
    {
        int64_t t = value_ready_[value];
        if (t >= kNotReady)
            return t;
        auto d = static_cast<Domain>(value_domain_[value]);
        bool cross = (d == Domain::IVec && consumer == Domain::FVec) ||
                     (d == Domain::FVec && consumer == Domain::IVec);
        if (cross)
            t += info_.bypass_delay;
        return t;
    }

    // ---- renaming ----------------------------------------------------
    /** Value id currently bound to an OpRef source. */
    int32_t
    resolveRead(const InstrInstance &inst, const OpRef &ref)
    {
        switch (ref.kind) {
          case OpRef::Kind::Operand: {
            const OperandSpec &op = inst.variant->operand(ref.index);
            if (op.kind == OpKind::Reg)
                return unit_value_[isa::regUnit(inst.regOf(ref.index))];
            panicIf(op.kind != OpKind::Flags,
                    "resolveRead: unexpected operand kind");
            // Flags: conservatively take the latest of the read groups
            // by returning a synthetic max value. To stay exact we
            // treat each group as a separate source (see expandReads).
            panic("flags reads must be expanded");
          }
          case OpRef::Kind::MemAddr: {
            const Reg &base = inst.ops[ref.index].mem.base;
            return unit_value_[isa::regUnit(base)];
          }
          case OpRef::Kind::MemData: {
            int tag = inst.ops[ref.index].mem.tag;
            for (const auto &[t, v] : mem_value_)
                if (t == tag)
                    return v;
            return 0;
          }
          case OpRef::Kind::Temp:
            return temp_value_.at(static_cast<size_t>(ref.index));
        }
        panic("resolveRead: unreachable");
    }

    /** Expand a read OpRef into concrete source value ids. */
    void
    expandReads(const InstrInstance &inst, const OpRef &ref,
                SmallVector<int32_t, 4> &out, int skip_unit)
    {
        if (ref.kind == OpRef::Kind::Operand) {
            const OperandSpec &op = inst.variant->operand(ref.index);
            if (op.kind == OpKind::Flags) {
                for (isa::ArchUnit u : op.flags_read.units())
                    out.push_back(unit_value_[u]);
                return;
            }
            if (op.kind == OpKind::Reg) {
                isa::ArchUnit u = isa::regUnit(inst.regOf(ref.index));
                if (u == skip_unit)
                    return; // dependency-breaking idiom
                out.push_back(unit_value_[u]);
                return;
            }
            panic("expandReads: unexpected operand kind for ",
                  inst.variant->name());
        }
        out.push_back(resolveRead(inst, ref));
    }

    /** Allocate the destination value for a write OpRef and bind it. */
    int32_t
    applyWrite(const InstrInstance &inst, const OpRef &ref)
    {
        int32_t value = newValue();
        switch (ref.kind) {
          case OpRef::Kind::Operand: {
            const OperandSpec &op = inst.variant->operand(ref.index);
            if (op.kind == OpKind::Flags) {
                for (isa::ArchUnit u : op.flags_written.units())
                    unit_value_[u] = value;
                return value;
            }
            panicIf(op.kind != OpKind::Reg,
                    "applyWrite: unexpected operand kind");
            unit_value_[isa::regUnit(inst.regOf(ref.index))] = value;
            return value;
          }
          case OpRef::Kind::MemData: {
            int tag = inst.ops[ref.index].mem.tag;
            for (auto &[t, v] : mem_value_) {
                if (t == tag) {
                    v = value;
                    return value;
                }
            }
            mem_value_.emplace_back(tag, value);
            return value;
          }
          case OpRef::Kind::Temp:
            if (temp_value_.size() <= static_cast<size_t>(ref.index))
                temp_value_.resize(static_cast<size_t>(ref.index) + 1,
                                   0);
            temp_value_[static_cast<size_t>(ref.index)] = value;
            return value;
          case OpRef::Kind::MemAddr:
            break;
        }
        panic("applyWrite: unreachable");
    }

    /** Merge-dependency unit for narrow GPR writes / dirty-upper SSE. */
    int
    mergeUnit(const InstrInstance &inst, const OpRef &ref) const
    {
        if (ref.kind != OpRef::Kind::Operand)
            return -1;
        const OperandSpec &op = inst.variant->operand(ref.index);
        if (op.kind != OpKind::Reg)
            return -1;
        RegClass cls = op.reg_class;
        if (cls == RegClass::Gpr8 || cls == RegClass::Gpr8High ||
            cls == RegClass::Gpr16)
            return isa::regUnit(inst.regOf(ref.index));
        // Dirty-upper merge for legacy-SSE XMM writes.
        if (info_.sse_avx_transition && dirty_upper_ &&
            cls == RegClass::Xmm && !inst.variant->attrs().is_avx)
            return isa::regUnit(inst.regOf(ref.index));
        return -1;
    }

    // ---- issue -------------------------------------------------------
    /** Generate and enqueue the renamed µops of the next instruction.
     *  The static decode (µop selection, idiom classification) comes
     *  precomputed from the template; only the renaming is per-copy. */
    void
    renameInstruction(const DecodedInstr &d, int32_t idx)
    {
        activity_ = true;
        const InstrInstance &inst = *d.inst;
        const std::vector<UopSpec> &uops = *d.uops;

        // Move elimination: reg-reg moves handled by the ROB.
        bool eliminated_mov =
            d.try_mov_elim && (mov_elim_counter_++ % kMovElimPeriod) == 0;

        if (d.rename_direct || eliminated_mov) {
            // Rename-stage execution: one issued-but-not-dispatched µop.
            UopDyn dyn;
            dyn.instr_idx = idx;
            if (eliminated_mov) {
                // Zero-latency: destination aliases the source value.
                unit_value_[d.elim_dst_unit] =
                    unit_value_[d.elim_src_unit];
            } else {
                // NOP / zero idiom: results ready immediately.
                for (const auto &u : uops)
                    for (const auto &w : u.writes)
                        if (w.kind == OpRef::Kind::Operand) {
                            int32_t v = applyWrite(inst, w);
                            value_ready_[v] = 0;
                        }
            }
            instr_uops_left_[static_cast<size_t>(idx)] = 1;
            pendingPush(std::move(dyn), true);
            return;
        }

        temp_value_.assign(temp_value_.size(), 0);
        int count = 0;
        for (const auto &spec : uops) {
            UopDyn dyn;
            dyn.spec = &spec;
            dyn.instr_idx = idx;
            dyn.slow = d.slow;
            for (const auto &r : spec.reads)
                expandReads(inst, r, dyn.srcs, d.skip_unit);
            // Partial-register / dirty-upper merges add a read of the
            // written register's previous value.
            for (const auto &w : spec.writes) {
                int mu = mergeUnit(inst, w);
                if (mu >= 0 && mu != d.skip_unit)
                    dyn.srcs.push_back(unit_value_[mu]);
            }
            for (const auto &w : spec.writes)
                dyn.dsts.push_back(applyWrite(inst, w));
            pendingPush(std::move(dyn), false);
            ++count;
        }
        instr_uops_left_[static_cast<size_t>(idx)] = count;

        // Track the YMM upper state for the SSE/AVX transition model.
        if (info_.sse_avx_transition) {
            if (d.ymm_effect == DecodedInstr::YmmEffect::ClearUpper)
                dirty_upper_ = false;
            else if (d.ymm_effect == DecodedInstr::YmmEffect::DirtyUpper)
                dirty_upper_ = true;
        }
    }

    /** Rename a macro-fused pair into a single branch-unit µop; the
     *  fused spec itself is precomputed by the template. */
    void
    renameFusedPair(const DecodedInstr &d, const UopSpec &spec,
                    int32_t idx)
    {
        activity_ = true;
        const InstrInstance &prod = *d.inst;
        UopDyn dyn;
        dyn.spec = &spec;
        dyn.instr_idx = idx;
        for (const auto &r : spec.reads)
            expandReads(prod, r, dyn.srcs, -1);
        for (const auto &w : spec.writes)
            dyn.dsts.push_back(applyWrite(prod, w));

        instr_uops_left_[static_cast<size_t>(idx)] = 1;
        instr_uops_left_[static_cast<size_t>(idx) + 1] = 0;
        pendingPush(std::move(dyn), false);
    }

    void
    issue()
    {
        int issued = 0;
        while (issued < info_.issue_width) {
            // Refill the pending queue from the instruction stream.
            if (pendingEmpty()) {
                if (next_instr_ >= total_)
                    return;
                // A serializing instruction in flight blocks younger
                // instructions until it has fully retired.
                if (serializer_in_flight_ >= 0) {
                    if (instr_uops_left_[static_cast<size_t>(
                            serializer_in_flight_)] > 0)
                        return;
                    serializer_in_flight_ = -1;
                }
                DecodedKernel::Ref ref =
                    decoded_.at(next_instr_, body_reps_);
                const DecodedInstr &d = *ref.instr;
                if (d.serializing) {
                    // Drain: all older µops must have retired first.
                    if (retire_head_ != rob_.size())
                        return;
                    serializer_in_flight_ =
                        static_cast<int32_t>(next_instr_);
                }
                // Macro-fusion: a flag-writing ALU instruction and an
                // immediately following Jcc decode into a single µop.
                // The eligible pair (and its fused spec) was decided
                // once at decode time.
                const UopSpec *fused =
                    ref.wraps ? d.fused_wrap : d.fused_next;
                if (fused != nullptr && next_instr_ + 1 < total_) {
                    renameFusedPair(d, *fused,
                                    static_cast<int32_t>(next_instr_));
                    next_instr_ += 2;
                    continue;
                }
                renameInstruction(d,
                                  static_cast<int32_t>(next_instr_));
                ++next_instr_;
            }
            while (!pendingEmpty() && issued < info_.issue_width) {
                bool rename_only =
                    pending_rename_only_[pending_head_] != 0;
                // Capacity checks.
                if (rob_.size() - retire_head_ >=
                    static_cast<size_t>(info_.rob_size))
                    return;
                if (!rename_only && rs_count_ >= info_.rs_size)
                    return;
                UopDyn dyn = std::move(pending_uops_[pending_head_]);
                ++pending_head_;
                if (pendingEmpty()) {
                    pending_uops_.clear();
                    pending_rename_only_.clear();
                    pending_head_ = 0;
                }
                ++issued;
                activity_ = true;
                ++counters_.uops_issued;
                if (rename_only || dyn.spec == nullptr) {
                    ++counters_.uops_eliminated;
                    dyn.complete = cycle_;
                    rob_.push_back(std::move(dyn));
                    continue;
                }
                // Bind to the least-loaded allowed port. Scans the
                // mask bits directly (ascending, like portsOf) — this
                // runs once per issued µop, too hot for a vector.
                int best = -1;
                uarch::PortMask mask = dyn.spec->ports;
                for (int p = 0; p < info_.num_ports; ++p) {
                    if (!(mask & static_cast<uarch::PortMask>(1u << p)))
                        continue;
                    if (best < 0 || waiting_[p] < waiting_[best])
                        best = p;
                }
                panicIf(best < 0, "µop with no valid port");
                dyn.port = static_cast<int16_t>(best);
                ++waiting_[best];
                ++rs_count_;
                rob_.push_back(std::move(dyn));
                bound_[static_cast<size_t>(best)].push_back(
                    rob_.size() - 1);
            }
        }
    }

    // ---- dispatch ----------------------------------------------------
    void
    dispatch()
    {
        for (int p = 0; p < info_.num_ports; ++p) {
            auto &queue = bound_[static_cast<size_t>(p)];
            size_t &head = bound_head_[static_cast<size_t>(p)];
            // Compact fully-drained queues.
            if (head > 0 && head == queue.size()) {
                queue.clear();
                head = 0;
            }
            for (size_t i = head; i < queue.size(); ++i) {
                UopDyn &u = rob_[queue[i]];
                if (u.dispatched)
                    continue;
                const UopSpec &spec = *u.spec;
                if (spec.div_occupancy > 0 && div_busy_[p] > cycle_)
                    continue;
                bool ready = true;
                for (int32_t s : u.srcs) {
                    if (effectiveReady(s, spec.domain) > cycle_) {
                        ready = false;
                        break;
                    }
                }
                if (!ready)
                    continue;
                // Dispatch.
                u.dispatched = true;
                activity_ = true;
                int64_t max_done = cycle_ + 1;
                for (size_t w = 0; w < u.dsts.size(); ++w) {
                    int lat = spec.writeLatency(w, u.slow);
                    value_ready_[u.dsts[w]] = cycle_ + lat;
                    value_domain_[u.dsts[w]] =
                        static_cast<uint8_t>(spec.domain);
                    max_done = std::max(
                        max_done, cycle_ + static_cast<int64_t>(lat));
                }
                max_done = std::max(
                    max_done,
                    cycle_ + static_cast<int64_t>(spec.latency));
                u.complete = max_done;
                ++counters_.port_uops[static_cast<size_t>(p)];
                --waiting_[p];
                --rs_count_;
                if (spec.div_occupancy > 0) {
                    int occ = u.slow && spec.div_occupancy_slow > 0
                                  ? spec.div_occupancy_slow
                                  : spec.div_occupancy;
                    div_busy_[p] = cycle_ + occ;
                }
                // Mark as drained if at the head.
                if (i == head)
                    ++head;
                break; // one µop per port per cycle
            }
            // Advance head past dispatched entries.
            while (head < queue.size() && rob_[queue[head]].dispatched)
                ++head;
        }
    }

    // ---- retire ------------------------------------------------------
    void
    retire()
    {
        int retired = 0;
        while (retire_head_ < rob_.size() &&
               retired < info_.retire_width) {
            UopDyn &u = rob_[retire_head_];
            if (u.complete < 0 || u.complete > cycle_)
                break;
            --instr_uops_left_[static_cast<size_t>(u.instr_idx)];
            ++retire_head_;
            ++retired;
            activity_ = true;
        }
        // In-order instruction retirement: an instruction is retired
        // once all its µops are (fused branches contribute zero µops
        // and retire together with their producer).
        while (retire_cursor_ < total_ &&
               instr_uops_left_[retire_cursor_] == 0) {
            ++counters_.instrs_retired;
            activity_ = true;
            auto it = std::lower_bound(marker_set_.begin(),
                                       marker_set_.end(),
                                       retire_cursor_);
            if (it != marker_set_.end() && *it == retire_cursor_) {
                counters_.cycles = cycle_;
                result_.snapshots[static_cast<size_t>(
                    it - marker_set_.begin())] = counters_;
            }
            ++retire_cursor_;
        }
    }

    // ---- idle-cycle skip ---------------------------------------------
    /**
     * Nothing dispatched, issued, renamed, or retired this cycle, so
     * every blocked µop waits on a purely time-based condition: a
     * source value becoming ready (plus bypass), the divider freeing
     * up, or the oldest ROB entry completing. Until the earliest such
     * threshold no architectural state can change, so jumping the
     * clock there is exact. With no finite threshold the simulation
     * is genuinely deadlocked; fall through to normal stepping and
     * let the max_cycles guard fire as before.
     */
    void
    skipIdleCycles()
    {
        int64_t next = kNotReady;
        if (retire_head_ < rob_.size()) {
            const UopDyn &u = rob_[retire_head_];
            if (u.complete > cycle_)
                next = std::min(next, u.complete);
        }
        for (int p = 0; p < info_.num_ports; ++p) {
            const auto &queue = bound_[static_cast<size_t>(p)];
            for (size_t i = bound_head_[static_cast<size_t>(p)];
                 i < queue.size(); ++i) {
                const UopDyn &u = rob_[queue[i]];
                if (u.dispatched)
                    continue;
                const UopSpec &spec = *u.spec;
                if (spec.div_occupancy > 0 && div_busy_[p] > cycle_)
                    next = std::min(next, div_busy_[p]);
                for (int32_t s : u.srcs) {
                    int64_t r = effectiveReady(s, spec.domain);
                    if (r > cycle_ && r < kNotReady)
                        next = std::min(next, r);
                }
            }
        }
        if (next < kNotReady && next - 1 > cycle_)
            cycle_ = next - 1;
    }

    // ---- members -----------------------------------------------------
    const uarch::TimingDb &timing_;
    const uarch::UArchInfo &info_;
    const SimOptions &options_;
    const DecodedKernel &decoded_;
    const int body_reps_;
    const size_t total_; ///< virtual stream length

    int64_t cycle_ = 0;
    size_t next_instr_ = 0;
    int32_t serializer_in_flight_ = -1;
    bool dirty_upper_ = false;
    bool activity_ = false;
    uint64_t mov_elim_counter_ = 0;

    std::vector<size_t> &marker_set_;
    std::vector<int64_t> &value_ready_;
    std::vector<uint8_t> &value_domain_;
    std::vector<int32_t> &unit_value_;
    std::vector<std::pair<int, int32_t>> &mem_value_;
    std::vector<int32_t> &temp_value_;

    std::vector<UopDyn> &pending_uops_;
    std::vector<uint8_t> &pending_rename_only_;
    size_t pending_head_ = 0;
    std::vector<UopDyn> &rob_;
    size_t retire_head_ = 0;
    size_t retire_cursor_ = 0;
    int rs_count_ = 0;
    std::vector<std::vector<size_t>> &bound_;
    std::vector<size_t> &bound_head_;
    std::vector<int> &waiting_;
    std::vector<int64_t> &div_busy_;
    std::vector<int> &instr_uops_left_;

    PerfCounters counters_;
    RunResult result_;
};

} // namespace

Pipeline::Pipeline(const uarch::TimingDb &timing, SimOptions options)
    : timing_(timing), info_(uarchInfo(timing.arch())),
      options_(options), scratch_(std::make_unique<PipelineScratch>())
{
}

Pipeline::~Pipeline() = default;

RunResult
Pipeline::run(const isa::Kernel &kernel,
              const std::vector<size_t> &markers) const
{
    static const isa::Kernel kEmpty;
    DecodedKernel decoded(timing_, kEmpty, kernel, kEmpty);
    return run(decoded, 1, markers);
}

RunResult
Pipeline::run(const DecodedKernel &decoded, int body_reps,
              const std::vector<size_t> &markers) const
{
    panicIf(decoded.bodySize() > 0 && body_reps < 1,
            "Pipeline::run: body_reps must be >= 1");
    if (decoded.bodySize() == 0)
        body_reps = 0;
    Core core(timing_, info_, options_, decoded, body_reps, markers,
              *scratch_);
    return core.run();
}

} // namespace uops::sim
