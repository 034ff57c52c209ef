#include "pipeline.h"

#include <algorithm>
#include <limits>

#include "support/small_vector.h"
#include "support/status.h"

namespace uops::sim {

using uarch::Domain;
using uarch::UopSpec;

namespace {

/** value_ready_ of a value not yet produced. While µops wait on the
 *  value, the slot holds kNotReady plus one more than the head of its
 *  waiter list, so the list costs no table of its own. */
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
    uint8_t unready = 0;                  ///< sources not yet produced
    int64_t complete = -1;                ///< -1: not finished.
    SmallVector<int32_t, kUopSrcsInline> srcs; ///< value ids
    SmallVector<int32_t, kUopDstsInline> dsts; ///< value ids, per write
};

// A worker keeps one ROB per uarch, so every byte here multiplies.
static_assert(sizeof(UopDyn) <= 96, "UopDyn must not grow");

/** A node of a value's waiter list: one read by a waiting µop. */
struct Waiter
{
    uint32_t uop; ///< ROB index
    int32_t next; ///< next node, -1: end of list
};

/** A µop whose sources are all produced, waiting for its port. */
struct Candidate
{
    uint32_t uop;  ///< ROB index
    int64_t ready; ///< first cycle at which every source is ready for it
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

    std::vector<UopDyn> rob;
    std::vector<Waiter> waiters;
    std::vector<std::vector<Candidate>> candidates;
    std::vector<int> waiting;
    std::vector<int64_t> div_busy;
    std::vector<int> instr_uops_left;

    /** Fast-forward period search: the canonical state at the current
     *  copy boundary, Brent's saved one, and the value renumbering
     *  (-1: not yet numbered). */
    std::vector<int64_t> state;
    std::vector<int64_t> saved_state;
    std::vector<int32_t> canon_value;
    std::vector<int32_t> canon_touched;
};

namespace {

/** Whole-run simulation over a decoded virtual instruction stream. */
class Core
{
  public:
    Core(const uarch::TimingDb &timing, const uarch::UArchInfo &info,
         const SimOptions &options, const DecodedKernel &decoded,
         int body_reps, const std::vector<size_t> &markers,
         int prefix_copies, PipelineScratch &s)
        : timing_(timing), info_(info), options_(options),
          decoded_(decoded), body_reps_(body_reps),
          total_(decoded.totalSize(body_reps)),
          prefix_end_(decoded.prologueSize() +
                      decoded.bodySize() *
                          static_cast<size_t>(prefix_copies)),
          marker_set_(s.marker_set), value_ready_(s.value_ready),
          value_domain_(s.value_domain), unit_value_(s.unit_value),
          mem_value_(s.mem_value), temp_value_(s.temp_value),
          rob_(s.rob), waiters_(s.waiters), candidates_(s.candidates),
          waiting_(s.waiting), div_busy_(s.div_busy),
          instr_uops_left_(s.instr_uops_left), state_(s.state),
          saved_state_(s.saved_state), canon_value_(s.canon_value),
          canon_touched_(s.canon_touched)
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
        temp_value_.assign(decoded.numTemps(), 0);
        rob_.clear();
        waiters_.clear();
        candidates_.resize(static_cast<size_t>(info.num_ports));
        for (auto &queue : candidates_)
            queue.clear();
        waiting_.assign(static_cast<size_t>(info.num_ports), 0);
        div_busy_.assign(static_cast<size_t>(info.num_ports), 0);
        // -1: not yet renamed (blocks the in-order retire cursor).
        instr_uops_left_.assign(total_, -1);
        result_.snapshots.resize(marker_set_.size());
        // The period search starts after the prefix: a cut removes
        // copies from the boundary it is found at on, so it never
        // removes a prefix copy.
        if (decoded.bodySize() > 0)
            next_boundary_ = prefix_end_;
    }

    RunResult
    run()
    {
        while (!done()) {
            ++cycle_;
            // The budgets see logical cycles, fast-forwarded included,
            // so a run is admitted or refused exactly as without it.
            int64_t logical = cycle_ + cycle_offset_;
            panicIf(logical > options_.max_cycles,
                    "simulation exceeded max_cycles (deadlock?)");
            if (options_.cycle_budget > 0 &&
                logical > options_.cycle_budget) {
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
        counters_.cycles = cycle_ + cycle_offset_;
        result_.final = counters_;
        result_.cycles = counters_.cycles;
        result_.simulated_cycles = cycle_;
        return std::move(result_);
    }

  private:
    bool
    done() const
    {
        return next_instr_ >= total_ && retire_head_ == rob_.size() &&
               retire_cursor_ >= total_;
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

    /** Head of the waiter list of a value not yet produced (-1: none). */
    int32_t
    waiterHead(int32_t value) const
    {
        return static_cast<int32_t>(value_ready_[value] - kNotReady) - 1;
    }

    /** Make ROB entry @p uop wait on @p value, not yet produced. */
    void
    addWaiter(int32_t value, uint32_t uop)
    {
        int32_t node = free_waiter_;
        if (node >= 0) {
            free_waiter_ = waiters_[static_cast<size_t>(node)].next;
        } else {
            node = static_cast<int32_t>(waiters_.size());
            waiters_.emplace_back();
        }
        waiters_[static_cast<size_t>(node)] = {uop, waiterHead(value)};
        value_ready_[value] = kNotReady + 1 + node;
    }

    /** Produce @p value, ready at @p ready, and wake its waiters: a
     *  µop whose last source this was becomes a candidate at once, so
     *  a higher-numbered port can still dispatch it this cycle. */
    void
    produce(int32_t value, int64_t ready, Domain domain)
    {
        int32_t node = waiterHead(value);
        value_ready_[value] = ready;
        value_domain_[value] = static_cast<uint8_t>(domain);
        while (node >= 0) {
            Waiter &w = waiters_[static_cast<size_t>(node)];
            const uint32_t uop = w.uop;
            const int32_t next = w.next;
            w.next = free_waiter_;
            free_waiter_ = node;
            node = next;
            if (--rob_[uop].unready == 0)
                schedule(uop);
        }
    }

    /** Enter ROB entry @p uop, every source produced, into its port's
     *  candidates, which stay in ROB order. */
    void
    schedule(uint32_t uop)
    {
        const UopDyn &u = rob_[uop];
        int64_t ready = 0;
        for (int32_t s : u.srcs)
            ready = std::max(ready, effectiveReady(s, u.spec->domain));
        auto &queue = candidates_[static_cast<size_t>(u.port)];
        auto at = queue.end();
        while (at != queue.begin() && (at - 1)->uop > uop)
            --at;
        queue.insert(at, {uop, ready});
    }

    // ---- renaming ----------------------------------------------------
    /** Value id currently bound to a source of a rename plan. */
    int32_t
    readValue(const RenameRef &r) const
    {
        switch (r.kind) {
          case RenameRef::Kind::Unit:
            return unit_value_[static_cast<size_t>(r.index)];
          case RenameRef::Kind::Mem:
            for (const auto &[tag, v] : mem_value_)
                if (tag == r.index)
                    return v;
            return 0;
          case RenameRef::Kind::Temp:
            return temp_value_[static_cast<size_t>(r.index)];
          case RenameRef::Kind::Flags:
            break;
        }
        panic("readValue: flags are read one unit at a time");
    }

    /** Allocate the destination value of a write and bind it. */
    int32_t
    bindWrite(const RenameRef &w)
    {
        int32_t value = newValue();
        switch (w.kind) {
          case RenameRef::Kind::Unit:
            unit_value_[static_cast<size_t>(w.index)] = value;
            break;
          case RenameRef::Kind::Flags:
            for (int bit = 0; bit < 3; ++bit)
                if (w.index & (1 << bit))
                    unit_value_[static_cast<size_t>(isa::kUnitFlagCf +
                                                    bit)] = value;
            break;
          case RenameRef::Kind::Mem: {
            auto it = std::find_if(
                mem_value_.begin(), mem_value_.end(),
                [&](const auto &entry) { return entry.first == w.index; });
            if (it != mem_value_.end())
                it->second = value;
            else
                mem_value_.emplace_back(w.index, value);
            break;
          }
          case RenameRef::Kind::Temp:
            temp_value_[static_cast<size_t>(w.index)] = value;
            break;
        }
        return value;
    }

    /** Append one renamed µop to the ROB, behind the issue cursor. All
     *  its sources are read before any destination is bound. */
    void
    renameUop(const UopSpec &spec, const UopPlan &plan, int32_t idx,
              bool slow)
    {
        UopDyn &dyn = rob_.emplace_back();
        dyn.spec = &spec;
        dyn.instr_idx = idx;
        dyn.slow = slow;
        for (const RenameRef &r : plan.srcs)
            if (!r.dirty_only || dirty_upper_)
                dyn.srcs.push_back(readValue(r));
        for (const RenameRef &w : plan.dsts)
            dyn.dsts.push_back(bindWrite(w));
    }

    // ---- issue -------------------------------------------------------
    /** Rename the next instruction into the ROB. The static decode
     *  (µop selection, idiom classification, rename plan) comes
     *  precomputed from the template; only the renaming is per-copy. */
    void
    renameInstruction(const DecodedInstr &d, int32_t idx)
    {
        activity_ = true;

        // Move elimination: reg-reg moves handled by the ROB.
        bool eliminated_mov =
            d.try_mov_elim && (mov_elim_counter_++ % kMovElimPeriod) == 0;

        if (d.rename_direct || eliminated_mov) {
            // Rename-stage execution: one issued-but-not-dispatched µop.
            if (eliminated_mov) {
                // Zero-latency: destination aliases the source value.
                unit_value_[d.elim_dst_unit] =
                    unit_value_[d.elim_src_unit];
            } else {
                // NOP / zero idiom: register and flag results ready
                // immediately.
                for (const UopPlan &plan : d.plan)
                    for (const RenameRef &w : plan.dsts)
                        if (w.kind == RenameRef::Kind::Unit ||
                            w.kind == RenameRef::Kind::Flags)
                            value_ready_[bindWrite(w)] = 0;
            }
            rob_.emplace_back().instr_idx = idx;
            instr_uops_left_[static_cast<size_t>(idx)] = 1;
            return;
        }

        std::fill(temp_value_.begin(), temp_value_.end(), 0);
        const std::vector<UopSpec> &uops = *d.uops;
        for (size_t i = 0; i < uops.size(); ++i)
            renameUop(uops[i], d.plan[i], idx, d.slow);
        instr_uops_left_[static_cast<size_t>(idx)] =
            static_cast<int>(uops.size());

        // Track the YMM upper state for the SSE/AVX transition model.
        if (info_.sse_avx_transition) {
            if (d.ymm_effect == DecodedInstr::YmmEffect::ClearUpper)
                dirty_upper_ = false;
            else if (d.ymm_effect == DecodedInstr::YmmEffect::DirtyUpper)
                dirty_upper_ = true;
        }
    }

    void
    issue()
    {
        int issued = 0;
        while (issued < info_.issue_width) {
            // Rename the next instruction once every renamed µop has
            // issued.
            if (issue_head_ == rob_.size()) {
                if (next_instr_ >= total_)
                    return;
                if (next_instr_ >= next_boundary_)
                    copyBoundary(issued);
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
                    if (retire_head_ != issue_head_)
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
                const auto idx = static_cast<int32_t>(next_instr_);
                if (fused != nullptr && next_instr_ + 1 < total_) {
                    renameUop(*fused, d.fused_plan, idx, false);
                    instr_uops_left_[next_instr_] = 1;
                    instr_uops_left_[next_instr_ + 1] = 0;
                    activity_ = true;
                    next_instr_ += 2;
                    continue;
                }
                renameInstruction(d, idx);
                ++next_instr_;
            }
            while (issue_head_ < rob_.size() &&
                   issued < info_.issue_width) {
                UopDyn &u = rob_[issue_head_];
                // Capacity checks.
                if (issue_head_ - retire_head_ >=
                    static_cast<size_t>(info_.rob_size))
                    return;
                if (u.spec != nullptr && rs_count_ >= info_.rs_size)
                    return;
                const auto uop = static_cast<uint32_t>(issue_head_++);
                ++issued;
                activity_ = true;
                const bool in_prefix =
                    static_cast<size_t>(u.instr_idx) < prefix_end_;
                ++counters_.uops_issued;
                result_.prefix.uops_issued += in_prefix;
                if (u.spec == nullptr) {
                    ++counters_.uops_eliminated;
                    result_.prefix.uops_eliminated += in_prefix;
                    u.complete = cycle_;
                    continue;
                }
                // Bind to the least-loaded allowed port. Scans the
                // mask bits directly (ascending, like portsOf) — this
                // runs once per issued µop, too hot for a vector.
                int best = -1;
                uarch::PortMask mask = u.spec->ports;
                for (int p = 0; p < info_.num_ports; ++p) {
                    if (!(mask & static_cast<uarch::PortMask>(1u << p)))
                        continue;
                    if (best < 0 || waiting_[p] < waiting_[best])
                        best = p;
                }
                panicIf(best < 0, "µop with no valid port");
                u.port = static_cast<int16_t>(best);
                ++waiting_[best];
                ++rs_count_;
                // Wait once per read of each source not yet produced
                // (ADD RAX, RAX waits twice on RAX).
                for (int32_t s : u.srcs) {
                    if (value_ready_[s] >= kNotReady) {
                        addWaiter(s, uop);
                        ++u.unready;
                    }
                }
                if (u.unready == 0)
                    schedule(uop);
            }
        }
    }

    // ---- dispatch ----------------------------------------------------
    /** Each port dispatches its oldest candidate that is ready and, for
     *  a divider µop, finds the divider free: the µop a scan of every
     *  bound µop in ROB order would pick. */
    void
    dispatch()
    {
        for (int p = 0; p < info_.num_ports; ++p) {
            auto &queue = candidates_[static_cast<size_t>(p)];
            for (size_t i = 0; i < queue.size(); ++i) {
                if (queue[i].ready > cycle_)
                    continue;
                UopDyn &u = rob_[queue[i].uop];
                const UopSpec &spec = *u.spec;
                if (spec.div_occupancy > 0 && div_busy_[p] > cycle_)
                    continue;
                queue.erase(queue.begin() + static_cast<ptrdiff_t>(i));
                activity_ = true;
                int64_t max_done = cycle_ + 1;
                for (size_t w = 0; w < u.dsts.size(); ++w) {
                    int lat = spec.writeLatency(w, u.slow);
                    produce(u.dsts[w], cycle_ + lat, spec.domain);
                    max_done = std::max(
                        max_done, cycle_ + static_cast<int64_t>(lat));
                }
                max_done = std::max(
                    max_done,
                    cycle_ + static_cast<int64_t>(spec.latency));
                u.complete = max_done;
                ++counters_.port_uops[static_cast<size_t>(p)];
                if (static_cast<size_t>(u.instr_idx) < prefix_end_)
                    ++result_.prefix.port_uops[static_cast<size_t>(p)];
                --waiting_[p];
                --rs_count_;
                if (spec.div_occupancy > 0) {
                    int occ = u.slow && spec.div_occupancy_slow > 0
                                  ? spec.div_occupancy_slow
                                  : spec.div_occupancy;
                    div_busy_[p] = cycle_ + occ;
                }
                break; // one µop per port per cycle
            }
        }
    }

    // ---- retire ------------------------------------------------------
    void
    retire()
    {
        int retired = 0;
        while (retire_head_ < issue_head_ &&
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
            // The prefix's clock is the stepped one: a cut only ever
            // shifts instructions younger than the prefix.
            if (retire_cursor_ < prefix_end_) {
                ++result_.prefix.instrs_retired;
                if (retire_cursor_ + 1 == prefix_end_)
                    result_.prefix.cycles = cycle_;
            }
            auto it = std::lower_bound(marker_set_.begin(),
                                       marker_set_.end(),
                                       retire_cursor_);
            if (it != marker_set_.end() && *it == retire_cursor_) {
                counters_.cycles = cycle_ + cycle_offset_;
                result_.snapshots[static_cast<size_t>(
                    it - marker_set_.begin())] = counters_;
            }
            ++retire_cursor_;
        }
    }

    // ---- idle-cycle skip ---------------------------------------------
    /**
     * Nothing dispatched, issued, renamed, or retired this cycle, so
     * the core waits on purely time-based conditions: a candidate's
     * sources becoming ready (bypass included), the divider freeing up
     * for a candidate, or the oldest ROB entry completing. A µop with a
     * source not yet produced cannot act before its producer
     * dispatches, which is itself one of these events. Until the
     * earliest of them no architectural state can change, so jumping
     * the clock there is exact. With no finite event the simulation is
     * genuinely deadlocked; fall through to normal stepping and let the
     * max_cycles guard fire as before.
     */
    void
    skipIdleCycles()
    {
        int64_t next = kNotReady;
        if (retire_head_ < issue_head_) {
            const UopDyn &u = rob_[retire_head_];
            if (u.complete > cycle_)
                next = std::min(next, u.complete);
        }
        for (int p = 0; p < info_.num_ports; ++p) {
            for (const Candidate &c : candidates_[static_cast<size_t>(p)]) {
                if (c.ready > cycle_)
                    next = std::min(next, c.ready);
                else if (rob_[c.uop].spec->div_occupancy > 0 &&
                         div_busy_[p] > cycle_)
                    next = std::min(next, div_busy_[p]);
            }
        }
        if (next < kNotReady && next - 1 > cycle_)
            cycle_ = next - 1;
    }

    // ---- exact fast-forward ------------------------------------------
    /**
     * Runs at the issue stage's first refill inside each body copy.
     * One step of Brent's cycle detection over the copies' canonical
     * states: once copy c's state equals copy c-p's, every later
     * period repeats it, so the remaining stream is shortened by k·p
     * copies and their counter and cycle deltas are added in closed
     * form (DESIGN.md, "Exact fast-forward").
     */
    void
    copyBoundary(int issued)
    {
        const size_t body = decoded_.bodySize();
        const size_t begin = decoded_.prologueSize();
        const size_t end = begin + body * static_cast<size_t>(body_reps_);
        const auto copy = static_cast<int64_t>((next_instr_ - begin) / body);
        // A period found past the midpoint saves less than looking
        // for it costs.
        if (next_instr_ >= end || 2 * (copy + 1) > body_reps_) {
            next_boundary_ = kNever;
            return;
        }
        next_boundary_ = begin + body * static_cast<size_t>(copy + 1);
        // The cheap head of the state pre-filters: the rest is only
        // serialized when Brent's saved state is due to be replaced or
        // the heads match.
        const size_t head =
            encodeHead(issued, begin + body * static_cast<size_t>(copy));
        const bool due = saved_copy_ < 0 || copy - saved_copy_ >= power_;
        const bool candidate =
            saved_copy_ >= 0 &&
            std::equal(state_.begin(),
                       state_.begin() + static_cast<ptrdiff_t>(head),
                       saved_state_.begin());
        if (!due && !candidate)
            return;
        encodeRest();
        if (candidate && state_ == saved_state_) {
            fastForward(copy, copy - saved_copy_, end);
            return;
        }
        if (due) {
            if (saved_copy_ >= 0)
                power_ *= 2;
            std::swap(state_, saved_state_);
            // Both buffers keep the larger capacity, so a warmed
            // pipeline never grows whichever one comes up next.
            state_.reserve(saved_state_.capacity());
            saved_copy_ = copy;
            saved_cycle_ = cycle_;
            saved_counters_ = counters_;
        }
    }

    /** Skip k whole periods of @p period copies. The shorter run from
     *  copy @p copy evolves exactly as the longer one from copy
     *  copy + k·period, shifted by k times the period's deltas. */
    void
    fastForward(int64_t copy, int64_t period, size_t epilogue)
    {
        next_boundary_ = kNever;
        const int64_t k = (body_reps_ - copy - 1) / period;
        if (k < 1)
            return;
        // A marker still to retire must move with the stream: only
        // epilogue markers do.
        for (size_t m : marker_set_)
            if (m >= retire_cursor_ && m < epilogue)
                return;
        const size_t shift =
            static_cast<size_t>(k * period) * decoded_.bodySize();
        body_reps_ -= static_cast<int>(k * period);
        total_ -= shift;
        for (size_t &m : marker_set_)
            if (m >= epilogue)
                m -= shift;
        const PerfCounters delta = counters_ - saved_counters_;
        for (int p = 0; p < kMaxPorts; ++p)
            counters_.port_uops[p] += k * delta.port_uops[p];
        counters_.uops_issued += k * delta.uops_issued;
        counters_.uops_eliminated += k * delta.uops_eliminated;
        counters_.instrs_retired += k * delta.instrs_retired;
        cycle_offset_ += k * (cycle_ - saved_cycle_);
    }

    /**
     * Serialize everything that steers later cycles into state_,
     * relative to cycle_ and next_instr_, so two copy boundaries
     * compare equal exactly when their futures are the same up to a
     * time and index shift. Times are clamped where every smaller
     * value behaves alike; values are numbered in order of first
     * reference. encodeHead writes the fixed-size scalars and
     * returns their count; encodeRest appends the rest.
     */
    size_t
    encodeHead(int issued, size_t copy_begin)
    {
        state_.clear();
        const auto next = static_cast<int64_t>(next_instr_);
        state_.push_back(issued);
        state_.push_back(activity_);
        state_.push_back(static_cast<int64_t>(next_instr_ - copy_begin));
        state_.push_back(
            static_cast<int64_t>(mov_elim_counter_ % kMovElimPeriod));
        state_.push_back(dirty_upper_);
        // A retired serializer blocks nothing, like none at all.
        state_.push_back(serializer_in_flight_ >= 0 &&
                                 static_cast<size_t>(
                                     serializer_in_flight_) >=
                                     retire_cursor_
                             ? serializer_in_flight_ - next
                             : 1);
        state_.push_back(rs_count_);
        for (int p = 0; p < info_.num_ports; ++p) {
            state_.push_back(waiting_[p]);
            state_.push_back(std::max<int64_t>(0, div_busy_[p] - cycle_));
        }
        state_.push_back(next - static_cast<int64_t>(retire_cursor_));
        state_.push_back(static_cast<int64_t>(issue_head_ - retire_head_));
        state_.push_back(static_cast<int64_t>(mem_value_.size()));
        return state_.size();
    }

    void
    encodeRest()
    {
        if (canon_value_.size() < value_ready_.size())
            canon_value_.resize(value_ready_.size(), -1);
        const auto next = static_cast<int64_t>(next_instr_);
        for (size_t i = retire_cursor_; i < next_instr_; ++i)
            state_.push_back(instr_uops_left_[i]);
        for (size_t i = retire_head_; i < issue_head_; ++i) {
            const UopDyn &u = rob_[i];
            state_.push_back(u.instr_idx - next);
            if (u.complete >= 0) { // dispatched or rename-only
                state_.push_back(std::max<int64_t>(0, u.complete - cycle_));
                continue;
            }
            state_.push_back(-1);
            state_.push_back(reinterpret_cast<intptr_t>(u.spec));
            state_.push_back(u.port);
            state_.push_back(u.slow);
            state_.push_back(static_cast<int64_t>(u.srcs.size()));
            for (int32_t v : u.srcs)
                encodeValue(v);
            state_.push_back(static_cast<int64_t>(u.dsts.size()));
            for (int32_t v : u.dsts)
                encodeValue(v);
        }
        for (int32_t v : unit_value_)
            encodeValue(v);
        // Lookups are by tag, so the table's order is free to fix.
        std::sort(mem_value_.begin(), mem_value_.end());
        for (const auto &[tag, v] : mem_value_) {
            state_.push_back(tag);
            encodeValue(v);
        }
        for (int32_t v : canon_touched_)
            canon_value_[v] = -1;
        canon_touched_.clear();
    }

    /** A value not yet produced is named by its canonical number; a
     *  produced one never changes again, so its ready time (clamped
     *  where it is ready for every consumer) and domain are all of
     *  it. */
    void
    encodeValue(int32_t v)
    {
        const int64_t ready = value_ready_[v];
        if (ready >= kNotReady) {
            int32_t &id = canon_value_[v];
            if (id < 0) {
                id = static_cast<int32_t>(canon_touched_.size());
                canon_touched_.push_back(v);
            }
            state_.push_back(kNotReady);
            state_.push_back(id);
            return;
        }
        const int64_t rel = ready - cycle_;
        if (rel <= -info_.bypass_delay) {
            state_.push_back(-info_.bypass_delay);
            state_.push_back(0);
            return;
        }
        state_.push_back(rel);
        state_.push_back(value_domain_[v]);
    }

    // ---- members -----------------------------------------------------
    static constexpr size_t kNever = std::numeric_limits<size_t>::max();

    const uarch::TimingDb &timing_;
    const uarch::UArchInfo &info_;
    const SimOptions &options_;
    const DecodedKernel &decoded_;
    int body_reps_;  ///< body copies in the stream (fewer once fast-forwarded)
    size_t total_;   ///< virtual stream length
    /** Stream index past the prologue and the prefix copies. */
    size_t prefix_end_;

    int64_t cycle_ = 0;
    /** Cycles fast-forwarded: the logical clock is cycle_ + this. */
    int64_t cycle_offset_ = 0;
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

    /** Retired µops, then issued ones from retire_head_, then renamed
     *  ones waiting to issue from issue_head_. */
    std::vector<UopDyn> &rob_;
    size_t retire_head_ = 0;
    size_t issue_head_ = 0;
    size_t retire_cursor_ = 0;
    int rs_count_ = 0;
    std::vector<Waiter> &waiters_;
    int32_t free_waiter_ = -1; ///< free list through Waiter::next
    /** Per port, in ROB order. */
    std::vector<std::vector<Candidate>> &candidates_;
    std::vector<int> &waiting_;
    std::vector<int64_t> &div_busy_;
    std::vector<int> &instr_uops_left_;

    /** Period search (Brent): next copy start to check, and the saved
     *  copy's state, clock and counters. */
    size_t next_boundary_ = kNever;
    std::vector<int64_t> &state_;
    std::vector<int64_t> &saved_state_;
    std::vector<int32_t> &canon_value_;
    std::vector<int32_t> &canon_touched_;
    int64_t saved_copy_ = -1;
    int64_t saved_cycle_ = 0;
    int64_t power_ = 1;
    PerfCounters saved_counters_;

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
              const std::vector<size_t> &markers, int prefix_copies) const
{
    panicIf(decoded.bodySize() > 0 && body_reps < 1,
            "Pipeline::run: body_reps must be >= 1");
    panicIf(prefix_copies < 0 || prefix_copies > body_reps,
            "Pipeline::run: prefix_copies must be in [0, body_reps]");
    if (decoded.bodySize() == 0)
        body_reps = prefix_copies = 0;
    Core core(timing_, info_, options_, decoded, body_reps, markers,
              prefix_copies, *scratch_);
    return core.run();
}

} // namespace uops::sim
