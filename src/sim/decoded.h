/**
 * @file
 * Decoded-µop kernel templates (the measurement hot path's front end).
 *
 * Algorithm 2 runs every benchmark body twice, with n = 10 and n = 110
 * copies; the old harness materialized a fresh ~120-instruction Kernel
 * per run and the simulator re-derived the per-instruction decode
 * (µop list selection, zero-idiom/move-elimination classification,
 * macro-fusion eligibility, serializing attribute, SSE/AVX transition
 * effect, and which architectural units, memory tags and temporaries
 * each µop reads and writes) once per unrolled copy. All of those
 * decisions are a pure function of the instruction *instance*, not of
 * its position in the unrolled stream, so a DecodedKernel computes
 * them exactly once per body instruction and the pipeline unrolls
 * *logically*: the virtual instruction stream body × reps is indexed
 * arithmetically, never materialized.
 *
 * Macro-fusion is the only decision that looks across instruction
 * boundaries. Each body instruction therefore carries the precomputed
 * fused-pair spec for its successor in the stream, body[(i + 1) %
 * size]: the last body instruction's successor is the next copy's
 * first. The pipeline fuses only where that successor exists, so the
 * stream's final instruction never fuses, and the decisions match the
 * materialized kernel's bit for bit.
 *
 * Lifetime: a DecodedKernel borrows the body's instructions; they must
 * outlive it. The fused-pair µop specs are owned by the template.
 */

#ifndef UOPS_SIM_DECODED_H
#define UOPS_SIM_DECODED_H

#include <memory>
#include <vector>

#include "isa/kernel.h"
#include "uarch/timing_db.h"
#include "uarch/uarch.h"

namespace uops::sim {

/** Where a renamed µop reads a source or binds a destination value. */
struct RenameRef
{
    enum class Kind : uint8_t {
        Unit,  ///< architectural unit @c index
        Flags, ///< destination only: the flag units in bit set @c index
               ///< (bit i: unit kUnitFlagCf + i)
        Mem,   ///< memory location with tag @c index
        Temp,  ///< intra-instruction temporary @c index
    };

    Kind kind = Kind::Unit;
    /** Merge source taken only while the upper YMM state is dirty. */
    bool dirty_only = false;
    int index = 0;
};

/**
 * The rename plan of one µop: its sources in order (reads, flag
 * groups expanded, dependency-breaking reads dropped, then merge
 * reads) and one binding per write. Resolving the operands once here
 * leaves each unrolled copy only table lookups, with no allocation.
 */
struct UopPlan
{
    std::vector<RenameRef> srcs;
    std::vector<RenameRef> dsts; ///< parallel to UopSpec::writes
};

/** Sources and destinations a renamed µop holds without allocating:
 *  the most any µop of the timing tables has (SHLD/SHRD by an
 *  immediate read five values). sim_pipeline_test checks the tables
 *  against them. */
constexpr size_t kUopSrcsInline = 5;
constexpr size_t kUopDstsInline = 4;

/** The most µops one instruction renames (CPUID's). The pipeline's
 *  reorder-buffer ring holds rob_size plus this many; a DecodedKernel
 *  refuses an instruction with more. */
constexpr size_t kMaxInstrUops = 20;

/** Per-instance decode results reused across unrolled copies. */
struct DecodedInstr
{
    const isa::InstrInstance *inst = nullptr;
    const std::vector<uarch::UopSpec> *uops = nullptr;
    std::vector<UopPlan> plan; ///< parallel to *uops
    /** Plan of the fused-pair µop (no merge reads), when fusible. */
    UopPlan fused_plan;

    bool rename_direct = false; ///< no execution µops (NOP / zero idiom)
    bool try_mov_elim = false;  ///< move-elimination candidate
    bool serializing = false;   ///< drains the pipeline
    bool slow = false;          ///< divider slow-value class

    /** Dependency-breaking idiom: unit whose read is skipped (-1: none). */
    int skip_unit = -1;

    /** Precomputed rename units of an eliminated move's operands. */
    int elim_dst_unit = -1;
    int elim_src_unit = -1;

    /** SSE/AVX transition effect of a non-eliminated instruction. */
    enum class YmmEffect : uint8_t { None, ClearUpper, DirtyUpper };
    YmmEffect ymm_effect = YmmEffect::None;

    /** Fused-pair µop when this instruction macro-fuses with its
     *  successor in the stream (nullptr: no fusion). See file comment. */
    const uarch::UopSpec *fused = nullptr;
};

/**
 * A benchmark run template: the decoded body, logically repeatable any
 * number of times.
 */
class DecodedKernel
{
  public:
    DecodedKernel(const uarch::TimingDb &timing, const isa::Kernel &body);

    DecodedKernel(const DecodedKernel &) = delete;
    DecodedKernel &operator=(const DecodedKernel &) = delete;

    size_t bodySize() const { return body_.size(); }

    /** Virtual stream length for @p body_reps body copies. */
    size_t
    totalSize(int body_reps) const
    {
        return body_.size() * static_cast<size_t>(body_reps);
    }

    /** Decode entry of body instruction @p i (< bodySize()). Stream
     *  index v runs body instruction v % bodySize(); the pipeline
     *  keeps that index as it issues instead of dividing. */
    const DecodedInstr &at(size_t i) const { return body_[i]; }

    /** Temporaries a rename plan names (one past the largest index). */
    size_t numTemps() const { return num_temps_; }

  private:
    DecodedInstr decodeOne(const isa::InstrInstance &inst);

    /** Rename plan of @p spec as a µop of @p inst; @p merges adds the
     *  partial-register and dirty-upper merge reads. */
    UopPlan planUop(const isa::InstrInstance &inst,
                    const uarch::UopSpec &spec, int skip_unit,
                    bool merges);

    /** Macro-fusion eligibility (moved here from the pipeline; the
     *  decision is static per instance pair). */
    bool canFuse(const isa::InstrInstance &prod,
                 const isa::InstrInstance &branch) const;

    /** Build (and own) the fused-pair spec, nullptr when not fusible. */
    const uarch::UopSpec *fusedSpec(const isa::InstrInstance &prod,
                                    const isa::InstrInstance &branch);

    const uarch::TimingDb &timing_;
    const uarch::UArchInfo &info_;
    std::vector<DecodedInstr> body_;
    std::vector<std::unique_ptr<uarch::UopSpec>> fused_specs_;
    size_t num_temps_ = 0;
};

} // namespace uops::sim

#endif // UOPS_SIM_DECODED_H
