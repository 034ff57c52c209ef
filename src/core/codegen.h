/**
 * @file
 * Microbenchmark code generation: operand allocation and instruments.
 *
 * The algorithms of Section 5 automatically generate assembler code;
 * this module provides the pieces they share:
 *
 *  - register pools that hand out architectural registers such that
 *    benchmark instructions are independent (for throughput / blocking
 *    sequences) or chained (for latency),
 *  - construction of independent instruction instances with round-robin
 *    operand assignment,
 *  - the chain-instrument inventory (MOVSX, TEST, CMOVcc, PSHUFD,
 *    SHUFPS/VPERMILPS, MOVD/MOVQ, double-XOR, AND/OR value-pinning)
 *    together with their calibrated latencies.
 */

#ifndef UOPS_CORE_CODEGEN_H
#define UOPS_CORE_CODEGEN_H

#include <optional>
#include <vector>

#include "isa/kernel.h"
#include "sim/harness.h"
#include "uarch/uarch.h"

namespace uops::core {

/**
 * Hands out registers from a class-partitioned pool.
 *
 * Two disjoint pools exist by convention: pool A (for the instruction
 * under analysis) and pool B (for blocking/filler instructions), so
 * generated code never aliases between the two roles. RSP/RBP and two
 * harness-reserved registers (R14/R15) are never allocated, matching
 * the reservation described in Section 6.2.
 */
class RegPool
{
  public:
    enum class Zone { Analyzed, Filler };

    explicit RegPool(Zone zone);

    /**
     * Next *destination* register of @p cls (round-robin over the
     * zone's write sub-pool). Reuse across a sequence only creates
     * WAW dependencies, which renaming eliminates.
     */
    isa::Reg next(isa::RegClass cls);

    /**
     * Next *source-only* register of @p cls: drawn from a sub-pool
     * that next() never hands out, so pure sources are never written
     * by the generated sequence (no read-after-write hazards,
     * Section 5.3.1).
     */
    isa::Reg nextSrc(isa::RegClass cls);

    /** Exclude a specific register (e.g. implicit XMM0 / CL / RAX). */
    void exclude(const isa::Reg &reg);

    /** Next fresh memory location in this zone. */
    isa::MemLoc nextMem(isa::RegClass base_class = isa::RegClass::Gpr64);

  private:
    std::vector<int> candidates(isa::RegClass cls, bool src) const;
    isa::Reg pick(isa::RegClass cls, bool src);

    Zone zone_;
    std::map<int, size_t> cursor_;        // per-(class,role) round robin
    std::vector<isa::Reg> excluded_;
    int next_mem_tag_;
    std::optional<isa::Reg> mem_base_;
};

/**
 * Build an instance of @p variant whose operands are all independent:
 * register sources/destinations from @p pool (distinct registers),
 * memory operands get a fresh location, immediates a fixed value.
 *
 * Implicit fixed registers are excluded from the pool automatically by
 * the caller's convention (they are what they are).
 */
isa::InstrInstance makeIndependent(const isa::InstrVariant &variant,
                                   RegPool &pool,
                                   isa::DivValueClass div_class =
                                       isa::DivValueClass::None);

/**
 * A sequence of @p count independent instances (round-robin operand
 * sets), used by the throughput measurement (Section 5.3.1) and as
 * blocking-instruction filler (Section 5.1).
 */
isa::Kernel independentSequence(const isa::InstrVariant &variant,
                                RegPool &pool, int count,
                                isa::DivValueClass div_class =
                                    isa::DivValueClass::None);

/**
 * Calibrated chain instruments for one microarchitecture.
 *
 * Latencies are obtained by self-chain measurements where possible
 * (MOVSX, PSHUFD, SHUFPS, pointer-chase loads); TEST is assumed to
 * have latency 1 (it is a simple ALU instruction, and the assumption
 * is validated by the test suite); CMOV chain latencies are derived
 * from a TEST+CMOV round trip.
 */
struct ChainInstruments
{
    const isa::InstrVariant *movsx_r64_r8 = nullptr;
    const isa::InstrVariant *movsx_r64_r16 = nullptr;
    const isa::InstrVariant *movsx_r64_r32 = nullptr;
    const isa::InstrVariant *test_r64 = nullptr;    ///< reg -> flags
    const isa::InstrVariant *cmovb_r64 = nullptr;   ///< CF -> reg
    const isa::InstrVariant *cmovs_r64 = nullptr;   ///< SPAZO -> reg
    const isa::InstrVariant *cmovnz_r64 = nullptr;  ///< SPAZO(Z) -> reg
    const isa::InstrVariant *pshufd = nullptr;      ///< int xmm shuffle
    const isa::InstrVariant *shufps = nullptr;      ///< fp xmm shuffle
    const isa::InstrVariant *vpermilps_x = nullptr; ///< fp AVX shuffle
    const isa::InstrVariant *vpermilps_y = nullptr;
    const isa::InstrVariant *vpshufd_x = nullptr;   ///< int AVX shuffle
    const isa::InstrVariant *vpshufd_y = nullptr;   ///< (AVX2)
    const isa::InstrVariant *pshufw_mm = nullptr;   ///< MMX shuffle
    const isa::InstrVariant *xor_r64 = nullptr;     ///< double-XOR trick
    const isa::InstrVariant *mov_load_r64 = nullptr;
    const isa::InstrVariant *and_r64 = nullptr;     ///< divider pinning
    const isa::InstrVariant *or_r64 = nullptr;
    const isa::InstrVariant *andps = nullptr;
    const isa::InstrVariant *orps = nullptr;
    const isa::InstrVariant *movsx_r64_r8_dep = nullptr; // partial fix

    // GPR<->vector transfer instruments for cross-class upper bounds.
    std::vector<const isa::InstrVariant *> to_gpr;   // vec/mmx -> gpr
    std::vector<const isa::InstrVariant *> from_gpr; // gpr -> vec/mmx
    const isa::InstrVariant *movq2dq = nullptr;
    const isa::InstrVariant *movdq2q = nullptr;

    double movsx_lat = 1.0;
    double int_shuffle_lat = 1.0;
    double fp_shuffle_lat = 1.0;
    double test_lat = 1.0;   ///< assumed (see above)
    double cmovb_lat = 1.0;  ///< calibrated via TEST+CMOV round trip
    double cmovs_lat = 1.0;
    double cmovnz_lat = 1.0;
    double load_lat = 4.0;   ///< pointer-chase calibrated
    double xor_lat = 1.0;
    double and_or_lat = 2.0; ///< AND+OR pinning pair
};

/** Look up and calibrate the instruments on @p harness's uarch. */
ChainInstruments calibrateInstruments(
    const sim::MeasurementHarness &harness);

} // namespace uops::core

#endif // UOPS_CORE_CODEGEN_H
