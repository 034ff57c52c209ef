/**
 * @file
 * IACA clone: a static loop-kernel analyzer with versioned defects.
 *
 * The paper runs every generated microbenchmark both on hardware and
 * on top of Intel IACA 2.1/2.2/2.3/3.0, then quantifies agreement
 * (Table 1) and documents IACA's defects (Section 7.2). Since IACA is
 * closed source, this project substitutes a clone that reproduces the
 * *kinds* and *rates* of those defects through an explicit, versioned
 * bug registry:
 *
 *  - missing load µops for some memory-reading instructions
 *    (IMUL mem on Nehalem);
 *  - spurious store-address/store-data µops (TEST mem, R on Nehalem);
 *  - per-width blind spots (BSWAP r32 reported with the r64 µops on
 *    Skylake);
 *  - a total-µop vs per-port-sum mismatch for VHADDPD on Skylake;
 *  - version-specific port sets (VMINPS p015 in "2.3" but p01 in
 *    "3.0"; SAHF p06 in "2.1" but p0156 in "2.2"+ on Haswell);
 *  - ignored status-flag dependencies in "3.0" (CMC throughput 0.25)
 *    and ignored memory dependencies in all versions (store+load
 *    round trip reported as throughput 1);
 *  - latency analysis only in "2.1" (dropped later, as in IACA 2.2),
 *    with memory-operand latencies obtained by adding the load
 *    latency to the full register latency (AESDEC mem: 13);
 *  - REP- and LOCK-prefixed instructions with wrong µop counts;
 *  - plus a deterministic, seeded background perturbation calibrated
 *    so the agreement rates land in the bands of Table 1.
 */

#ifndef UOPS_IACA_IACA_H
#define UOPS_IACA_IACA_H

#include <array>
#include <optional>

#include "isa/kernel.h"
#include "uarch/timing_db.h"
#include "uarch/uarch.h"

namespace uops::iaca {

/** Modeled IACA releases. */
enum class Version { V21, V22, V23, V30 };

/** "2.1" etc. */
std::string versionName(Version v);

/** Versions supporting a microarchitecture (Table 1, column 4). */
std::vector<Version> versionsFor(uarch::UArch arch);

/** The clone's per-instruction model (post bug registry). */
struct IacaInstrModel
{
    int total_uops = 0;            ///< reported total µop count
    uarch::PortUsage usage;        ///< reported port usage
    std::optional<int> latency;    ///< only in V21
};

/** Report for a loop kernel. */
struct IacaReport
{
    double block_throughput = 0.0;
    std::array<double, 8> port_pressure{};
    int total_uops = 0;
    std::optional<double> latency; ///< V21 only
    std::vector<IacaInstrModel> instrs;
};

/**
 * The analyzer: one instance per (uarch, version).
 */
class IacaAnalyzer
{
  public:
    IacaAnalyzer(const isa::InstrDb &db, uarch::UArch arch, Version v);

    uarch::UArch arch() const { return arch_; }
    Version version() const { return version_; }

    /** The (possibly wrong) model for one instruction variant. */
    IacaInstrModel model(const isa::InstrVariant &variant) const;

    /** Analyze a kernel as a loop body (averages per iteration). */
    IacaReport analyzeLoop(const isa::Kernel &kernel) const;

  private:
    const isa::InstrDb &db_;
    uarch::UArch arch_;
    Version version_;
    uarch::TimingDb timing_;
};

} // namespace uops::iaca

#endif // UOPS_IACA_IACA_H
