/**
 * @file
 * End-to-end characterization driver.
 *
 * Orchestrates the full pipeline of the paper for one uarch:
 * instrument calibration, blocking-instruction discovery (SSE and AVX
 * sets), then per instruction variant: latency pairs (Section 5.2),
 * port usage (Algorithm 1, using the measured maximum latency for
 * blockRep), measured throughput (5.3.1) and the throughput computed
 * from the port usage (5.3.2). Results are emitted in a
 * machine-readable XML format (Section 6.4) and compared against the
 * IACA clone (Table 1).
 * Algorithm 1 and 2 run with the paper's fixed constants, so results
 * are a pure function of (instruction DB, uarch, variant filter).
 */

#ifndef UOPS_CORE_CHARACTERIZE_H
#define UOPS_CORE_CHARACTERIZE_H

#include <functional>
#include <memory>

#include "core/blocking.h"
#include "core/latency.h"
#include "core/port_usage.h"
#include "core/throughput.h"
#include "iaca/iaca.h"
#include "support/xml.h"

namespace uops::core {

/** Everything measured for one instruction variant. */
struct InstrCharacterization
{
    const isa::InstrVariant *variant = nullptr;
    LatencyResult latency;
    PortUsageResult ports;
    ThroughputResult throughput;

    /** Intel-definition throughput from the port usage (the port
     *  bound of Section 5.3.2); absent for divider instructions. */
    std::optional<Cycles> tp_ports;
};

/** Full result set for one microarchitecture. */
struct CharacterizationSet
{
    uarch::UArch arch = uarch::UArch::Nehalem;
    std::vector<InstrCharacterization> instrs;
    ChainInstruments instruments;
    BlockingSet sse_blocking;
    BlockingSet avx_blocking;

    const InstrCharacterization *
    find(const std::string &variant_name) const
    {
        for (const auto &c : instrs)
            if (c.variant->name() == variant_name)
                return &c;
        return nullptr;
    }
};

/**
 * The tool driver for one microarchitecture.
 */
class Characterizer
{
  public:
    struct Options
    {
        /** Only characterize variants accepted by this predicate
         *  (nullptr: all measurable variants). */
        std::function<bool(const isa::InstrVariant &)> filter;
    };

    Characterizer(const isa::InstrDb &db, uarch::UArch arch,
                  Options options = {});

    /** True when the tool measures this variant on this uarch. */
    bool isMeasurable(const isa::InstrVariant &variant) const;

    /** Run the full characterization. */
    CharacterizationSet run() const;

    /** Characterize a single variant (blocking sets built on demand). */
    InstrCharacterization characterize(
        const isa::InstrVariant &variant) const;

    /**
     * Run instrument calibration and blocking-instruction discovery
     * now instead of on the first characterize() call. Idempotent.
     */
    void prepare() const;

    /**
     * Adopt the completed setup of @p other (same db and uarch)
     * instead of rediscovering it. Setup is a deterministic function
     * of (db, uarch), so results are unchanged; the batch engine uses
     * this to pay the discovery cost once per uarch rather than once
     * per worker thread.
     */
    void primeFrom(const Characterizer &other) const;

    /**
     * Attach a measurement memo-cache to the harness (nullptr
     * detaches). Cached results are bit-identical to recomputation,
     * so attaching a cache never changes results; the batch engine
     * shares one cache across all workers and uarches. Characterizers
     * sharing a cache must share one instruction database.
     */
    void setMeasurementCache(sim::MeasurementCache *cache);

  private:
    void ensureSetup() const;

    const isa::InstrDb &db_;
    uarch::UArch arch_;
    Options options_;
    uarch::TimingDb timing_;
    sim::MeasurementHarness harness_;

    mutable bool setup_done_ = false;
    mutable ChainInstruments instruments_;
    mutable std::unique_ptr<BlockingSet> sse_blocking_;
    mutable std::unique_ptr<BlockingSet> avx_blocking_;
};

/** Machine-readable XML for one uarch's results (Section 6.4). */
std::unique_ptr<XmlNode> exportResultsXml(const CharacterizationSet &set);

/**
 * Hardware-vs-IACA agreement metrics (Table 1).
 */
struct IacaComparison
{
    int variants_compared = 0;   ///< supported by both tools
    int excluded_prefix = 0;     ///< REP/LOCK-prefixed (excluded)
    int uops_same = 0;           ///< same µop count (any version)
    int ports_compared = 0;      ///< same-count variants
    int ports_same = 0;          ///< same port usage (any version)

    double uopsAgreement() const;  ///< percentage, col 5 of Table 1
    double portsAgreement() const; ///< percentage, col 6 of Table 1
};

/** Compare a characterization set against all IACA versions. */
IacaComparison compareWithIaca(const isa::InstrDb &db,
                               const CharacterizationSet &set);

} // namespace uops::core

#endif // UOPS_CORE_CHARACTERIZE_H
