/**
 * @file
 * Throughput measurement and computation (Section 5.3).
 *
 * Measured throughput (Fog's Definition 2): sequences of 1, 2, 4 and 8
 * independent instances of the instruction (registers and memory
 * locations chosen to avoid read-after-write dependencies), cycles per
 * instruction, minimum over the sequence lengths. For instructions
 * with implicit read-written operands, additional sequences with
 * interleaved dependency-breaking instructions are measured (the
 * breakers consume execution resources, so this does not always help
 * — both values are reported). Divider instructions are measured with
 * fast and slow operand values.
 *
 * Computed throughput (Intel's Definition 1): from the inferred port
 * usage, the minimum over all feasible µop-to-port assignments of the
 * maximum per-port load (Section 5.3.2), in closed form as the densest
 * port set (uarch::portLoad). Not applicable to divider instructions.
 */

#ifndef UOPS_CORE_THROUGHPUT_H
#define UOPS_CORE_THROUGHPUT_H

#include <optional>

#include "core/codegen.h"
#include "sim/harness.h"
#include "support/cycles.h"
#include "uarch/timing.h"

namespace uops::core {

/** Throughput analysis result for one instruction. */
struct ThroughputResult
{
    /** Fog-definition measurement (min over sequence lengths). */
    Cycles measured;

    /** Measurement with interleaved dependency breakers (when the
     *  instruction has implicit read-written operands). */
    std::optional<Cycles> with_breakers;

    /** Divider slow-value measurement. */
    std::optional<Cycles> slow_measured;

    /** Per-sequence-length raw values (diagnostics). */
    std::map<int, double> by_length;

    /** Best measured value. */
    Cycles
    best() const
    {
        Cycles v = measured;
        if (with_breakers)
            v = std::min(v, *with_breakers);
        return v;
    }
};

/**
 * Runs the throughput measurements.
 */
class ThroughputAnalyzer
{
  public:
    explicit ThroughputAnalyzer(const sim::MeasurementHarness &harness);

    ThroughputResult analyze(const isa::InstrVariant &variant) const;

    /**
     * Intel-definition throughput from the port usage: the port bound
     * of Section 5.3.2 (uarch::portLoad).
     */
    static double computeFromPortUsage(const uarch::PortUsage &usage,
                                       int num_ports);

  private:
    double measureSequence(const isa::InstrVariant &variant, int length,
                           bool with_breakers,
                           isa::DivValueClass div_class) const;

    const sim::MeasurementHarness &harness_;
};

} // namespace uops::core

#endif // UOPS_CORE_THROUGHPUT_H
