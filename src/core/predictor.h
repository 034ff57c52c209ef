/**
 * @file
 * Performance-prediction tool (the paper's concluding deliverable:
 * "We have also implemented a performance-prediction tool similar to
 * Intel's IACA supporting all Intel Core microarchitectures,
 * exploiting the results obtained in the present work").
 *
 * Unlike the IACA clone (which models the closed-source tool with its
 * documented defects), this predictor consumes the *measured*
 * characterization data — per-pair latencies, inferred port usage,
 * store-forwarding behaviour — and statically predicts the steady-state
 * throughput of a loop kernel. The port and dependency bounds come
 * from the loop model it shares with the clone (uarch::loopModel):
 *
 *   - port-pressure bound: the port bound of Section 5.3.2 over the
 *     combined µop port usage of the body, with its most balanced
 *     per-port loads;
 *   - dependency bound: the model's two-pass loop-carried growth
 *     through registers, flags AND memory, using the measured
 *     per-(source,destination)-pair latencies (precisely the two
 *     things IACA gets wrong, Section 7.2); every destination is timed
 *     from the instruction's inputs;
 *   - front-end bound: issue width;
 *   - divider occupancy bound.
 *
 * The prediction is validated against the simulated hardware in the
 * test suite.
 */

#ifndef UOPS_CORE_PREDICTOR_H
#define UOPS_CORE_PREDICTOR_H

#include <array>

#include "core/characterize.h"

namespace uops::core {

/** Static throughput prediction for a loop body. */
struct Prediction
{
    double block_throughput = 0.0;  ///< cycles per iteration
    double port_bound = 0.0;
    double dependency_bound = 0.0;
    double frontend_bound = 0.0;
    double divider_bound = 0.0;
    std::array<double, 8> port_pressure{};
    /** "ports" | "dependencies" | "front end" | "divider". */
    std::string bottleneck;

    std::string toString() const;
};

/**
 * IACA-style analyzer over measured characterization data.
 */
class PerformancePredictor
{
  public:
    /**
     * @param set Characterization results covering (at least) the
     *            instructions appearing in analyzed kernels.
     */
    explicit PerformancePredictor(const CharacterizationSet &set);

    /** Predict the steady-state cost of @p kernel as a loop body. */
    Prediction analyzeLoop(const isa::Kernel &kernel) const;

  private:
    const CharacterizationSet &set_;
    const uarch::UArchInfo &info_;
};

} // namespace uops::core

#endif // UOPS_CORE_PREDICTOR_H
