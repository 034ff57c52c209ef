/**
 * @file
 * Ground-truth µop timing model.
 *
 * Every (microarchitecture, instruction variant) pair maps to a
 * TimingInfo: the list of µops the instruction decodes into, each with
 * an allowed-port set, a dataflow signature (which operands / internal
 * temporaries it reads and writes), a latency per written value, an
 * execution domain (for bypass delays), and divider occupancy for the
 * not-fully-pipelined divide/sqrt µops.
 *
 * The per-(source,destination)-operand-pair latency of the paper's
 * refined definition (Section 4.1) *emerges* from this dataflow graph
 * as a longest path; trueLatency() computes it analytically, and the
 * simulator realizes it cycle by cycle. This is the mechanism behind
 * the AESDEC case study (Section 7.3.1): on Sandy Bridge the
 * instruction is a 7-cycle µop feeding a 1-cycle XOR µop, so
 * lat(XMM1->XMM1) = 8 while lat(XMM2->XMM1) = 1.
 */

#ifndef UOPS_UARCH_TIMING_H
#define UOPS_UARCH_TIMING_H

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "isa/instruction.h"
#include "uarch/uarch.h"

namespace uops::uarch {

/** Reference to a value read or written by a µop. */
struct OpRef
{
    enum class Kind : uint8_t {
        Operand, ///< Instruction operand (registers, flags) by index.
        MemAddr, ///< Address (base register) of memory operand @c index.
        MemData, ///< Memory contents of memory operand @c index.
        Temp,    ///< Intra-instruction temporary number @c index.
    };

    Kind kind = Kind::Operand;
    int index = 0;

    static OpRef operand(int i) { return {Kind::Operand, i}; }
    static OpRef memAddr(int i) { return {Kind::MemAddr, i}; }
    static OpRef memData(int i) { return {Kind::MemData, i}; }
    static OpRef temp(int i) { return {Kind::Temp, i}; }

    bool operator==(const OpRef &other) const = default;
};

/** Execution domain of a µop (bypass-delay classification). */
enum class Domain : uint8_t {
    Gpr,   ///< Integer / general-purpose.
    IVec,  ///< Vector integer.
    FVec,  ///< Vector floating point.
    Load,  ///< Load unit.
    Sta,   ///< Store-address AGU.
    Std,   ///< Store-data unit.
};

/** One µop of an instruction. */
struct UopSpec
{
    PortMask ports = 0;           ///< Allowed execution ports.
    std::vector<OpRef> reads;     ///< Consumed values.
    std::vector<OpRef> writes;    ///< Produced values.
    int latency = 1;              ///< Dispatch-to-ready cycles.

    /** Optional per-write extra latency (parallel to writes; values
     *  add to @c latency). Used for e.g. late flag results. */
    std::vector<int> write_extra;

    Domain domain = Domain::Gpr;

    /** For divider µops: cycles the (unpipelined) divider is busy. */
    int div_occupancy = 0;

    /** Divider value dependence: latency/occupancy for slow inputs
     *  (0 = same as fast). */
    int latency_slow = 0;
    int div_occupancy_slow = 0;

    /** Latency of write @p w for the given value class. */
    int writeLatency(size_t w, bool slow) const;

    bool operator==(const UopSpec &other) const = default;
};

/** Complete timing of one instruction variant on one uarch. */
struct TimingInfo
{
    std::vector<UopSpec> uops;

    /**
     * With identical register operands the instruction is a zero
     * idiom: input dependencies are broken, and on uarches with
     * zero-idiom elimination no µop executes.
     */
    bool zero_idiom = false;

    /** Dependency broken with identical registers, µops still run. */
    bool dep_breaking_same_reg = false;

    /** Candidate for move elimination in the ROB. */
    bool mov_elim = false;

    /** Alternative timing when both register operands are identical
     *  (e.g. SHLD on Skylake, Section 7.3.2). */
    std::optional<std::vector<UopSpec>> same_reg_uops;

    /** Total µop count (execution µops). */
    int numUops() const { return static_cast<int>(uops.size()); }

    /** Maximum latency over all µop writes (used for blockRep). */
    int maxLatency() const;

    bool operator==(const TimingInfo &other) const = default;
};

/**
 * Port usage as inferred/reported: (port set -> µop count) pairs,
 * sorted by mask. Rendered like the paper: "3*p015+1*p23".
 */
struct PortUsage
{
    std::vector<std::pair<PortMask, int>> entries;

    void add(PortMask mask, int count);
    int totalUops() const;
    bool operator==(const PortUsage &other) const;
    std::string toString() const;

    /**
     * Parse a toString() rendering ("3*p015+1*p23"; "-" is empty).
     * The inverse used by the results-XML ingest path.
     *
     * @throws FatalError on malformed input.
     */
    static PortUsage fromString(const std::string &text);

    /** Ground-truth usage of a timing (µops grouped by port set). */
    static PortUsage ofTiming(const std::vector<UopSpec> &uops);
};

/** The optimal µop-to-port assignment of a PortUsage. */
struct PortLoad
{
    /** Smallest achievable maximum per-port load: the throughput in
     *  cycles per instruction by Intel's definition (Definition 1). */
    double bottleneck = 0.0;

    /** The most balanced optimal load of each port. */
    std::array<double, 8> per_port{};
};

/**
 * The port bound of Section 5.3.2 in closed form.
 *
 * The paper minimises the largest per-port load over all ways of
 * assigning µops to their allowed ports. By max-flow/min-cut duality
 * that optimum is the densest port set: the maximum over non-empty
 * sets S of demand(S) / |S|, where demand(S) counts the µops whose
 * ports all lie in S. The per-port loads peel densest sets off in
 * turn, each at its own density, which makes them the unique most
 * balanced optimum, independent of entry order.
 *
 * @pre Every mask is non-empty and within the first @p num_ports
 *      ports, and 1 <= @p num_ports <= 8.
 */
PortLoad portLoad(const PortUsage &usage, int num_ports);

/**
 * Longest-path latency from source operand @p src_op to destination
 * operand @p dst_op through the µop dataflow graph.
 *
 * For memory source operands the path starts at the address register
 * (MemAddr), matching how the measurement chains are built; the load
 * latency itself is part of the load µop. Returns nullopt when the
 * destination does not depend on the source.
 *
 * @param uops   µop list (instruction timing).
 * @param src_op Operand index of the source.
 * @param dst_op Operand index of the destination.
 * @param slow   Divider value class.
 */
std::optional<int> trueLatency(const std::vector<UopSpec> &uops,
                               int src_op, int dst_op, bool slow = false);

/** All ports used by any µop of @p uops. */
PortMask timingPorts(const std::vector<UopSpec> &uops);

} // namespace uops::uarch

#endif // UOPS_UARCH_TIMING_H
