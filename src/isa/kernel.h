/**
 * @file
 * Concrete instruction instances and benchmark kernels.
 *
 * The microbenchmark generators (Section 5) emit sequences of
 * instruction *instances*: a variant plus concrete operand assignments
 * (registers, abstract memory locations, immediates). A Kernel is such
 * a sequence; the simulator executes kernels, and the pretty-printer
 * renders them as Intel-syntax assembler for reports and debugging.
 */

#ifndef UOPS_ISA_KERNEL_H
#define UOPS_ISA_KERNEL_H

#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "isa/instruction.h"

namespace uops::isa {

/**
 * Value class of divider operands (Section 5.2.5): the latency and
 * throughput of division instructions depend on the operand values, so
 * benchmarks pin operands to known fast or slow values.
 */
enum class DivValueClass : uint8_t {
    None, ///< Not a divider instruction / value-independent.
    Fast, ///< Values giving the minimum latency.
    Slow, ///< Values giving the maximum latency.
};

/**
 * An abstract memory location used by a memory operand.
 *
 * The simulator tracks memory dependencies per location tag; the base
 * register carries the address dependency (only [base] addressing is
 * used, as in Section 8 of the paper).
 */
struct MemLoc
{
    int tag = 0;   ///< Abstract location id (aliasing key).
    Reg base;      ///< Base (address) register.

    bool operator==(const MemLoc &other) const = default;
};

/** Concrete value bound to one operand slot of an instance. */
struct OperandValue
{
    Reg reg;           ///< For Reg operands.
    MemLoc mem;        ///< For Mem operands.
    long imm = 0;      ///< For Imm operands.
};

/** One instruction instance in a benchmark kernel. */
struct InstrInstance
{
    const InstrVariant *variant = nullptr;
    std::vector<OperandValue> ops; ///< Parallel to variant->operands().
    DivValueClass div_class = DivValueClass::None;

    /** Concrete register bound to operand @p i (fixed or assigned). */
    Reg regOf(size_t i) const;

    /** Intel-syntax rendering, e.g. "ADD RAX, [RBX]". */
    std::string toAsm() const;
};

/** A benchmark kernel: straight-line instance sequence. */
using Kernel = std::vector<InstrInstance>;

/** Render a kernel as newline-separated Intel-syntax assembler. */
std::string kernelToAsm(const Kernel &kernel);

/**
 * Build an instance of @p variant with explicit operands taken from
 * @p explicit_values (in syntax order). Implicit fixed registers are
 * filled in automatically; implicit memory operands receive @p
 * implicit_mem.
 */
InstrInstance makeInstance(const InstrVariant &variant,
                           std::span<const OperandValue> explicit_values,
                           const MemLoc &implicit_mem = MemLoc{});

/** makeInstance over a braced list, e.g. {{.reg = a}, {.reg = b}}. */
inline InstrInstance
makeInstance(const InstrVariant &variant,
             std::initializer_list<OperandValue> explicit_values,
             const MemLoc &implicit_mem = MemLoc{})
{
    return makeInstance(variant,
                        std::span<const OperandValue>(
                            explicit_values.begin(),
                            explicit_values.size()),
                        implicit_mem);
}

/**
 * Parse one Intel-syntax assembler line against the database, e.g.
 * "AESDEC XMM1, XMM2" or "MOV RAX, [RBX]".
 *
 * Memory operands are written "[REG]" and receive location tag 0; a
 * "[REG+N]" form selects location tag N. Immediates are decimal.
 *
 * @throws FatalError when no variant matches.
 */
InstrInstance assembleLine(const InstrDb &db, const std::string &line);

/** Assemble a multi-line listing into a kernel ('#' comments allowed). */
Kernel assemble(const InstrDb &db, const std::string &listing);

} // namespace uops::isa

#endif // UOPS_ISA_KERNEL_H
