/**
 * @file
 * Operand specifications for instruction variants.
 *
 * Mirrors the information the paper extracts from the XED configuration
 * files (Section 6.1): operand kind (register/memory/immediate/flags),
 * width, read/write direction, and whether the operand is explicit or
 * implicit (including implicit fixed registers such as RAX for MUL and
 * the status-flags pseudo-operand).
 */

#ifndef UOPS_ISA_OPERAND_H
#define UOPS_ISA_OPERAND_H

#include <string>

#include "isa/registers.h"

namespace uops::isa {

/** Kind of an instruction operand. */
enum class OpKind : uint8_t {
    Reg,   ///< Register operand of a given RegClass.
    Mem,   ///< Memory operand ([base] addressing only, per Section 8).
    Imm,   ///< Immediate operand.
    Flags, ///< Status-flags pseudo-operand (always implicit).
};

/**
 * Static description of one operand of an instruction variant.
 */
struct OperandSpec
{
    OpKind kind = OpKind::Reg;

    /** Register class for Reg operands. */
    RegClass reg_class = RegClass::None;

    /** Access width in bits (memory/immediate; registers derive it). */
    int width = 0;

    bool read = false;
    bool written = false;

    /** Implicit operands do not appear in the assembler syntax. */
    bool implicit = false;

    /**
     * For implicit register operands pinned to a fixed architectural
     * register (e.g. RAX/RDX for MUL, CL for shift counts): the index
     * within reg_class. -1 when the operand is freely assignable.
     */
    int fixed_reg = -1;

    /** Flag groups read/written (Flags operands only). */
    FlagMask flags_read;
    FlagMask flags_written;

    /** Width in bits (registers via their class, others via width). */
    int effectiveWidth() const;

    /** True when both read and written. */
    bool readWritten() const { return read && written; }

    /** Short type tag used in variant names, e.g. "R64", "M32", "I8". */
    std::string typeTag() const;
};

} // namespace uops::isa

#endif // UOPS_ISA_OPERAND_H
