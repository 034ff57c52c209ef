/**
 * @file
 * Instruction variants and the instruction database.
 *
 * An InstrVariant corresponds to one entry of the machine-readable
 * instruction description the paper derives from the XED configuration
 * (Section 6.1): a mnemonic plus a specific combination of operand
 * types/widths, together with the attributes the characterization
 * algorithms need (divider usage, zero-idiom behaviour, serializing,
 * system instruction, ...).
 */

#ifndef UOPS_ISA_INSTRUCTION_H
#define UOPS_ISA_INSTRUCTION_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "isa/operand.h"

namespace uops::isa {

/** ISA extension an instruction belongs to (gates per-uarch availability). */
enum class Extension : uint8_t {
    Base,   ///< Always available.
    Mmx,
    Sse,
    Sse2,
    Sse3,
    Ssse3,
    Sse41,
    Sse42,
    Aes,    ///< AES-NI, Westmere+.
    Clmul,  ///< PCLMULQDQ, Westmere+.
    Avx,    ///< Sandy Bridge+.
    F16c,   ///< Ivy Bridge+.
    Avx2,   ///< Haswell+.
    Bmi1,   ///< Haswell+.
    Bmi2,   ///< Haswell+.
    Fma,    ///< Haswell+.
    Adx,    ///< Broadwell+.
    Sgx,    ///< Skylake+ (stand-in for the SKL additions).
};

/** Parse/print extension names used in the DSL. */
Extension parseExtension(const std::string &name);
std::string extensionName(Extension ext);

/** Boolean attributes referenced by the measurement algorithms. */
struct InstrAttributes
{
    /** Uses the (not fully pipelined) divider unit; value-dependent. */
    bool uses_divider = false;

    /** System instruction (excluded from blocking candidates). */
    bool is_system = false;

    /** Serializing instruction (drains the pipeline). */
    bool is_serializing = false;

    /** Control-flow instruction (branch/jump with immediate target). */
    bool is_branch = false;

    /**
     * Control flow depending on a register value (indirect JMP/CALL,
     * RET); excluded from blocking candidates (Section 5.1.1).
     */
    bool is_cf_reg = false;

    /** The PAUSE instruction (explicitly excluded). */
    bool is_pause = false;

    /** NOP-like: eliminated in the reorder buffer, no ports used. */
    bool is_nop = false;

    /**
     * Zero idiom: with identical register operands the result is
     * constant, the dependency is broken, and (on supporting uarches)
     * no execution port is used (XOR R,R / SUB R,R / PXOR X,X ...).
     */
    bool zero_idiom = false;

    /**
     * Dependency-breaking idiom with identical registers, but still
     * executed on a port ((V)PCMPGTx, Section 7.3.6).
     */
    bool dep_breaking_same_reg = false;

    /** Register-to-register MOV eligible for move elimination. */
    bool mov_elim_candidate = false;

    /** LOCK-prefixed variant (excluded from the IACA µop comparison). */
    bool has_lock_prefix = false;

    /** REP-prefixed variant (variable µop count; excluded likewise). */
    bool has_rep_prefix = false;

    /** VEX-encoded (AVX); selects the AVX blocking-instruction set. */
    bool is_avx = false;
};

/**
 * One instruction variant (mnemonic + operand signature).
 */
class InstrVariant
{
  public:
    InstrVariant(int id, std::string mnemonic,
                 std::vector<OperandSpec> operands, Extension ext,
                 InstrAttributes attrs);

    int id() const { return id_; }
    const std::string &mnemonic() const { return mnemonic_; }

    /** Unique variant name, e.g. "ADD_R64_R64" or "DIV_R64". */
    const std::string &name() const { return name_; }

    const std::vector<OperandSpec> &operands() const { return operands_; }
    const OperandSpec &operand(size_t i) const { return operands_[i]; }
    size_t numOperands() const { return operands_.size(); }

    Extension extension() const { return ext_; }
    const InstrAttributes &attrs() const { return attrs_; }

    /** Indices of operands that are read (sources). */
    std::vector<int> sourceOperands() const;

    /** Indices of operands that are written (destinations). */
    std::vector<int> destOperands() const;

    /** Indices of explicit operands, in syntax order (computed once:
     *  the benchmark generators ask for them per built instance). */
    const std::vector<int> &explicitOperands() const { return explicit_; }

    /** Index of the flags pseudo-operand, or -1. */
    int flagsOperand() const;

    /** Index of the first memory operand, or -1. */
    int memOperand() const;

    /** True when any operand reads memory / writes memory. */
    bool readsMemory() const;
    bool writesMemory() const;

    /** True when any operand is a vector (XMM/YMM) register. */
    bool hasVecOperand() const;

  private:
    int id_;
    std::string mnemonic_;
    std::string name_;
    std::vector<OperandSpec> operands_;
    std::vector<int> explicit_;
    Extension ext_;
    InstrAttributes attrs_;
};

/**
 * The instruction database: owns all variants, provides lookups.
 */
class InstrDb
{
  public:
    InstrDb() = default;
    InstrDb(const InstrDb &) = delete;
    InstrDb &operator=(const InstrDb &) = delete;

    /** Add a variant; fails on duplicate names. */
    const InstrVariant &add(std::string mnemonic,
                            std::vector<OperandSpec> operands,
                            Extension ext, InstrAttributes attrs);

    size_t size() const { return variants_.size(); }

    /** Lookup by unique variant name; nullptr when absent. */
    const InstrVariant *byName(const std::string &name) const;

    /** All variants of a mnemonic (empty when unknown). */
    std::vector<const InstrVariant *>
    byMnemonic(const std::string &mnemonic) const;

    /** All variants, in id order. */
    std::vector<const InstrVariant *> all() const;

  private:
    std::vector<std::unique_ptr<InstrVariant>> variants_;
    std::map<std::string, const InstrVariant *> by_name_;
    std::map<std::string, std::vector<const InstrVariant *>> by_mnemonic_;
};

} // namespace uops::isa

#endif // UOPS_ISA_INSTRUCTION_H
