/**
 * @file
 * Architectural register model for the x86 subset.
 *
 * Registers are identified by a class (width/kind) and an index within
 * the class. Several classes alias the same underlying renameable
 * entity (e.g. AL/AX/EAX/RAX all alias GPR base 0); the simulator
 * tracks dependencies at the granularity of "architectural units"
 * (ArchUnit), which this header defines. Status flags are split into
 * the three independently renamed groups found on Intel hardware
 * (CF; AF; and the SF/ZF/PF/OF group), so partial-flag dependencies
 * such as CMC's carry-only update are modeled faithfully.
 */

#ifndef UOPS_ISA_REGISTERS_H
#define UOPS_ISA_REGISTERS_H

#include <cstdint>
#include <optional>
#include <string>

namespace uops::isa {

/** Register classes (operand widths/kinds). */
enum class RegClass : uint8_t {
    Gpr8,     ///< AL, BL, CL, ... (low byte)
    Gpr8High, ///< AH, BH, CH, DH
    Gpr16,    ///< AX, BX, ...
    Gpr32,    ///< EAX, EBX, ...
    Gpr64,    ///< RAX, RBX, ...
    Mmx,      ///< MM0..MM7
    Xmm,      ///< XMM0..XMM15
    Ymm,      ///< YMM0..YMM15
    None,
};

/** Number of architectural registers in a class. */
int regClassCount(RegClass cls);

/** Width of a register class, in bits. */
int regClassWidth(RegClass cls);

/** True for the general-purpose classes (any width). */
bool isGprClass(RegClass cls);

/** True for the SIMD vector classes (XMM/YMM). */
bool isVecClass(RegClass cls);

/** Short name for diagnostics, e.g. "GPR64". */
std::string regClassName(RegClass cls);

/** A concrete architectural register: class plus index. */
struct Reg
{
    RegClass cls = RegClass::None;
    int index = -1;

    bool valid() const { return cls != RegClass::None && index >= 0; }
    bool operator==(const Reg &other) const = default;
};

/** Intel-syntax name, e.g. "RAX", "XMM3", "AH". */
std::string regName(const Reg &reg);

/** Parse an Intel-syntax register name; nullopt when unknown. */
std::optional<Reg> parseRegName(const std::string &name);

/**
 * Renameable architectural units.
 *
 * Unit ids:
 *   0..15   GPR bases (RAX..R15; all width views alias the base)
 *   16..23  MMX registers
 *   24..39  vector registers (XMM/YMM alias the same unit)
 *   40      CF   (carry flag, renamed separately)
 *   41      AF   (adjust flag)
 *   42      SPAZO (SF/ZF/PF/OF group)
 */
using ArchUnit = int;

constexpr ArchUnit kUnitGprBase = 0;
constexpr ArchUnit kUnitMmxBase = 16;
constexpr ArchUnit kUnitVecBase = 24;
constexpr ArchUnit kUnitFlagCf = 40;
constexpr ArchUnit kUnitFlagAf = 41;
constexpr ArchUnit kUnitFlagSpazo = 42;
constexpr int kNumArchUnits = 43;

/** Unit that a register renames to. */
ArchUnit regUnit(const Reg &reg);

/** Units of a FlagMask, held inline (at most the three flag groups)
 *  so that iterating a mask never allocates. */
class FlagUnits
{
  public:
    const ArchUnit *begin() const { return units_; }
    const ArchUnit *end() const { return units_ + size_; }
    size_t size() const { return size_; }

  private:
    friend struct FlagMask;
    void push_back(ArchUnit unit) { units_[size_++] = unit; }

    ArchUnit units_[3] = {};
    uint8_t size_ = 0;
};

/**
 * Bitmask over the three flag groups.
 *
 * DSL letters: C -> CF, A -> AF, and any of S/P/Z/O -> the SPAZO group.
 */
struct FlagMask
{
    bool cf = false;
    bool af = false;
    bool spazo = false;

    bool any() const { return cf || af || spazo; }
    bool operator==(const FlagMask &other) const = default;

    /** Units covered by this mask. */
    FlagUnits units() const;

    /** Parse DSL letters ("CAPZSO" subsets). */
    static FlagMask fromLetters(const std::string &letters);
};

} // namespace uops::isa

#endif // UOPS_ISA_REGISTERS_H
