#include "operand.h"

#include "support/status.h"

namespace uops::isa {

int
OperandSpec::effectiveWidth() const
{
    if (kind == OpKind::Reg)
        return regClassWidth(reg_class);
    return width;
}

std::string
OperandSpec::typeTag() const
{
    switch (kind) {
      case OpKind::Reg:
        switch (reg_class) {
          case RegClass::Gpr8: return "R8";
          case RegClass::Gpr8High: return "R8H";
          case RegClass::Gpr16: return "R16";
          case RegClass::Gpr32: return "R32";
          case RegClass::Gpr64: return "R64";
          case RegClass::Mmx: return "MM";
          case RegClass::Xmm: return "X";
          case RegClass::Ymm: return "Y";
          case RegClass::None: break;
        }
        panic("typeTag: invalid register class");
      case OpKind::Mem:
        return "M" + std::to_string(width);
      case OpKind::Imm:
        return "I" + std::to_string(width);
      case OpKind::Flags:
        return "F";
    }
    panic("typeTag: unreachable");
}

} // namespace uops::isa
