#include "registers.h"

#include <array>

#include "support/status.h"
#include "support/strings.h"

namespace uops::isa {

namespace {

const std::array<std::string, 16> kGpr64Names = {
    "RAX", "RCX", "RDX", "RBX", "RSP", "RBP", "RSI", "RDI",
    "R8",  "R9",  "R10", "R11", "R12", "R13", "R14", "R15"};

const std::array<std::string, 16> kGpr32Names = {
    "EAX", "ECX", "EDX", "EBX", "ESP",  "EBP",  "ESI",  "EDI",
    "R8D", "R9D", "R10D", "R11D", "R12D", "R13D", "R14D", "R15D"};

const std::array<std::string, 16> kGpr16Names = {
    "AX",  "CX",  "DX",   "BX",   "SP",   "BP",   "SI",   "DI",
    "R8W", "R9W", "R10W", "R11W", "R12W", "R13W", "R14W", "R15W"};

const std::array<std::string, 16> kGpr8Names = {
    "AL",  "CL",  "DL",   "BL",   "SPL",  "BPL",  "SIL",  "DIL",
    "R8B", "R9B", "R10B", "R11B", "R12B", "R13B", "R14B", "R15B"};

const std::array<std::string, 4> kGpr8HighNames = {"AH", "CH", "DH", "BH"};

} // namespace

int
regClassCount(RegClass cls)
{
    switch (cls) {
      case RegClass::Gpr8:
      case RegClass::Gpr16:
      case RegClass::Gpr32:
      case RegClass::Gpr64:
        return 16;
      case RegClass::Gpr8High:
        return 4;
      case RegClass::Mmx:
        return 8;
      case RegClass::Xmm:
      case RegClass::Ymm:
        return 16;
      case RegClass::None:
        return 0;
    }
    return 0;
}

int
regClassWidth(RegClass cls)
{
    switch (cls) {
      case RegClass::Gpr8:
      case RegClass::Gpr8High:
        return 8;
      case RegClass::Gpr16:
        return 16;
      case RegClass::Gpr32:
        return 32;
      case RegClass::Gpr64:
      case RegClass::Mmx:
        return 64;
      case RegClass::Xmm:
        return 128;
      case RegClass::Ymm:
        return 256;
      case RegClass::None:
        return 0;
    }
    return 0;
}

bool
isGprClass(RegClass cls)
{
    switch (cls) {
      case RegClass::Gpr8:
      case RegClass::Gpr8High:
      case RegClass::Gpr16:
      case RegClass::Gpr32:
      case RegClass::Gpr64:
        return true;
      default:
        return false;
    }
}

bool
isVecClass(RegClass cls)
{
    return cls == RegClass::Xmm || cls == RegClass::Ymm;
}

std::string
regClassName(RegClass cls)
{
    switch (cls) {
      case RegClass::Gpr8: return "GPR8";
      case RegClass::Gpr8High: return "GPR8H";
      case RegClass::Gpr16: return "GPR16";
      case RegClass::Gpr32: return "GPR32";
      case RegClass::Gpr64: return "GPR64";
      case RegClass::Mmx: return "MMX";
      case RegClass::Xmm: return "XMM";
      case RegClass::Ymm: return "YMM";
      case RegClass::None: return "NONE";
    }
    return "NONE";
}

std::string
regName(const Reg &reg)
{
    panicIf(!reg.valid() || reg.index >= regClassCount(reg.cls),
            "regName: invalid register");
    switch (reg.cls) {
      case RegClass::Gpr64: return kGpr64Names[reg.index];
      case RegClass::Gpr32: return kGpr32Names[reg.index];
      case RegClass::Gpr16: return kGpr16Names[reg.index];
      case RegClass::Gpr8: return kGpr8Names[reg.index];
      case RegClass::Gpr8High: return kGpr8HighNames[reg.index];
      case RegClass::Mmx: return "MM" + std::to_string(reg.index);
      case RegClass::Xmm: return "XMM" + std::to_string(reg.index);
      case RegClass::Ymm: return "YMM" + std::to_string(reg.index);
      case RegClass::None: break;
    }
    panic("regName: unreachable");
}

std::optional<Reg>
parseRegName(const std::string &name)
{
    std::string up = toUpper(name);
    auto scan = [&](const auto &names, RegClass cls) -> std::optional<Reg> {
        for (size_t i = 0; i < names.size(); ++i)
            if (names[i] == up)
                return Reg{cls, static_cast<int>(i)};
        return std::nullopt;
    };
    if (auto r = scan(kGpr64Names, RegClass::Gpr64))
        return r;
    if (auto r = scan(kGpr32Names, RegClass::Gpr32))
        return r;
    if (auto r = scan(kGpr16Names, RegClass::Gpr16))
        return r;
    if (auto r = scan(kGpr8Names, RegClass::Gpr8))
        return r;
    if (auto r = scan(kGpr8HighNames, RegClass::Gpr8High))
        return r;
    for (const char *prefix : {"MM", "XMM", "YMM"}) {
        if (startsWith(up, prefix)) {
            auto idx = parseInt(up.substr(std::string(prefix).size()));
            if (!idx)
                continue;
            RegClass cls = std::string(prefix) == "MM" ? RegClass::Mmx
                           : std::string(prefix) == "XMM" ? RegClass::Xmm
                                                          : RegClass::Ymm;
            // "MM" must not swallow "XMM"/"YMM".
            if (cls == RegClass::Mmx && up.size() > 2 &&
                !std::isdigit(static_cast<unsigned char>(up[2])))
                continue;
            if (*idx >= 0 && *idx < regClassCount(cls))
                return Reg{cls, static_cast<int>(*idx)};
        }
    }
    return std::nullopt;
}

ArchUnit
regUnit(const Reg &reg)
{
    panicIf(!reg.valid(), "regUnit: invalid register");
    switch (reg.cls) {
      case RegClass::Gpr8:
      case RegClass::Gpr8High:
      case RegClass::Gpr16:
      case RegClass::Gpr32:
      case RegClass::Gpr64:
        return kUnitGprBase + reg.index;
      case RegClass::Mmx:
        return kUnitMmxBase + reg.index;
      case RegClass::Xmm:
      case RegClass::Ymm:
        return kUnitVecBase + reg.index;
      case RegClass::None:
        break;
    }
    panic("regUnit: unreachable");
}

FlagUnits
FlagMask::units() const
{
    FlagUnits out;
    if (cf)
        out.push_back(kUnitFlagCf);
    if (af)
        out.push_back(kUnitFlagAf);
    if (spazo)
        out.push_back(kUnitFlagSpazo);
    return out;
}

FlagMask
FlagMask::fromLetters(const std::string &letters)
{
    FlagMask mask;
    for (char c : toUpper(letters)) {
        switch (c) {
          case 'C': mask.cf = true; break;
          case 'A': mask.af = true; break;
          case 'S':
          case 'P':
          case 'Z':
          case 'O':
            mask.spazo = true;
            break;
          default:
            fatal("unknown flag letter '", std::string(1, c), "'");
        }
    }
    return mask;
}

} // namespace uops::isa
