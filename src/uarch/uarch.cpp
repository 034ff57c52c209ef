#include "uarch.h"

#include <algorithm>
#include <bit>
#include <map>

#include "support/status.h"
#include "support/strings.h"

namespace uops::uarch {

const std::vector<UArch> &
allUArches()
{
    static const std::vector<UArch> all = {
        UArch::Nehalem,     UArch::Westmere, UArch::SandyBridge,
        UArch::IvyBridge,   UArch::Haswell,  UArch::Broadwell,
        UArch::Skylake,     UArch::KabyLake, UArch::CoffeeLake,
    };
    return all;
}

std::string
uarchShortName(UArch arch)
{
    return uarchInfo(arch).short_name;
}

std::string
uarchName(UArch arch)
{
    return uarchInfo(arch).full_name;
}

UArch
parseUArch(const std::string &short_name)
{
    std::string up = toUpper(short_name);
    for (UArch arch : allUArches())
        if (uarchInfo(arch).short_name == up)
            return arch;
    fatal("unknown microarchitecture '", short_name, "'");
}

std::optional<UArch>
uarchFromId(uint64_t id)
{
    for (UArch arch : allUArches())
        if (static_cast<uint64_t>(arch) == id)
            return arch;
    return std::nullopt;
}

PortMask
portMask(std::initializer_list<int> ports)
{
    PortMask mask = 0;
    for (int p : ports) {
        panicIf(p < 0 || p > 15, "portMask: bad port ", p);
        mask |= static_cast<PortMask>(1u << p);
    }
    return mask;
}

std::vector<int>
portsOf(PortMask mask)
{
    std::vector<int> out;
    for (int p = 0; p < 16; ++p)
        if (mask & (1u << p))
            out.push_back(p);
    return out;
}

int
portCount(PortMask mask)
{
    return std::popcount(mask);
}

bool
portsWithin(PortMask mask, int num_ports)
{
    return mask != 0 && (mask >> num_ports) == 0;
}

std::string
portMaskName(PortMask mask)
{
    if (mask == 0)
        return "p-";
    std::string out = "p";
    for (int p : portsOf(mask))
        out += std::to_string(p);
    return out;
}

PortMask
parsePortMask(const std::string &name)
{
    fatalIf(name.empty() || name[0] != 'p', "bad port mask '", name, "'");
    PortMask mask = 0;
    for (size_t i = 1; i < name.size(); ++i) {
        char c = name[i];
        fatalIf(c < '0' || c > '9', "bad port mask '", name, "'");
        mask |= static_cast<PortMask>(1u << (c - '0'));
    }
    return mask;
}

bool
UArchInfo::hasExtension(isa::Extension ext) const
{
    return std::find(extensions.begin(), extensions.end(), ext) !=
           extensions.end();
}

bool
UArchInfo::supports(const isa::InstrVariant &variant) const
{
    return hasExtension(variant.extension());
}

namespace {

using isa::Extension;

std::vector<Extension>
extsUpTo(UArch arch)
{
    std::vector<Extension> exts = {
        Extension::Base,  Extension::Mmx,   Extension::Sse,
        Extension::Sse2,  Extension::Sse3,  Extension::Ssse3,
        Extension::Sse41, Extension::Sse42,
    };
    auto from = [&](UArch first, std::initializer_list<Extension> more) {
        if (static_cast<int>(arch) >= static_cast<int>(first))
            exts.insert(exts.end(), more);
    };
    from(UArch::Westmere, {Extension::Aes, Extension::Clmul});
    from(UArch::SandyBridge, {Extension::Avx});
    from(UArch::IvyBridge, {Extension::F16c});
    from(UArch::Haswell, {Extension::Avx2, Extension::Bmi1,
                          Extension::Bmi2, Extension::Fma});
    from(UArch::Broadwell, {Extension::Adx});
    from(UArch::Skylake, {Extension::Sgx});
    return exts;
}

UArchInfo
makeInfo(UArch arch)
{
    UArchInfo info;
    info.arch = arch;
    info.extensions = extsUpTo(arch);
    info.issue_width = 4;
    info.retire_width = 4;
    info.store_data_ports = portMask({4});
    info.bypass_delay = 1;
    info.store_forward_latency = 5;
    info.gpr_load_latency = 4;
    info.vec_load_latency = 6;
    info.ymm_load_latency = 7;

    bool big_core = static_cast<int>(arch) >= static_cast<int>(UArch::Haswell);
    info.fuses_cmp_jcc = true;
    info.fuses_alu_jcc =
        static_cast<int>(arch) >= static_cast<int>(UArch::SandyBridge);
    info.num_ports = big_core ? 8 : 6;
    info.load_ports = big_core ? portMask({2, 3}) : PortMask{};
    info.store_addr_ports = big_core ? portMask({2, 3, 7}) : PortMask{};

    switch (arch) {
      case UArch::Nehalem:
        info.short_name = "NHM";
        info.full_name = "Nehalem";
        info.processor = "Core i5-750";
        info.rs_size = 36;
        info.rob_size = 128;
        info.load_ports = portMask({2});
        info.store_addr_ports = portMask({3});
        info.gpr_move_elim = false;
        info.vec_move_elim = false;
        info.zero_idiom_elim = false;
        info.sse_avx_transition = false;
        break;
      case UArch::Westmere:
        info.short_name = "WSM";
        info.full_name = "Westmere";
        info.processor = "Core i5-650";
        info.rs_size = 36;
        info.rob_size = 128;
        info.load_ports = portMask({2});
        info.store_addr_ports = portMask({3});
        info.gpr_move_elim = false;
        info.vec_move_elim = false;
        info.zero_idiom_elim = false;
        info.sse_avx_transition = false;
        break;
      case UArch::SandyBridge:
        info.short_name = "SNB";
        info.full_name = "Sandy Bridge";
        info.processor = "Core i7-2600";
        info.rs_size = 54;
        info.rob_size = 168;
        info.load_ports = portMask({2, 3});
        info.store_addr_ports = portMask({2, 3});
        info.gpr_move_elim = false;
        info.vec_move_elim = false;
        info.zero_idiom_elim = true;
        info.sse_avx_transition = true;
        info.gpr_load_latency = 5;
        break;
      case UArch::IvyBridge:
        info.short_name = "IVB";
        info.full_name = "Ivy Bridge";
        info.processor = "Core i5-3470";
        info.rs_size = 54;
        info.rob_size = 168;
        info.load_ports = portMask({2, 3});
        info.store_addr_ports = portMask({2, 3});
        info.gpr_move_elim = true;
        info.vec_move_elim = true;
        info.zero_idiom_elim = true;
        info.sse_avx_transition = true;
        info.gpr_load_latency = 5;
        break;
      case UArch::Haswell:
        info.short_name = "HSW";
        info.full_name = "Haswell";
        info.processor = "Xeon E3-1225 v3";
        info.rs_size = 60;
        info.rob_size = 192;
        info.gpr_move_elim = true;
        info.vec_move_elim = true;
        info.zero_idiom_elim = true;
        info.sse_avx_transition = true;
        break;
      case UArch::Broadwell:
        info.short_name = "BDW";
        info.full_name = "Broadwell";
        info.processor = "Core i5-5200U";
        info.rs_size = 60;
        info.rob_size = 192;
        info.gpr_move_elim = true;
        info.vec_move_elim = true;
        info.zero_idiom_elim = true;
        info.sse_avx_transition = true;
        break;
      case UArch::Skylake:
      case UArch::KabyLake:
      case UArch::CoffeeLake:
        if (arch == UArch::Skylake) {
            info.short_name = "SKL";
            info.full_name = "Skylake";
            info.processor = "Core i7-6500U";
        } else if (arch == UArch::KabyLake) {
            info.short_name = "KBL";
            info.full_name = "Kaby Lake";
            info.processor = "Core i7-7700";
        } else {
            info.short_name = "CFL";
            info.full_name = "Coffee Lake";
            info.processor = "Core i7-8700K";
        }
        info.rs_size = 97;
        info.rob_size = 224;
        info.gpr_move_elim = true;
        info.vec_move_elim = true;
        info.zero_idiom_elim = true;
        info.sse_avx_transition = true;
        info.store_forward_latency = 4;
        break;
    }
    return info;
}

} // namespace

const UArchInfo &
uarchInfo(UArch arch)
{
    static const std::map<UArch, UArchInfo> infos = [] {
        std::map<UArch, UArchInfo> out;
        for (UArch a : allUArches())
            out.emplace(a, makeInfo(a));
        return out;
    }();
    return infos.at(arch);
}

} // namespace uops::uarch
