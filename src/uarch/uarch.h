/**
 * @file
 * Microarchitecture descriptors for the nine Intel Core generations
 * covered by the paper (Table 1), Nehalem through Coffee Lake.
 *
 * Each descriptor captures the execution-engine parameters the
 * characterization algorithms interact with: number of ports, issue
 * width, scheduler/ROB capacities, which ports host load / store-address
 * / store-data units, elimination capabilities (move elimination, zero
 * idioms), load/forwarding latencies and the inter-domain bypass
 * penalty. ISA-extension availability gates the per-uarch instruction
 * set (variant counts grow across generations as in Table 1).
 */

#ifndef UOPS_UARCH_UARCH_H
#define UOPS_UARCH_UARCH_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "isa/instruction.h"

namespace uops::uarch {

/** The nine microarchitecture generations of Table 1. */
enum class UArch : uint8_t {
    Nehalem,
    Westmere,
    SandyBridge,
    IvyBridge,
    Haswell,
    Broadwell,
    Skylake,
    KabyLake,
    CoffeeLake,
};

/** All generations, in chronological order. */
const std::vector<UArch> &allUArches();

/** Short name used in reports ("SNB", "HSW", ...). */
std::string uarchShortName(UArch arch);

/** Full name ("Sandy Bridge", ...). */
std::string uarchName(UArch arch);

/** Parse a short name; throws on unknown. */
UArch parseUArch(const std::string &short_name);

/** The generation stored as @p id on disk; nullopt for an id no
 *  generation has (stored containers are untrusted input). */
std::optional<UArch> uarchFromId(uint64_t id);

/**
 * Bitmask over execution ports (bit i = port i).
 */
using PortMask = uint16_t;

/** Build a mask from port indices. */
PortMask portMask(std::initializer_list<int> ports);

/** Ports in a mask, ascending. */
std::vector<int> portsOf(PortMask mask);

/** Number of ports in a mask. */
int portCount(PortMask mask);

/** True when @p mask names at least one port and only ports below
 *  @p num_ports: a port set a uarch with @p num_ports ports has. */
bool portsWithin(PortMask mask, int num_ports);

/** Canonical name, e.g. "p015". */
std::string portMaskName(PortMask mask);

/** Parse "p015"-style names. */
PortMask parsePortMask(const std::string &name);

/** Static description of one microarchitecture generation. */
struct UArchInfo
{
    UArch arch;
    std::string short_name;  ///< e.g. "SKL"
    std::string full_name;   ///< e.g. "Skylake"
    std::string processor;   ///< Tested CPU from Table 1, e.g. "Core i7-6500U"

    int num_ports;           ///< 6 (NHM..IVB) or 8 (HSW..CFL)
    int issue_width;         ///< µops issued per cycle (front end)
    int retire_width;        ///< µops retired per cycle
    int rs_size;             ///< reservation-station entries
    int rob_size;            ///< reorder-buffer entries

    PortMask load_ports;       ///< ports with a load unit
    PortMask store_addr_ports; ///< ports with a store-address AGU
    PortMask store_data_ports; ///< ports with a store-data unit

    /** Move elimination in the reorder buffer (Section 3.1). */
    bool gpr_move_elim;
    bool vec_move_elim;

    /** Zero idioms executed by the ROB (no execution port used). */
    bool zero_idiom_elim;

    /** Macro-fusion of CMP/TEST with a following Jcc (all Core
     *  generations). */
    bool fuses_cmp_jcc;

    /** Macro-fusion extended to ADD/SUB/AND/INC/DEC + Jcc
     *  (Sandy Bridge onwards). */
    bool fuses_alu_jcc;

    int gpr_load_latency;    ///< L1 load-to-use, general-purpose
    int vec_load_latency;    ///< L1 load-to-use, XMM
    int ymm_load_latency;    ///< L1 load-to-use, YMM
    int store_forward_latency; ///< store-to-load forwarding

    /** Extra cycles when an FP-domain µop consumes an int-domain
     *  result or vice versa (bypass delay, Section 5.2.1). */
    int bypass_delay;

    /** SSE instructions suffer a merge dependency while the upper
     *  YMM state is dirty (models the SSE-AVX transition issue that
     *  the separate blocking-instruction sets avoid). */
    bool sse_avx_transition;

    /** Extensions available on this generation. */
    std::vector<isa::Extension> extensions;

    /** True when @p ext is available. */
    bool hasExtension(isa::Extension ext) const;

    /** True when @p variant exists on this generation. */
    bool supports(const isa::InstrVariant &variant) const;

    bool operator==(const UArchInfo &other) const = default;
};

/** Descriptor for a generation (static storage). */
const UArchInfo &uarchInfo(UArch arch);

} // namespace uops::uarch

#endif // UOPS_UARCH_UARCH_H
