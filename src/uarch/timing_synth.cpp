#include "timing_synth.h"

#include <map>

#include "support/status.h"
#include "support/strings.h"

namespace uops::uarch {

using isa::InstrVariant;
using isa::OperandSpec;
using isa::OpKind;
using isa::RegClass;

namespace {

/** Per-uarch class parameters (ports and latencies). */
struct Params
{
    PortMask alu, shift, branch, lea, imul, bitscan, setcc;
    PortMask fadd, fmul, fma, vshuf, xlane, vialu, vimul, vshift, movd;
    PortMask divider; // port hosting the divider unit
    PortMask load, sta, std_p;

    int fadd_lat, fmul_lat, fma_lat, vimul_lat;

    // AES structure generations (Section 7.3.1).
    enum class AesStyle { ThreeUop6c, TwoUop7p1, OneUop7c, OneUop4c };
    AesStyle aes;

    bool adc_single;        // 1-µop ADC/SBB (Broadwell+)
    bool cmov_single;       // 1-µop CMOVcc (Skylake+); CMOVBE stays 2
    bool shld_single;       // 1-µop SHLD (Haswell+)
    bool shld_same_reg_fast;// same-register fast path (Skylake+)
    bool shift_cl_merge;    // 3-µop CL shifts (Sandy Bridge+)
    bool pmulld_double;     // 2-µop PMULLD (Haswell+)
    bool varshift_single;   // 1-µop VPSLLVD/VPSRAVD (Skylake+)
    bool blendv_single;     // 1-µop SSE blendv (Skylake+)

    // Divider values: {fast, slow} latency and occupancy.
    int div32_lat[2], div32_occ[2];
    int div64_lat[2], div64_occ[2];
    int fdiv_lat[2], fdiv_occ[2];
};

Params
makeParams(UArch arch)
{
    Params p{};
    bool big = static_cast<int>(arch) >= static_cast<int>(UArch::Haswell);
    bool skl = static_cast<int>(arch) >= static_cast<int>(UArch::Skylake);
    bool snb_plus =
        static_cast<int>(arch) >= static_cast<int>(UArch::SandyBridge);
    bool bdw_plus =
        static_cast<int>(arch) >= static_cast<int>(UArch::Broadwell);

    p.alu = big ? portMask({0, 1, 5, 6}) : portMask({0, 1, 5});
    p.shift = big ? portMask({0, 6}) : portMask({0, 5});
    p.branch = big ? portMask({6}) : portMask({5});
    p.lea = big ? portMask({1, 5}) : portMask({0, 1});
    p.imul = portMask({1});
    p.bitscan = portMask({1});
    p.setcc = big ? portMask({0, 6}) : portMask({0, 1, 5});
    p.fadd = skl ? portMask({0, 1}) : portMask({1});
    p.fmul = skl ? portMask({0, 1}) : portMask({0});
    p.fma = portMask({0, 1});
    p.vshuf = snb_plus ? portMask({5}) : portMask({0, 5});
    p.xlane = portMask({5});
    if (arch == UArch::SandyBridge || arch == UArch::IvyBridge)
        p.vialu = portMask({1, 5});
    else
        p.vialu = portMask({0, 1, 5});
    p.vimul = skl ? portMask({0, 1}) : portMask({0});
    if (arch == UArch::Nehalem || arch == UArch::Westmere)
        p.vshift = portMask({0, 5});
    else
        p.vshift = skl ? portMask({0, 1}) : portMask({0});
    p.movd = portMask({0});
    p.divider = portMask({0});

    const UArchInfo &info = uarchInfo(arch);
    p.load = info.load_ports;
    p.sta = info.store_addr_ports;
    p.std_p = info.store_data_ports;

    switch (arch) {
      case UArch::Nehalem:
      case UArch::Westmere:
        p.fadd_lat = 3; p.fmul_lat = 4; p.fma_lat = 0; p.vimul_lat = 3;
        break;
      case UArch::SandyBridge:
      case UArch::IvyBridge:
        p.fadd_lat = 3; p.fmul_lat = 5; p.fma_lat = 0; p.vimul_lat = 5;
        break;
      case UArch::Haswell:
        p.fadd_lat = 3; p.fmul_lat = 5; p.fma_lat = 5; p.vimul_lat = 5;
        break;
      case UArch::Broadwell:
        p.fadd_lat = 3; p.fmul_lat = 3; p.fma_lat = 5; p.vimul_lat = 5;
        break;
      default: // Skylake, Kaby Lake, Coffee Lake
        p.fadd_lat = 4; p.fmul_lat = 4; p.fma_lat = 4; p.vimul_lat = 5;
        break;
    }

    if (arch == UArch::Nehalem)
        p.aes = Params::AesStyle::ThreeUop6c; // no AES-NI; keep a default
    else if (arch == UArch::Westmere)
        p.aes = Params::AesStyle::ThreeUop6c;
    else if (arch == UArch::SandyBridge || arch == UArch::IvyBridge)
        p.aes = Params::AesStyle::TwoUop7p1;
    else if (!skl)
        p.aes = Params::AesStyle::OneUop7c;
    else
        p.aes = Params::AesStyle::OneUop4c;

    p.adc_single = bdw_plus;
    p.cmov_single = skl;
    p.shld_single = big;
    p.shld_same_reg_fast = skl;
    p.shift_cl_merge = snb_plus;
    p.pmulld_double = big;
    p.varshift_single = skl;
    p.blendv_single = skl;

    if (skl) {
        p.div32_lat[0] = 18; p.div32_lat[1] = 24;
        p.div32_occ[0] = 6;  p.div32_occ[1] = 10;
        p.div64_lat[0] = 30; p.div64_lat[1] = 85;
        p.div64_occ[0] = 20; p.div64_occ[1] = 60;
        p.fdiv_lat[0] = 11;  p.fdiv_lat[1] = 11; // value-independent
        p.fdiv_occ[0] = 3;   p.fdiv_occ[1] = 3;
    } else {
        p.div32_lat[0] = 20; p.div32_lat[1] = 26;
        p.div32_occ[0] = 9;  p.div32_occ[1] = 14;
        p.div64_lat[0] = 32; p.div64_lat[1] = 95;
        p.div64_occ[0] = 22; p.div64_occ[1] = 70;
        p.fdiv_lat[0] = 11;  p.fdiv_lat[1] = 14;
        p.fdiv_occ[0] = 6;   p.fdiv_occ[1] = 10;
    }
    return p;
}

/**
 * Builder over the operand structure of a variant: collects the
 * operand indices the generic patterns need and allocates temps.
 */
class Synth
{
  public:
    Synth(const InstrVariant &v, const Params &p, UArch arch)
        : v_(v), p_(p), arch_(arch)
    {
        for (size_t i = 0; i < v.numOperands(); ++i) {
            const OperandSpec &op = v.operand(i);
            if (skipOperand(op))
                continue;
            if (op.kind == OpKind::Flags)
                flags_ = static_cast<int>(i);
            if (op.kind == OpKind::Mem) {
                if (op.read)
                    mem_reads_.push_back(static_cast<int>(i));
                if (op.written)
                    mem_writes_.push_back(static_cast<int>(i));
            }
            bool reads = op.read && op.kind != OpKind::Imm;
            if (op.kind == OpKind::Flags)
                reads = op.flags_read.any();
            if (reads)
                sources_.push_back(static_cast<int>(i));
            bool writes = op.written;
            if (op.kind == OpKind::Flags)
                writes = op.flags_written.any();
            if (writes && op.kind != OpKind::Mem)
                dests_.push_back(static_cast<int>(i));
        }
    }

    /** The stack engine renames RSP updates away (PUSH/POP/CALL/RET). */
    static bool
    skipOperand(const OperandSpec &op)
    {
        return op.implicit && op.kind == OpKind::Reg &&
               op.reg_class == RegClass::Gpr64 && op.fixed_reg == 4;
    }

    int newTemp() { return next_temp_++; }

    /** Sources as OpRefs (memory reads appear as Operand placeholders
     *  replaced by load temps during composition). */
    std::vector<OpRef>
    sourceRefs() const
    {
        std::vector<OpRef> out;
        for (int i : sources_)
            out.push_back(OpRef::operand(i));
        return out;
    }

    /** Destinations (register/memory values then flags). Memory
     *  writes are placeholders redirected into store µops during
     *  composition. */
    std::vector<OpRef>
    destRefs() const
    {
        std::vector<OpRef> out;
        for (int i : dests_)
            if (i != flags_)
                out.push_back(OpRef::operand(i));
        for (int i : mem_writes_)
            out.push_back(OpRef::operand(i));
        if (flags_ >= 0 && v_.operand(flags_).flags_written.any())
            out.push_back(OpRef::operand(flags_));
        return out;
    }

    /** Memory destination refs (for the compute result). */
    std::vector<int> memWrites() const { return mem_writes_; }
    std::vector<int> memReads() const { return mem_reads_; }

    int flagsOperand() const { return flags_; }
    const std::vector<int> &sources() const { return sources_; }
    const std::vector<int> &dests() const { return dests_; }

    /** First source that is not operand @p excluded (or -1). */
    int
    otherSource(int excluded) const
    {
        for (int s : sources_)
            if (s != excluded)
                return s;
        return -1;
    }

    UopSpec
    uop(PortMask ports, std::vector<OpRef> reads, std::vector<OpRef> writes,
        int lat, Domain domain = Domain::Gpr)
    {
        UopSpec u;
        u.ports = ports;
        u.reads = std::move(reads);
        u.writes = std::move(writes);
        u.latency = lat;
        u.domain = domain;
        return u;
    }

    const InstrVariant &v_;
    const Params &p_;
    UArch arch_;
    std::vector<int> sources_;
    std::vector<int> dests_;
    std::vector<int> mem_reads_;
    std::vector<int> mem_writes_;
    int flags_ = -1;
    int next_temp_ = 0;
};

/** Vector domain from the mnemonic spelling: P-prefixed mnemonics are
 *  integer; PS/PD/SS/SD-suffixed ones are floating point. */
Domain
vecDomain(const std::string &mnemonic)
{
    std::string m = mnemonic;
    if (startsWith(m, "V"))
        m = m.substr(1);
    if (startsWith(m, "P") || m == "MOVDQA" || m == "MOVDQU")
        return Domain::IVec;
    return Domain::FVec;
}

/** Functional classes. */
enum class Cls {
    Alu, MovReg, MovImm, MovX, Lea, Xchg, Xadd, Adc, Shift, ShiftCl,
    ShiftX, ShiftD, Bswap, BitScan, Imul2, MulWide, DivGpr, Cmov, Setcc,
    Branch, CallReg, Ret, Push, Pop, Cpuid, Rdtsc, Fence, Pause, Locked,
    RepString, Prefetch, Clflush, Nop,
    Lahf,
    VIAlu, VIMul, Pmulld, VShiftImm, VShiftVar, VShiftVarNew, VShuf,
    XLane, Movq2dq, Movdq2q, MovdCross, VMov, MovMsk, Pextr, Pinsr,
    Ptest, Hadd, FAdd, FMul, FDiv, Rcp, Fma, VFLogic, Blendv, VBlendv,
    Mpsadbw, Phmin, Aes, AesImc, AesKeygen, Clmul, Cvt, CvtFromGpr,
    CvtToGpr, F16, Dpp, Comis, Mulx, Bextr, Pdep, Vzeroupper, PureLoad,
};

/** Mnemonic classification (operand-shape refinements applied later). */
Cls
classify(const InstrVariant &v)
{
    static const std::map<std::string, Cls> table = {
        {"ADD", Cls::Alu}, {"SUB", Cls::Alu}, {"AND", Cls::Alu},
        {"OR", Cls::Alu}, {"XOR", Cls::Alu}, {"CMP", Cls::Alu},
        {"TEST", Cls::Alu}, {"INC", Cls::Alu}, {"DEC", Cls::Alu},
        {"NEG", Cls::Alu}, {"NOT", Cls::Alu}, {"STC", Cls::Alu},
        {"CLC", Cls::Alu}, {"CMC", Cls::Alu}, {"CDQ", Cls::Alu},
        {"CQO", Cls::Alu}, {"LAHF", Cls::Lahf}, {"SAHF", Cls::Lahf},
        {"ANDN", Cls::Alu}, {"BLSI", Cls::Alu}, {"BLSMSK", Cls::Alu},
        {"BLSR", Cls::Alu}, {"BZHI", Cls::Alu}, {"ADCX", Cls::Alu},
        {"ADOX", Cls::Alu},
        {"MOV", Cls::MovReg}, {"MOVSX", Cls::MovX}, {"MOVZX", Cls::MovX},
        {"LEA", Cls::Lea}, {"XCHG", Cls::Xchg}, {"XADD", Cls::Xadd},
        {"ADC", Cls::Adc}, {"SBB", Cls::Adc},
        {"SHL", Cls::Shift}, {"SHR", Cls::Shift}, {"SAR", Cls::Shift},
        {"ROL", Cls::Shift}, {"ROR", Cls::Shift}, {"RORX", Cls::ShiftX},
        {"SARX", Cls::ShiftX}, {"SHLX", Cls::ShiftX},
        {"SHRX", Cls::ShiftX},
        {"SHLD", Cls::ShiftD}, {"SHRD", Cls::ShiftD},
        {"BSWAP", Cls::Bswap},
        {"BSF", Cls::BitScan}, {"BSR", Cls::BitScan},
        {"POPCNT", Cls::BitScan}, {"LZCNT", Cls::BitScan},
        {"TZCNT", Cls::BitScan}, {"CRC32", Cls::BitScan},
        {"IMUL", Cls::Imul2}, {"MUL", Cls::MulWide},
        {"DIV", Cls::DivGpr}, {"IDIV", Cls::DivGpr},
        {"CMOVZ", Cls::Cmov}, {"CMOVNZ", Cls::Cmov},
        {"CMOVB", Cls::Cmov}, {"CMOVBE", Cls::Cmov},
        {"CMOVNBE", Cls::Cmov}, {"CMOVS", Cls::Cmov},
        {"CMOVO", Cls::Cmov}, {"CMOVNB", Cls::Cmov},
        {"CMOVL", Cls::Cmov}, {"CMOVLE", Cls::Cmov},
        {"SETZ", Cls::Setcc}, {"SETNZ", Cls::Setcc},
        {"SETB", Cls::Setcc}, {"SETBE", Cls::Setcc},
        {"SETO", Cls::Setcc}, {"SETS", Cls::Setcc},
        {"SETNB", Cls::Setcc},
        {"JZ", Cls::Branch}, {"JNZ", Cls::Branch}, {"JB", Cls::Branch},
        {"JBE", Cls::Branch}, {"JMP", Cls::Branch},
        {"JS", Cls::Branch}, {"JNB", Cls::Branch},
        {"CALL", Cls::CallReg}, {"RET", Cls::Ret},
        {"PUSH", Cls::Push}, {"POP", Cls::Pop},
        {"CPUID", Cls::Cpuid}, {"RDTSC", Cls::Rdtsc},
        {"LFENCE", Cls::Fence}, {"MFENCE", Cls::Fence},
        {"SFENCE", Cls::Fence}, {"PAUSE", Cls::Pause},
        {"NOP", Cls::Nop},
        {"LOCKADD", Cls::Locked}, {"LOCKXADD", Cls::Locked},
        {"LOCKINC", Cls::Locked}, {"LOCKDEC", Cls::Locked},
        {"LOCKCMPXCHG", Cls::Locked},
        {"REPMOVSB", Cls::RepString}, {"REPSTOSB", Cls::RepString},
        {"PREFETCHT0", Cls::Prefetch},
        {"CLFLUSH", Cls::Clflush}, {"CLFLUSHOPT", Cls::Clflush},
        // Vector integer ALU.
        {"PADDB", Cls::VIAlu}, {"PADDW", Cls::VIAlu},
        {"PADDD", Cls::VIAlu}, {"PADDQ", Cls::VIAlu},
        {"PSUBB", Cls::VIAlu}, {"PSUBD", Cls::VIAlu},
        {"PADDSB", Cls::VIAlu}, {"PADDUSB", Cls::VIAlu},
        {"PAVGB", Cls::VIAlu}, {"PAND", Cls::VIAlu},
        {"PANDN", Cls::VIAlu}, {"POR", Cls::VIAlu},
        {"PXOR", Cls::VIAlu}, {"PCMPEQB", Cls::VIAlu},
        {"PCMPEQW", Cls::VIAlu}, {"PCMPEQD", Cls::VIAlu},
        {"PCMPGTB", Cls::VIAlu}, {"PCMPGTW", Cls::VIAlu},
        {"PCMPGTD", Cls::VIAlu}, {"PCMPGTQ", Cls::VIAlu},
        {"PMINUB", Cls::VIAlu}, {"PMINSB", Cls::VIAlu},
        {"PMINSD", Cls::VIAlu}, {"PMAXSD", Cls::VIAlu},
        {"PABSB", Cls::VIAlu}, {"PABSD", Cls::VIAlu},
        {"PSIGNB", Cls::VIAlu}, {"PBLENDW", Cls::VIAlu},
        {"VPADDB", Cls::VIAlu}, {"VPADDD", Cls::VIAlu},
        {"VPADDQ", Cls::VIAlu}, {"VPSUBB", Cls::VIAlu},
        {"VPSUBD", Cls::VIAlu}, {"VPAND", Cls::VIAlu},
        {"VPOR", Cls::VIAlu}, {"VPXOR", Cls::VIAlu},
        {"VPCMPEQD", Cls::VIAlu}, {"VPCMPGTB", Cls::VIAlu},
        {"VPCMPGTD", Cls::VIAlu}, {"VPCMPGTQ", Cls::VIAlu},
        {"PSUBW", Cls::VIAlu}, {"PSUBQ", Cls::VIAlu},
        {"PMINSW", Cls::VIAlu}, {"PMAXSW", Cls::VIAlu},
        {"PMAXUB", Cls::VIAlu}, {"PAVGW", Cls::VIAlu},
        {"PABSW", Cls::VIAlu}, {"PSIGND", Cls::VIAlu},
        {"VPANDN", Cls::VIAlu}, {"VPADDW", Cls::VIAlu},
        {"VPSUBW", Cls::VIAlu}, {"VPAVGB", Cls::VIAlu},
        {"VPABSD", Cls::VIAlu}, {"VPMULHW", Cls::VIMul},
        // Vector integer multiply.
        {"PMULLW", Cls::VIMul}, {"PMULHW", Cls::VIMul},
        {"PMULUDQ", Cls::VIMul}, {"PMADDWD", Cls::VIMul},
        {"PSADBW", Cls::VIMul}, {"VPMULLW", Cls::VIMul},
        {"VPMADDWD", Cls::VIMul},
        {"PMULLD", Cls::Pmulld}, {"VPMULLD", Cls::Pmulld},
        // Vector shifts.
        {"PSLLW", Cls::VShiftImm}, {"PSLLD", Cls::VShiftImm},
        {"PSLLQ", Cls::VShiftImm}, {"PSRLW", Cls::VShiftImm},
        {"PSRLD", Cls::VShiftImm}, {"PSRLQ", Cls::VShiftImm},
        {"PSRAW", Cls::VShiftImm}, {"PSRAD", Cls::VShiftImm},
        {"VPSLLD", Cls::VShiftImm}, {"VPSRLD", Cls::VShiftImm},
        {"VPSRAD", Cls::VShiftImm}, {"VPSRAW", Cls::VShiftImm},
        {"VPSRLQ", Cls::VShiftImm},
        {"VPSLLVD", Cls::VShiftVarNew}, {"VPSRAVD", Cls::VShiftVarNew},
        // Shuffles.
        {"PSHUFD", Cls::VShuf}, {"PSHUFLW", Cls::VShuf},
        {"PSHUFW", Cls::VShuf}, {"PSHUFB", Cls::VShuf},
        {"PALIGNR", Cls::VShuf}, {"PACKSSWB", Cls::VShuf},
        {"PACKUSDW", Cls::VShuf}, {"PUNPCKLBW", Cls::VShuf},
        {"PUNPCKHBW", Cls::VShuf}, {"SHUFPS", Cls::VShuf},
        {"SHUFPD", Cls::VShuf}, {"UNPCKLPS", Cls::VShuf},
        {"UNPCKHPS", Cls::VShuf}, {"INSERTPS", Cls::VShuf},
        {"MOVSLDUP", Cls::VShuf}, {"MOVDDUP", Cls::VShuf},
        {"MOVHLPS", Cls::VShuf}, {"MOVSS", Cls::VShuf},
        {"MOVSD", Cls::VShuf}, {"PMOVSXBW", Cls::VShuf},
        {"PMOVZXBW", Cls::VShuf}, {"VPERMILPS", Cls::VShuf},
        {"VSHUFPS", Cls::VShuf}, {"VUNPCKLPS", Cls::VShuf},
        {"VPSHUFD", Cls::VShuf}, {"VPSHUFB", Cls::VShuf},
        {"VPBROADCASTD", Cls::VShuf},
        {"VPERMD", Cls::XLane}, {"VPERMQ", Cls::XLane},
        {"VPERM2F128", Cls::XLane}, {"VINSERTF128", Cls::XLane},
        {"VEXTRACTF128", Cls::XLane}, {"VINSERTI128", Cls::XLane},
        {"VEXTRACTI128", Cls::XLane},
        {"MOVQ2DQ", Cls::Movq2dq}, {"MOVDQ2Q", Cls::Movdq2q},
        {"MOVD", Cls::MovdCross}, {"MOVQ", Cls::MovdCross},
        {"MOVDQA", Cls::VMov}, {"MOVDQU", Cls::VMov},
        {"MOVAPS", Cls::VMov}, {"MOVAPD", Cls::VMov},
        {"MOVUPS", Cls::VMov}, {"VMOVAPS", Cls::VMov},
        {"VMOVUPS", Cls::VMov}, {"VMOVD", Cls::MovdCross},
        {"VMOVQ", Cls::MovdCross},
        {"PMOVMSKB", Cls::MovMsk}, {"MOVMSKPS", Cls::MovMsk},
        {"MOVMSKPD", Cls::MovMsk}, {"VPMOVMSKB", Cls::MovMsk},
        {"PEXTRW", Cls::Pextr}, {"PEXTRD", Cls::Pextr},
        {"PEXTRQ", Cls::Pextr}, {"EXTRACTPS", Cls::Pextr},
        {"PINSRW", Cls::Pinsr}, {"PINSRD", Cls::Pinsr},
        {"PINSRQ", Cls::Pinsr},
        {"PTEST", Cls::Ptest}, {"VPTEST", Cls::Ptest},
        {"PHADDW", Cls::Hadd}, {"PHADDD", Cls::Hadd},
        {"HADDPS", Cls::Hadd}, {"HADDPD", Cls::Hadd},
        {"VHADDPD", Cls::Hadd}, {"VHADDPS", Cls::Hadd},
        {"PHSUBD", Cls::Hadd}, {"PHSUBW", Cls::Hadd},
        {"VPHADDD", Cls::Hadd},
        {"PACKSSDW", Cls::VShuf}, {"PUNPCKLDQ", Cls::VShuf},
        {"PUNPCKHDQ", Cls::VShuf}, {"PSHUFHW", Cls::VShuf},
        {"UNPCKLPD", Cls::VShuf}, {"UNPCKHPD", Cls::VShuf},
        {"VPACKSSWB", Cls::VShuf}, {"VPALIGNR", Cls::VShuf},
        {"VPUNPCKLBW", Cls::VShuf},
        {"SUBSS", Cls::FAdd}, {"SUBSD", Cls::FAdd},
        {"MAXSS", Cls::FAdd}, {"MAXSD", Cls::FAdd},
        {"MINSD", Cls::FAdd}, {"VSUBPD", Cls::FAdd},
        {"VMINPD", Cls::FAdd}, {"VMAXPD", Cls::FAdd},
        {"CVTPD2PS", Cls::Cvt}, {"CVTPS2PD", Cls::Cvt},
        {"VCVTTPS2DQ", Cls::Cvt}, {"VCVTSI2SD", Cls::CvtFromGpr},
        {"RSQRTSS", Cls::Rcp}, {"RCPSS", Cls::Rcp},
        {"VRCPPS", Cls::Rcp}, {"VRSQRTPS", Cls::Rcp},
        {"COMISD", Cls::Comis}, {"UCOMISS", Cls::Comis},
        {"SQRTSS", Cls::FDiv}, {"VSQRTPD", Cls::FDiv},
        {"VANDPD", Cls::VFLogic}, {"VXORPD", Cls::VFLogic},
        {"VBLENDPD", Cls::VFLogic}, {"VMOVDQA", Cls::VMov},
        {"VEXTRACTPS", Cls::Pextr}, {"VPEXTRD", Cls::Pextr},
        {"VPINSRD", Cls::Pinsr},
        {"VFMSUB132PS", Cls::Fma}, {"VFMSUB213PS", Cls::Fma},
        {"VFMADD132PD", Cls::Fma},
        // FP arithmetic.
        {"ADDPS", Cls::FAdd}, {"ADDPD", Cls::FAdd},
        {"ADDSS", Cls::FAdd}, {"ADDSD", Cls::FAdd},
        {"SUBPS", Cls::FAdd}, {"SUBPD", Cls::FAdd},
        {"MAXPS", Cls::FAdd}, {"MAXPD", Cls::FAdd},
        {"MINPS", Cls::FAdd}, {"MINPD", Cls::FAdd},
        {"MINSS", Cls::FAdd}, {"CMPPS", Cls::FAdd},
        {"CMPPD", Cls::FAdd}, {"ADDSUBPS", Cls::FAdd},
        {"ROUNDPS", Cls::FAdd}, {"ROUNDSS", Cls::FAdd},
        {"VADDPS", Cls::FAdd}, {"VADDPD", Cls::FAdd},
        {"VSUBPS", Cls::FAdd}, {"VMINPS", Cls::FAdd},
        {"VMAXPS", Cls::FAdd}, {"VCMPPS", Cls::FAdd},
        {"VADDSUBPS", Cls::FAdd}, {"VROUNDPS", Cls::FAdd},
        {"MULPS", Cls::FMul}, {"MULPD", Cls::FMul},
        {"MULSS", Cls::FMul}, {"MULSD", Cls::FMul},
        {"VMULPS", Cls::FMul}, {"VMULPD", Cls::FMul},
        {"DIVPS", Cls::FDiv}, {"DIVPD", Cls::FDiv},
        {"DIVSS", Cls::FDiv}, {"DIVSD", Cls::FDiv},
        {"VDIVPS", Cls::FDiv}, {"VDIVPD", Cls::FDiv},
        {"SQRTPS", Cls::FDiv}, {"SQRTPD", Cls::FDiv},
        {"SQRTSD", Cls::FDiv}, {"VSQRTPS", Cls::FDiv},
        {"RCPPS", Cls::Rcp}, {"RSQRTPS", Cls::Rcp},
        {"VFMADD132PS", Cls::Fma}, {"VFMADD213PS", Cls::Fma},
        {"VFMADD231PS", Cls::Fma}, {"VFMADD213SD", Cls::Fma},
        {"VFNMADD213PS", Cls::Fma},
        {"ANDPS", Cls::VFLogic}, {"ANDPD", Cls::VFLogic},
        {"ANDNPS", Cls::VFLogic}, {"ORPS", Cls::VFLogic},
        {"XORPS", Cls::VFLogic}, {"XORPD", Cls::VFLogic},
        {"VANDPS", Cls::VFLogic}, {"VORPS", Cls::VFLogic},
        {"VXORPS", Cls::VFLogic}, {"BLENDPS", Cls::VFLogic},
        {"VBLENDPS", Cls::VFLogic},
        {"PBLENDVB", Cls::Blendv}, {"BLENDVPS", Cls::Blendv},
        {"BLENDVPD", Cls::Blendv},
        {"VPBLENDVB", Cls::VBlendv}, {"VBLENDVPS", Cls::VBlendv},
        {"VBLENDVPD", Cls::VBlendv},
        {"MPSADBW", Cls::Mpsadbw}, {"VMPSADBW", Cls::Mpsadbw},
        {"PHMINPOSUW", Cls::Phmin},
        {"AESDEC", Cls::Aes}, {"AESDECLAST", Cls::Aes},
        {"AESENC", Cls::Aes}, {"AESENCLAST", Cls::Aes},
        {"VAESDEC", Cls::Aes},
        {"AESIMC", Cls::AesImc}, {"AESKEYGENASSIST", Cls::AesKeygen},
        {"PCLMULQDQ", Cls::Clmul},
        {"CVTDQ2PS", Cls::Cvt}, {"CVTPS2DQ", Cls::Cvt},
        {"CVTTPS2DQ", Cls::Cvt}, {"CVTSS2SD", Cls::Cvt},
        {"CVTSD2SS", Cls::Cvt}, {"VCVTDQ2PS", Cls::Cvt},
        {"VCVTPS2DQ", Cls::Cvt},
        {"CVTSI2SS", Cls::CvtFromGpr}, {"CVTSI2SD", Cls::CvtFromGpr},
        {"CVTSD2SI", Cls::CvtToGpr},
        {"VCVTPH2PS", Cls::F16}, {"VCVTPS2PH", Cls::F16},
        {"DPPS", Cls::Dpp}, {"DPPD", Cls::Dpp},
        {"COMISS", Cls::Comis}, {"UCOMISD", Cls::Comis},
        {"VUCOMISS", Cls::Comis},
        {"MULX", Cls::Mulx}, {"BEXTR", Cls::Bextr},
        {"PDEP", Cls::Pdep}, {"PEXT", Cls::Pdep},
        {"VZEROUPPER", Cls::Vzeroupper},
        {"VBROADCASTSS", Cls::PureLoad},
    };
    auto it = table.find(v.mnemonic());
    fatalIf(it == table.end(), "timing synthesis: unclassified mnemonic '",
            v.mnemonic(), "'");
    Cls cls = it->second;

    // Operand-shape refinements.
    if (cls == Cls::MovReg) {
        const auto &expl = v.explicitOperands();
        if (v.operand(expl[1]).kind == OpKind::Imm)
            return Cls::MovImm;
        return Cls::MovReg; // includes load/store forms (handled later)
    }
    if (cls == Cls::MovdCross) {
        // MOVQ/MOVD between two vector/MMX registers is a shuffle-like
        // move; GPR<->vector transfers cross domains.
        const auto &expl = v.explicitOperands();
        bool gpr_involved = false;
        for (int i : expl)
            if (v.operand(i).kind == OpKind::Reg &&
                isa::isGprClass(v.operand(i).reg_class))
                gpr_involved = true;
        if (!gpr_involved)
            return Cls::VMov; // MOVQ mm,mm / MOVQ x,x and memory forms
    }
    if (cls == Cls::Shift) {
        // CL-count forms have an implicit CL register operand.
        for (const auto &op : v.operands())
            if (op.kind == OpKind::Reg && op.fixed_reg == 1 &&
                op.reg_class == RegClass::Gpr8)
                return Cls::ShiftCl;
    }
    if (cls == Cls::VShiftImm) {
        // Shift-by-register (xmm count) forms are two-µop on most
        // generations.
        const auto &expl = v.explicitOperands();
        int reg_srcs = 0;
        for (int i : expl)
            if (v.operand(i).kind == OpKind::Reg)
                ++reg_srcs;
        if (reg_srcs >= 2)
            return Cls::VShiftVar;
    }
    if (cls == Cls::Imul2) {
        // Widening one-operand IMUL has implicit fixed accumulators.
        for (const auto &op : v.operands())
            if (op.kind == OpKind::Reg && op.fixed_reg >= 0)
                return Cls::MulWide;
    }
    if (cls == Cls::Branch && v.attrs().is_cf_reg)
        return Cls::Branch;
    return cls;
}

} // namespace

// ---------------------------------------------------------------------
// Synthesis proper.
// ---------------------------------------------------------------------

namespace {

/** Compute-phase synthesis: the register-form µops of the class. */
std::vector<UopSpec>
computeUops(Synth &s, Cls cls)
{
    const Params &p = s.p_;
    const InstrVariant &v = s.v_;
    Domain vdom = vecDomain(v.mnemonic());
    auto srcs = s.sourceRefs();
    auto dsts = s.destRefs();

    // Helper: single µop covering all sources and destinations.
    auto single = [&](PortMask ports, int lat, Domain dom) {
        return std::vector<UopSpec>{s.uop(ports, srcs, dsts, lat, dom)};
    };

    switch (cls) {
      case Cls::Nop:
      case Cls::Vzeroupper:
        return {}; // handled by the reorder buffer / rename stage
      case Cls::Alu:
        return single(p.alu, 1, Domain::Gpr);
      case Cls::Lahf:
        // LAHF/SAHF: p015 through Ivy Bridge, p06 from Haswell on
        // (the hardware side of the IACA 2.2+ SAHF discrepancy, §7.2).
        return single(s.p_.setcc, 1, Domain::Gpr);
      case Cls::MovImm:
      case Cls::MovX:
        if (!s.memWrites().empty())
            return {}; // plain store, composed by the caller
        return single(p.alu, 1, Domain::Gpr);
      case Cls::MovReg: {
        if (!s.memWrites().empty())
            return {}; // plain store
        // Register-register MOV (or load form, composed later).
        bool vec = v.hasVecOperand();
        return single(vec ? p.vialu : p.alu, 1,
                      vec ? Domain::IVec : Domain::Gpr);
      }
      case Cls::VMov:
        if (!s.memWrites().empty())
            return {}; // plain store
        return single(p.vialu, 1, vdom);
      case Cls::Lea:
        return single(p.lea, 1, Domain::Gpr);
      case Cls::Setcc:
        return single(p.setcc, 1, Domain::Gpr);
      case Cls::Branch:
        return single(p.branch, 1, Domain::Gpr);
      case Cls::BitScan: {
        auto uops = single(p.bitscan, 3, Domain::Gpr);
        return uops;
      }
      case Cls::ShiftX:
        return single(p.shift, 1, Domain::Gpr);
      case Cls::Pdep:
        return single(p.bitscan, 3, Domain::Gpr);
      case Cls::Shift: {
        // 1 µop; the flag result is produced one cycle late.
        UopSpec u = s.uop(p.shift, srcs, dsts, 1, Domain::Gpr);
        u.write_extra.assign(u.writes.size(), 0);
        for (size_t w = 0; w < u.writes.size(); ++w)
            if (u.writes[w] == OpRef::operand(s.flagsOperand()))
                u.write_extra[w] = 1;
        return {u};
      }
      case Cls::ShiftCl: {
        if (!p.shift_cl_merge)
            return single(p.shift, 1, Domain::Gpr);
        // Flag-merge microcode: flags µop + shift µop + merge µop.
        int t_flags = s.newTemp();
        int t_shift = s.newTemp();
        OpRef flags = OpRef::operand(s.flagsOperand());
        // Value operand is the first source that is not CL/flags.
        OpRef value = srcs.at(0);
        OpRef count = srcs.size() > 1 ? srcs.at(1) : srcs.at(0);
        UopSpec a = s.uop(p.alu, {flags}, {OpRef::temp(t_flags)}, 1);
        UopSpec b = s.uop(p.shift, {value, count},
                          {OpRef::temp(t_shift)}, 1);
        UopSpec c = s.uop(p.shift,
                          {OpRef::temp(t_flags), OpRef::temp(t_shift)},
                          dsts, 1);
        return {a, b, c};
      }
      case Cls::ShiftD: {
        OpRef dst_val = dsts.at(0);
        if (p.shld_single) {
            // Haswell onward: single µop on port 1, 3 cycles.
            return {s.uop(p.imul, srcs, dsts, 3, Domain::Gpr)};
        }
        bool nhm = (s.arch_ == UArch::Nehalem ||
                    s.arch_ == UArch::Westmere);
        int t = s.newTemp();
        // op1 (the second register) feeds a preparation µop; the main
        // shift µop consumes it, so lat(op0->op0) < lat(op1->op0).
        OpRef second = OpRef::operand(s.sources().at(1));
        std::vector<OpRef> main_reads = {OpRef::temp(t)};
        for (const auto &r : srcs)
            if (!(r == second))
                main_reads.push_back(r);
        UopSpec prep = s.uop(p.alu, {second}, {OpRef::temp(t)}, 1);
        UopSpec main = s.uop(p.shift, main_reads, dsts, nhm ? 3 : 2);
        (void)dst_val;
        return {prep, main};
      }
      case Cls::Bswap: {
        bool wide = v.operand(0).reg_class == RegClass::Gpr64;
        if (!wide)
            return single(p.shift, 1, Domain::Gpr);
        int t = s.newTemp();
        UopSpec a = s.uop(p.shift, srcs, {OpRef::temp(t)}, 1);
        UopSpec b = s.uop(p.alu, {OpRef::temp(t)}, dsts, 1);
        return {a, b};
      }
      case Cls::Xchg: {
        OpRef a = OpRef::operand(s.sources().at(0));
        OpRef b = OpRef::operand(s.sources().at(1));
        int t = s.newTemp();
        UopSpec u1 = s.uop(p.alu, {a}, {OpRef::temp(t)}, 1);
        UopSpec u2 = s.uop(p.alu, {b}, {a}, 1);
        UopSpec u3 = s.uop(p.alu, {OpRef::temp(t)}, {b}, 1);
        return {u1, u2, u3};
      }
      case Cls::Xadd: {
        OpRef a = OpRef::operand(s.dests().at(0));
        OpRef b = OpRef::operand(s.dests().at(1));
        OpRef flags = OpRef::operand(s.flagsOperand());
        int t = s.newTemp();
        UopSpec u1 = s.uop(p.alu, {a, b}, {OpRef::temp(t)}, 1);
        UopSpec u2 = s.uop(p.alu, {a}, {b}, 1);
        UopSpec u3 = s.uop(p.alu, {OpRef::temp(t)}, {a, flags}, 1);
        return {u1, u2, u3};
      }
      case Cls::Adc: {
        if (p.adc_single)
            return single(p.alu, 1, Domain::Gpr);
        // Two µops (the Haswell ADC case: 1*p0156 + 1*p06). The first
        // µop consumes the addend and the carry; the second merges
        // with the read-write destination (register or memory).
        int rw = -1;
        for (size_t i = 0; i < v.numOperands(); ++i)
            if (v.operand(i).readWritten() &&
                v.operand(i).kind != OpKind::Flags)
                rw = static_cast<int>(i);
        panicIf(rw < 0, "ADC/SBB without a read-write operand");
        OpRef dst = OpRef::operand(rw);
        int t = s.newTemp();
        std::vector<OpRef> first_reads;
        for (const auto &r : srcs)
            if (!(r == dst))
                first_reads.push_back(r);
        UopSpec a = s.uop(p.alu, first_reads, {OpRef::temp(t)}, 1);
        UopSpec b = s.uop(p.shift, {OpRef::temp(t), dst}, dsts, 1);
        return {a, b};
      }
      case Cls::Cmov: {
        bool two_flag_groups =
            v.mnemonic() == "CMOVBE" || v.mnemonic() == "CMOVNBE";
        if (p.cmov_single && !two_flag_groups)
            return single(p.setcc, 1, Domain::Gpr);
        OpRef flags = OpRef::operand(s.flagsOperand());
        int t = s.newTemp();
        std::vector<OpRef> rest;
        for (const auto &r : srcs)
            if (!(r == flags))
                rest.push_back(r);
        rest.push_back(OpRef::temp(t));
        PortMask ports = p.cmov_single ? p.setcc : p.alu;
        UopSpec a = s.uop(ports, {flags}, {OpRef::temp(t)}, 1);
        UopSpec b = s.uop(ports, rest, dsts, 1);
        return {a, b};
      }
      case Cls::Imul2: {
        UopSpec u = s.uop(p.imul, srcs, dsts, 3, Domain::Gpr);
        return {u};
      }
      case Cls::MulWide: {
        // Widening multiply: low result after 3c on port 1, high half
        // and flags one cycle later via an ALU µop.
        auto dests = s.dests();
        // Destinations: [hi, lo, flags] or [lo(AX), flags] for 8-bit.
        int t = s.newTemp();
        if (dests.size() >= 3) {
            OpRef hi = OpRef::operand(dests.at(0));
            OpRef lo = OpRef::operand(dests.at(1));
            OpRef flags = OpRef::operand(s.flagsOperand());
            UopSpec a = s.uop(p.imul, srcs, {lo, OpRef::temp(t)}, 3);
            UopSpec b = s.uop(p.alu, {OpRef::temp(t)}, {hi, flags}, 1);
            return {a, b};
        }
        return single(p.imul, 3, Domain::Gpr);
      }
      case Cls::Mulx: {
        auto dests = s.dests();
        OpRef hi = OpRef::operand(dests.at(0));
        OpRef lo = OpRef::operand(dests.at(1));
        int t = s.newTemp();
        UopSpec a = s.uop(p.imul, srcs, {lo, OpRef::temp(t)}, 3);
        UopSpec b = s.uop(p.vshuf == 0 ? p.alu : p.alu, {OpRef::temp(t)},
                          {hi}, 1);
        return {a, b};
      }
      case Cls::Bextr: {
        int t = s.newTemp();
        UopSpec a = s.uop(p.shift, srcs, {OpRef::temp(t)}, 1);
        UopSpec b = s.uop(p.alu, {OpRef::temp(t)}, dsts, 1);
        return {a, b};
      }
      case Cls::DivGpr: {
        int width = 32;
        for (const auto &op : v.operands())
            if (op.kind == OpKind::Reg || op.kind == OpKind::Mem)
                width = std::max(width, op.effectiveWidth());
        const int *lat = width >= 64 ? p.div64_lat : p.div32_lat;
        const int *occ = width >= 64 ? p.div64_occ : p.div32_occ;
        int t = s.newTemp();
        UopSpec d = s.uop(p.divider, srcs, {OpRef::temp(t)}, lat[0]);
        d.latency_slow = lat[1];
        d.div_occupancy = occ[0];
        d.div_occupancy_slow = occ[1];
        std::vector<UopSpec> uops = {d};
        // Distribute results to the destination registers and flags.
        for (const auto &dst : dsts)
            uops.push_back(s.uop(p.alu, {OpRef::temp(t)}, {dst}, 1));
        return uops;
      }
      case Cls::Cpuid:
      case Cls::Rdtsc: {
        int n = cls == Cls::Cpuid ? 20 : 15;
        std::vector<UopSpec> uops;
        int t = s.newTemp();
        uops.push_back(s.uop(p.alu, srcs, {OpRef::temp(t)}, 1));
        for (int i = 1; i < n - 1; ++i) {
            int t2 = s.newTemp();
            uops.push_back(
                s.uop(p.alu, {OpRef::temp(t)}, {OpRef::temp(t2)}, 1));
            t = t2;
        }
        uops.push_back(s.uop(p.alu, {OpRef::temp(t)}, dsts, 1));
        return uops;
      }
      case Cls::Fence: {
        if (v.mnemonic() == "MFENCE") {
            return {s.uop(p.sta, {}, {}, 1, Domain::Sta),
                    s.uop(p.std_p, {}, {}, 1, Domain::Std),
                    s.uop(p.alu, {}, {}, 1)};
        }
        return {s.uop(p.alu, {}, {}, 1)};
      }
      case Cls::Pause: {
        std::vector<UopSpec> uops;
        int t = s.newTemp();
        uops.push_back(s.uop(p.alu, {}, {OpRef::temp(t)}, 2));
        for (int i = 0; i < 3; ++i) {
            int t2 = s.newTemp();
            uops.push_back(
                s.uop(p.alu, {OpRef::temp(t)}, {OpRef::temp(t2)}, 2));
            t = t2;
        }
        return uops;
      }
      // Vector classes -------------------------------------------------
      case Cls::VIAlu:
        return single(p.vialu, 1, vdom);
      case Cls::VFLogic:
        return single(p.vialu, 1, Domain::FVec);
      case Cls::VIMul:
        return single(p.vimul, p.vimul_lat, Domain::IVec);
      case Cls::Pmulld: {
        if (!p.pmulld_double)
            return single(p.vimul, p.vimul_lat, Domain::IVec);
        int t = s.newTemp();
        UopSpec a = s.uop(p.vimul, srcs, {OpRef::temp(t)}, p.vimul_lat,
                          Domain::IVec);
        UopSpec b = s.uop(p.vimul, {OpRef::temp(t)}, dsts, p.vimul_lat,
                          Domain::IVec);
        return {a, b};
      }
      case Cls::VShiftImm:
        return single(p.vshift, 1, Domain::IVec);
      case Cls::VShiftVar: {
        // Shift by an XMM count: count-preparation µop + shift µop.
        OpRef count = srcs.back();
        int t = s.newTemp();
        std::vector<OpRef> rest;
        for (const auto &r : srcs)
            if (!(r == count))
                rest.push_back(r);
        rest.push_back(OpRef::temp(t));
        UopSpec a = s.uop(p.vshuf, {count}, {OpRef::temp(t)}, 1,
                          Domain::IVec);
        UopSpec b = s.uop(p.vshift, rest, dsts, 1, Domain::IVec);
        return {a, b};
      }
      case Cls::VShiftVarNew: {
        if (p.varshift_single)
            return single(p.vshift, 1, Domain::IVec);
        int t = s.newTemp();
        UopSpec a = s.uop(p.vshuf, {srcs.back()}, {OpRef::temp(t)}, 1,
                          Domain::IVec);
        std::vector<OpRef> rest(srcs.begin(), srcs.end() - 1);
        rest.push_back(OpRef::temp(t));
        UopSpec b = s.uop(p.vshift, rest, dsts, 2, Domain::IVec);
        return {a, b};
      }
      case Cls::VShuf:
        return single(p.vshuf, 1, vdom);
      case Cls::XLane:
        return single(p.xlane, 3, vdom);
      case Cls::Movq2dq: {
        // Section 7.3.3: one µop on port 0 plus one µop on p015.
        int t = s.newTemp();
        UopSpec a = s.uop(portMask({0}), srcs, {OpRef::temp(t)}, 1,
                          Domain::IVec);
        UopSpec b = s.uop(p.vialu | portMask({0}), {OpRef::temp(t)}, dsts,
                          1, Domain::IVec);
        return {a, b};
      }
      case Cls::Movdq2q: {
        // Section 7.3.4: 1*p5 + 1*p015.
        int t = s.newTemp();
        UopSpec a = s.uop(portMask({5}), srcs, {OpRef::temp(t)}, 1,
                          Domain::IVec);
        UopSpec b = s.uop(p.vialu | portMask({0}), {OpRef::temp(t)}, dsts,
                          1, Domain::IVec);
        return {a, b};
      }
      case Cls::MovdCross:
        if (!s.memWrites().empty())
            return {}; // plain store
        return single(p.movd, 2, Domain::IVec);
      case Cls::MovMsk:
        return single(p.movd, 2, Domain::IVec);
      case Cls::Pextr: {
        int t = s.newTemp();
        UopSpec a = s.uop(p.vshuf, srcs, {OpRef::temp(t)}, 1,
                          Domain::IVec);
        UopSpec b = s.uop(p.movd, {OpRef::temp(t)}, dsts, 2,
                          Domain::IVec);
        return {a, b};
      }
      case Cls::Pinsr: {
        // Insert a GPR value into a vector register: transfer µop for
        // the general-purpose source, merge µop with the vector source
        // (the destination itself for SSE, a separate source for VEX).
        OpRef vec_src = srcs.front();
        OpRef gpr_src = srcs.back();
        for (int si : s.sources()) {
            const OperandSpec &op = v.operand(static_cast<size_t>(si));
            if (op.kind != OpKind::Reg)
                continue;
            if (isa::isGprClass(op.reg_class))
                gpr_src = OpRef::operand(si);
            else
                vec_src = OpRef::operand(si);
        }
        int t = s.newTemp();
        UopSpec a = s.uop(p.movd, {gpr_src}, {OpRef::temp(t)}, 2,
                          Domain::IVec);
        UopSpec b = s.uop(p.vshuf, {vec_src, OpRef::temp(t)}, dsts, 1,
                          Domain::IVec);
        return {a, b};
      }
      case Cls::Ptest: {
        int t = s.newTemp();
        UopSpec a = s.uop(p.vialu, srcs, {OpRef::temp(t)}, 1,
                          Domain::IVec);
        UopSpec b = s.uop(portMask({0}), {OpRef::temp(t)}, dsts, 2,
                          Domain::IVec);
        return {a, b};
      }
      case Cls::Hadd: {
        bool fp = vdom == Domain::FVec;
        int t1 = s.newTemp(), t2 = s.newTemp();
        UopSpec a = s.uop(p.vshuf, srcs, {OpRef::temp(t1)}, 1, vdom);
        UopSpec b = s.uop(p.vshuf, srcs, {OpRef::temp(t2)}, 1, vdom);
        UopSpec c = s.uop(fp ? p.fadd : p.vialu,
                          {OpRef::temp(t1), OpRef::temp(t2)}, dsts,
                          fp ? p.fadd_lat : 1, vdom);
        return {a, b, c};
      }
      case Cls::FAdd:
        return single(p.fadd, p.fadd_lat, Domain::FVec);
      case Cls::FMul:
        return single(p.fmul, p.fmul_lat, Domain::FVec);
      case Cls::Fma:
        return single(p.fma, p.fma_lat, Domain::FVec);
      case Cls::Rcp:
        return single(portMask({0}), 5, Domain::FVec);
      case Cls::Phmin:
        return single(portMask({0}), 5, Domain::IVec);
      case Cls::FDiv: {
        bool pd = endsWith(v.mnemonic(), "PD") ||
                  endsWith(v.mnemonic(), "SD");
        bool sqrt = v.mnemonic().find("SQRT") != std::string::npos;
        int extra = (pd ? 3 : 0) + (sqrt ? 2 : 0);
        bool ymm = false;
        for (const auto &op : v.operands())
            if (op.kind == OpKind::Reg && op.reg_class == RegClass::Ymm)
                ymm = true;
        bool split = ymm && (s.arch_ == UArch::SandyBridge ||
                             s.arch_ == UArch::IvyBridge);
        auto make_div = [&](std::vector<OpRef> reads,
                            std::vector<OpRef> writes) {
            UopSpec d = s.uop(p.divider, std::move(reads),
                              std::move(writes), p.fdiv_lat[0] + extra,
                              Domain::FVec);
            d.latency_slow = p.fdiv_lat[1] + extra;
            d.div_occupancy = p.fdiv_occ[0] + extra / 2;
            d.div_occupancy_slow = p.fdiv_occ[1] + extra / 2;
            return d;
        };
        if (!split)
            return {make_div(srcs, dsts)};
        // 256-bit divide on SNB/IVB: two 128-bit halves.
        int t = s.newTemp();
        UopSpec lo = make_div(srcs, {OpRef::temp(t)});
        UopSpec hi = make_div({OpRef::temp(t)}, dsts);
        return {lo, hi};
      }
      case Cls::Blendv: {
        if (p.blendv_single)
            return single(p.vialu, 1, Domain::IVec);
        PortMask ports;
        if (s.arch_ == UArch::Haswell || s.arch_ == UArch::Broadwell)
            ports = portMask({5});
        else
            ports = portMask({0, 5}); // NHM/WSM/SNB/IVB (2*p05, §5.1)
        OpRef xmm0 = srcs.back();
        int t = s.newTemp();
        std::vector<OpRef> rest;
        for (const auto &r : srcs)
            if (!(r == xmm0))
                rest.push_back(r);
        UopSpec a = s.uop(ports, rest, {OpRef::temp(t)}, 1, Domain::IVec);
        UopSpec b = s.uop(ports, {OpRef::temp(t), xmm0}, dsts, 1,
                          Domain::IVec);
        return {a, b};
      }
      case Cls::VBlendv: {
        PortMask ports;
        if (s.arch_ == UArch::Haswell || s.arch_ == UArch::Broadwell)
            ports = portMask({5});
        else if (s.arch_ == UArch::SandyBridge ||
                 s.arch_ == UArch::IvyBridge)
            ports = portMask({0, 5});
        else
            ports = p.vialu; // SKL+: 2*p015
        OpRef mask = srcs.back();
        int t = s.newTemp();
        std::vector<OpRef> rest;
        for (const auto &r : srcs)
            if (!(r == mask))
                rest.push_back(r);
        UopSpec a = s.uop(ports, rest, {OpRef::temp(t)}, 1, Domain::IVec);
        UopSpec b = s.uop(ports, {OpRef::temp(t), mask}, dsts, 1,
                          Domain::IVec);
        return {a, b};
      }
      case Cls::Mpsadbw: {
        OpRef second = OpRef::operand(s.sources().size() > 1
                                          ? s.sources().at(1)
                                          : s.sources().at(0));
        int t = s.newTemp();
        std::vector<OpRef> rest;
        for (const auto &r : srcs)
            if (!(r == second))
                rest.push_back(r);
        rest.push_back(OpRef::temp(t));
        UopSpec a = s.uop(p.vshuf, {second}, {OpRef::temp(t)}, 2,
                          Domain::IVec);
        UopSpec b = s.uop(p.vialu, rest, dsts, 1, Domain::IVec);
        return {a, b};
      }
      case Cls::Aes: {
        OpRef dst = dsts.at(0);
        OpRef state = srcs.at(0);      // the read-write operand
        OpRef key = srcs.back();       // the key operand
        switch (p.aes) {
          case Params::AesStyle::ThreeUop6c: {
            // Westmere: 3 µops, 6 cycles for both operand pairs.
            int t1 = s.newTemp(), t2 = s.newTemp();
            UopSpec a = s.uop(portMask({0}), srcs, {OpRef::temp(t1)}, 2,
                              Domain::IVec);
            UopSpec b = s.uop(portMask({1}), {OpRef::temp(t1)},
                              {OpRef::temp(t2)}, 2, Domain::IVec);
            UopSpec c = s.uop(portMask({5}), {OpRef::temp(t2)}, {dst}, 2,
                              Domain::IVec);
            return {a, b, c};
          }
          case Params::AesStyle::TwoUop7p1: {
            // Sandy/Ivy Bridge: the key is only consumed by the final
            // 1-cycle XOR µop -> lat(state->dst)=8, lat(key->dst)=1.
            int t = s.newTemp();
            UopSpec a = s.uop(portMask({0}), {state}, {OpRef::temp(t)},
                              7, Domain::IVec);
            UopSpec b = s.uop(p.vialu, {OpRef::temp(t), key}, {dst}, 1,
                              Domain::IVec);
            return {a, b};
          }
          case Params::AesStyle::OneUop7c:
            return {s.uop(portMask({0}), srcs, dsts, 7, Domain::IVec)};
          case Params::AesStyle::OneUop4c:
            return {s.uop(portMask({0}), srcs, dsts, 4, Domain::IVec)};
        }
        panic("unreachable");
      }
      case Cls::AesImc: {
        int t = s.newTemp();
        UopSpec a = s.uop(portMask({0}), srcs, {OpRef::temp(t)}, 2,
                          Domain::IVec);
        UopSpec b = s.uop(p.vialu, {OpRef::temp(t)}, dsts, 2,
                          Domain::IVec);
        return {a, b};
      }
      case Cls::AesKeygen: {
        int t1 = s.newTemp(), t2 = s.newTemp();
        UopSpec a = s.uop(portMask({0}), srcs, {OpRef::temp(t1)}, 2,
                          Domain::IVec);
        UopSpec b = s.uop(p.vshuf, srcs, {OpRef::temp(t2)}, 1,
                          Domain::IVec);
        UopSpec c = s.uop(p.vialu, {OpRef::temp(t1), OpRef::temp(t2)},
                          dsts, 1, Domain::IVec);
        return {a, b, c};
      }
      case Cls::Clmul: {
        if (s.arch_ == UArch::Westmere || s.arch_ == UArch::Nehalem) {
            int t1 = s.newTemp(), t2 = s.newTemp(), t3 = s.newTemp();
            UopSpec a = s.uop(portMask({0}), srcs, {OpRef::temp(t1)}, 3,
                              Domain::IVec);
            UopSpec b = s.uop(portMask({0}), {OpRef::temp(t1)},
                              {OpRef::temp(t2)}, 3, Domain::IVec);
            UopSpec c = s.uop(portMask({1}), {OpRef::temp(t2)},
                              {OpRef::temp(t3)}, 1, Domain::IVec);
            UopSpec d = s.uop(portMask({5}), {OpRef::temp(t3)}, dsts, 1,
                              Domain::IVec);
            return {a, b, c, d};
        }
        if (static_cast<int>(s.arch_) >=
            static_cast<int>(UArch::Skylake)) {
            return {s.uop(portMask({5}), srcs, dsts, 6, Domain::IVec)};
        }
        int t = s.newTemp();
        UopSpec a = s.uop(portMask({0}), srcs, {OpRef::temp(t)}, 6,
                          Domain::IVec);
        UopSpec b = s.uop(portMask({5}), {OpRef::temp(t)}, dsts, 1,
                          Domain::IVec);
        return {a, b};
      }
      case Cls::Cvt:
        return single(portMask({1}), 3, Domain::FVec);
      case Cls::CvtFromGpr: {
        int t = s.newTemp();
        OpRef gpr = srcs.back();
        std::vector<OpRef> rest;
        for (const auto &r : srcs)
            if (!(r == gpr))
                rest.push_back(r);
        rest.push_back(OpRef::temp(t));
        UopSpec a = s.uop(p.movd, {gpr}, {OpRef::temp(t)}, 2,
                          Domain::IVec);
        UopSpec b = s.uop(portMask({1}), rest, dsts, 3, Domain::FVec);
        return {a, b};
      }
      case Cls::CvtToGpr: {
        int t = s.newTemp();
        UopSpec a = s.uop(portMask({1}), srcs, {OpRef::temp(t)}, 3,
                          Domain::FVec);
        UopSpec b = s.uop(p.movd, {OpRef::temp(t)}, dsts, 2,
                          Domain::IVec);
        return {a, b};
      }
      case Cls::F16: {
        bool widen = v.mnemonic() == "VCVTPH2PS";
        bool ymm = false;
        for (const auto &op : v.operands())
            if (op.kind == OpKind::Reg && op.reg_class == RegClass::Ymm)
                ymm = true;
        if (widen && !ymm)
            return single(portMask({1}), 4, Domain::FVec);
        int t = s.newTemp();
        UopSpec a = s.uop(portMask({1}), srcs, {OpRef::temp(t)}, 4,
                          Domain::FVec);
        UopSpec b = s.uop(p.vshuf, {OpRef::temp(t)}, dsts, 1,
                          Domain::FVec);
        return {a, b};
      }
      case Cls::Dpp: {
        bool pd = v.mnemonic() == "DPPD";
        int t1 = s.newTemp(), t2 = s.newTemp(), t3 = s.newTemp();
        UopSpec a = s.uop(p.fmul, srcs, {OpRef::temp(t1)}, p.fmul_lat,
                          Domain::FVec);
        UopSpec b = s.uop(p.vshuf, {OpRef::temp(t1)}, {OpRef::temp(t2)},
                          1, Domain::FVec);
        UopSpec c = s.uop(p.fadd, {OpRef::temp(t1), OpRef::temp(t2)},
                          pd ? dsts : std::vector<OpRef>{OpRef::temp(t3)},
                          p.fadd_lat, Domain::FVec);
        if (pd)
            return {a, b, c};
        UopSpec d = s.uop(p.vialu, {OpRef::temp(t3)}, dsts, 1,
                          Domain::FVec);
        return {a, b, c, d};
      }
      case Cls::Comis:
        return single(p.fadd, 2, Domain::FVec);
      case Cls::PureLoad:
      case Cls::Prefetch:
      case Cls::Push:
      case Cls::Pop:
      case Cls::Ret:
      case Cls::CallReg:
      case Cls::Locked:
      case Cls::RepString:
      case Cls::Clflush:
        return {}; // fully handled during composition
    }
    panic("computeUops: unhandled class");
}

/** Load latency for a memory operand consumed by @p cls. */
int
loadLatency(const UArchInfo &info, const OperandSpec &mem_op,
            const InstrVariant &v)
{
    if (mem_op.width >= 256)
        return info.ymm_load_latency;
    if (mem_op.width >= 128 || v.hasVecOperand())
        return info.vec_load_latency;
    return info.gpr_load_latency;
}

} // namespace

TimingInfo
synthesizeTiming(const InstrVariant &variant, UArch arch)
{
    const UArchInfo &info = uarchInfo(arch);
    fatalIf(!info.supports(variant), "instruction ", variant.name(),
            " is not available on ", info.short_name);

    Params params = makeParams(arch);
    Synth synth(variant, params, arch);
    Cls cls = classify(variant);

    TimingInfo timing;
    const isa::InstrAttributes &attrs = variant.attrs();
    timing.zero_idiom = attrs.zero_idiom;
    timing.dep_breaking_same_reg =
        attrs.zero_idiom || attrs.dep_breaking_same_reg;
    timing.mov_elim = false;
    if (attrs.mov_elim_candidate) {
        bool vec = variant.hasVecOperand();
        // Only full-width moves are elimination candidates; narrow
        // moves merge with the old destination value instead.
        bool full_width = true;
        for (const auto &op : variant.operands())
            if (op.kind == OpKind::Reg && op.effectiveWidth() < 32)
                full_width = false;
        timing.mov_elim = full_width &&
                          (vec ? info.vec_move_elim
                               : info.gpr_move_elim);
    }

    // ---- special whole-instruction structural classes ----
    auto loadUop = [&](int mem_idx, OpRef dst) {
        UopSpec u;
        u.ports = params.load;
        u.reads = {OpRef::memAddr(mem_idx), OpRef::memData(mem_idx)};
        u.writes = {dst};
        u.latency =
            loadLatency(info, variant.operand(mem_idx), variant);
        u.domain = Domain::Load;
        return u;
    };
    auto staUop = [&](int mem_idx) {
        UopSpec u;
        u.ports = params.sta;
        u.reads = {OpRef::memAddr(mem_idx)};
        u.writes = {};
        u.latency = 1;
        u.domain = Domain::Sta;
        return u;
    };
    auto stdUop = [&](int mem_idx, std::vector<OpRef> data) {
        UopSpec u;
        u.ports = params.std_p;
        u.reads = std::move(data);
        u.writes = {OpRef::memData(mem_idx)};
        u.latency = 1;
        u.domain = Domain::Std;
        return u;
    };

    switch (cls) {
      case Cls::Prefetch: {
        UopSpec u;
        u.ports = params.load;
        u.reads = {OpRef::memAddr(variant.memOperand())};
        u.latency = 1;
        u.domain = Domain::Load;
        timing.uops = {u};
        return timing;
      }
      case Cls::Clflush: {
        int m = variant.memOperand();
        timing.uops = {staUop(m), stdUop(m, {})};
        return timing;
      }
      case Cls::Push: {
        int m = variant.memOperand();
        std::vector<OpRef> data;
        for (int si : synth.sources())
            if (variant.operand(si).kind == OpKind::Reg)
                data.push_back(OpRef::operand(si));
        timing.uops = {staUop(m), stdUop(m, data)};
        return timing;
      }
      case Cls::Pop: {
        int m = variant.memOperand();
        timing.uops = {loadUop(m, OpRef::operand(0))};
        return timing;
      }
      case Cls::Ret: {
        int m = variant.memOperand();
        int t = 90;
        UopSpec branch = synth.uop(params.branch, {OpRef::temp(t)}, {}, 1);
        timing.uops = {loadUop(m, OpRef::temp(t)), branch};
        return timing;
      }
      case Cls::CallReg: {
        int m = variant.memOperand();
        UopSpec branch =
            synth.uop(params.branch, {OpRef::operand(0)}, {}, 1);
        timing.uops = {branch, staUop(m), stdUop(m, {})};
        return timing;
      }
      case Cls::Locked: {
        int m = variant.memOperand();
        int t_in = 90, t_out = 91;
        std::vector<OpRef> alu_reads = {OpRef::temp(t_in)};
        for (int si : synth.sources())
            if (variant.operand(si).kind != OpKind::Mem)
                alu_reads.push_back(OpRef::operand(si));
        std::vector<OpRef> alu_writes = {OpRef::temp(t_out)};
        for (int di : synth.dests())
            if (variant.operand(di).kind != OpKind::Mem)
                alu_writes.push_back(OpRef::operand(di));
        UopSpec alu = synth.uop(params.alu, alu_reads, alu_writes, 13);
        timing.uops = {loadUop(m, OpRef::temp(t_in)), alu, staUop(m),
                       stdUop(m, {OpRef::temp(t_out)})};
        return timing;
      }
      case Cls::RepString: {
        bool movs = variant.mnemonic() == "REPMOVSB";
        // Fixed-count model of a short REP sequence (variable on
        // hardware; excluded from IACA µop comparisons).
        int src_mem = -1, dst_mem = -1;
        for (size_t i = 0; i < variant.numOperands(); ++i) {
            if (variant.operand(i).kind != OpKind::Mem)
                continue;
            if (variant.operand(i).written)
                dst_mem = static_cast<int>(i);
            else
                src_mem = static_cast<int>(i);
        }
        std::vector<UopSpec> uops;
        for (int rep = 0; rep < 4; ++rep) {
            int t = 90 + rep;
            if (movs)
                uops.push_back(loadUop(src_mem, OpRef::temp(t)));
            else
                uops.push_back(synth.uop(params.alu, {},
                                         {OpRef::temp(t)}, 1));
            uops.push_back(staUop(dst_mem));
            uops.push_back(stdUop(dst_mem, {OpRef::temp(t)}));
        }
        uops.push_back(synth.uop(params.alu, {}, {}, 1));
        uops.push_back(synth.uop(params.alu, {}, {}, 1));
        timing.uops = std::move(uops);
        return timing;
      }
      case Cls::PureLoad: {
        int m = variant.memOperand();
        timing.uops = {loadUop(m, OpRef::operand(0))};
        return timing;
      }
      default:
        break;
    }

    // ---- generic path: compute µops + memory composition ----
    std::vector<UopSpec> compute = computeUops(synth, cls);

    // Pure-move loads/stores collapse to bare load / store µops.
    bool pure_move = (cls == Cls::MovReg || cls == Cls::VMov ||
                      cls == Cls::MovX || cls == Cls::MovImm ||
                      cls == Cls::MovdCross);
    std::vector<UopSpec> uops;

    // Memory reads: a load µop feeding the compute µops.
    for (int m : synth.memReads()) {
        if (pure_move && !variant.operand(m).written) {
            // MOV reg, [mem] and friends: the load writes the
            // destination directly.
            int dst = synth.dests().empty() ? 0 : synth.dests().front();
            timing.uops = {loadUop(m, OpRef::operand(dst))};
            return timing;
        }
        int t = 80 + m;
        uops.push_back(loadUop(m, OpRef::temp(t)));
        for (auto &u : compute)
            for (auto &r : u.reads)
                if (r == OpRef::operand(m))
                    r = OpRef::temp(t);
    }

    // Memory writes: redirect the compute result into a store.
    for (int m : synth.memWrites()) {
        if (compute.empty()) {
            // Plain store (MOV [mem], reg/imm).
            std::vector<OpRef> data;
            for (int si : synth.sources())
                if (variant.operand(si).kind == OpKind::Reg)
                    data.push_back(OpRef::operand(si));
            uops.push_back(staUop(m));
            uops.push_back(stdUop(m, data));
            timing.uops = std::move(uops);
            return timing;
        }
        int t = 85 + m;
        bool redirected = false;
        for (auto &u : compute) {
            for (auto &w : u.writes) {
                if (w == OpRef::operand(m)) {
                    w = OpRef::temp(t);
                    redirected = true;
                }
            }
        }
        if (!redirected) {
            // The compute result is the (register) destination; store
            // path not expected. Fall through with value temp unused.
            continue;
        }
        uops.insert(uops.end(), compute.begin(), compute.end());
        compute.clear();
        uops.push_back(staUop(m));
        uops.push_back(stdUop(m, {OpRef::temp(t)}));
    }
    uops.insert(uops.end(), compute.begin(), compute.end());
    timing.uops = std::move(uops);

    // RMW memory forms: the ALU µop must read the loaded value, which
    // the loop above already wired (mem operand was both read+written).

    // Same-register fast path for SHLD/SHRD on Skylake+ (§7.3.2).
    if (cls == Cls::ShiftD && params.shld_same_reg_fast &&
        params.shld_single) {
        Synth alt(variant, params, arch);
        std::vector<UopSpec> fast = {
            alt.uop(params.imul, alt.sourceRefs(), alt.destRefs(), 1,
                    Domain::Gpr)};
        timing.same_reg_uops = std::move(fast);
    }

    return timing;
}

} // namespace uops::uarch
