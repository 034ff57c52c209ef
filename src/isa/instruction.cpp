#include "instruction.h"

#include <algorithm>

#include "support/status.h"

namespace uops::isa {

Extension
parseExtension(const std::string &name)
{
    static const std::map<std::string, Extension> table = {
        {"BASE", Extension::Base},   {"MMX", Extension::Mmx},
        {"SSE", Extension::Sse},     {"SSE2", Extension::Sse2},
        {"SSE3", Extension::Sse3},   {"SSSE3", Extension::Ssse3},
        {"SSE41", Extension::Sse41}, {"SSE42", Extension::Sse42},
        {"AES", Extension::Aes},     {"CLMUL", Extension::Clmul},
        {"AVX", Extension::Avx},     {"F16C", Extension::F16c},
        {"AVX2", Extension::Avx2},   {"BMI1", Extension::Bmi1},
        {"BMI2", Extension::Bmi2},   {"FMA", Extension::Fma},
        {"ADX", Extension::Adx},     {"SGX", Extension::Sgx},
    };
    auto it = table.find(name);
    if (it == table.end())
        fatal("unknown ISA extension '", name, "'");
    return it->second;
}

std::string
extensionName(Extension ext)
{
    switch (ext) {
      case Extension::Base: return "BASE";
      case Extension::Mmx: return "MMX";
      case Extension::Sse: return "SSE";
      case Extension::Sse2: return "SSE2";
      case Extension::Sse3: return "SSE3";
      case Extension::Ssse3: return "SSSE3";
      case Extension::Sse41: return "SSE41";
      case Extension::Sse42: return "SSE42";
      case Extension::Aes: return "AES";
      case Extension::Clmul: return "CLMUL";
      case Extension::Avx: return "AVX";
      case Extension::F16c: return "F16C";
      case Extension::Avx2: return "AVX2";
      case Extension::Bmi1: return "BMI1";
      case Extension::Bmi2: return "BMI2";
      case Extension::Fma: return "FMA";
      case Extension::Adx: return "ADX";
      case Extension::Sgx: return "SGX";
    }
    return "BASE";
}

namespace {

std::string
makeVariantName(const std::string &mnemonic,
                const std::vector<OperandSpec> &operands)
{
    std::string name = mnemonic;
    for (const auto &op : operands) {
        if (op.kind == OpKind::Flags)
            continue;
        if (op.implicit && op.kind == OpKind::Reg && op.fixed_reg < 0)
            continue;
        name += "_" + op.typeTag();
        if (op.implicit && op.kind == OpKind::Reg && op.fixed_reg >= 0)
            name += "i"; // implicit fixed register, e.g. CL shift count
    }
    return name;
}

} // namespace

InstrVariant::InstrVariant(int id, std::string mnemonic,
                           std::vector<OperandSpec> operands,
                           Extension ext, InstrAttributes attrs)
    : id_(id),
      mnemonic_(std::move(mnemonic)),
      operands_(std::move(operands)),
      ext_(ext),
      attrs_(attrs)
{
    name_ = makeVariantName(mnemonic_, operands_);
    auto is_explicit = [](const OperandSpec &op) {
        return !op.implicit && op.kind != OpKind::Flags;
    };
    explicit_.reserve(static_cast<size_t>(
        std::count_if(operands_.begin(), operands_.end(), is_explicit)));
    for (size_t i = 0; i < operands_.size(); ++i)
        if (is_explicit(operands_[i]))
            explicit_.push_back(static_cast<int>(i));
}

std::vector<int>
InstrVariant::sourceOperands() const
{
    std::vector<int> out;
    for (size_t i = 0; i < operands_.size(); ++i) {
        const auto &op = operands_[i];
        bool reads = op.read ||
                     (op.kind == OpKind::Flags && op.flags_read.any());
        if (reads && op.kind != OpKind::Imm)
            out.push_back(static_cast<int>(i));
    }
    return out;
}

std::vector<int>
InstrVariant::destOperands() const
{
    std::vector<int> out;
    for (size_t i = 0; i < operands_.size(); ++i) {
        const auto &op = operands_[i];
        bool writes = op.written ||
                      (op.kind == OpKind::Flags && op.flags_written.any());
        if (writes)
            out.push_back(static_cast<int>(i));
    }
    return out;
}

int
InstrVariant::flagsOperand() const
{
    for (size_t i = 0; i < operands_.size(); ++i)
        if (operands_[i].kind == OpKind::Flags)
            return static_cast<int>(i);
    return -1;
}

int
InstrVariant::memOperand() const
{
    for (size_t i = 0; i < operands_.size(); ++i)
        if (operands_[i].kind == OpKind::Mem)
            return static_cast<int>(i);
    return -1;
}

bool
InstrVariant::readsMemory() const
{
    for (const auto &op : operands_)
        if (op.kind == OpKind::Mem && op.read)
            return true;
    return false;
}

bool
InstrVariant::writesMemory() const
{
    for (const auto &op : operands_)
        if (op.kind == OpKind::Mem && op.written)
            return true;
    return false;
}

bool
InstrVariant::hasVecOperand() const
{
    for (const auto &op : operands_)
        if (op.kind == OpKind::Reg && isVecClass(op.reg_class))
            return true;
    return false;
}

std::string
InstrVariant::syntaxTemplate() const
{
    std::string out = mnemonic_;
    const auto &expl = explicitOperands();
    for (size_t i = 0; i < expl.size(); ++i) {
        out += (i == 0) ? " " : ", ";
        out += "%" + std::to_string(i);
    }
    return out;
}

const InstrVariant &
InstrDb::add(std::string mnemonic, std::vector<OperandSpec> operands,
             Extension ext, InstrAttributes attrs)
{
    auto variant = std::make_unique<InstrVariant>(
        static_cast<int>(variants_.size()), std::move(mnemonic),
        std::move(operands), ext, attrs);
    const std::string &name = variant->name();
    fatalIf(by_name_.count(name) > 0, "duplicate instruction variant '",
            name, "'");
    const InstrVariant *ptr = variant.get();
    by_name_[name] = ptr;
    by_mnemonic_[variant->mnemonic()].push_back(ptr);
    variants_.push_back(std::move(variant));
    return *ptr;
}

const InstrVariant *
InstrDb::byName(const std::string &name) const
{
    auto it = by_name_.find(name);
    return it == by_name_.end() ? nullptr : it->second;
}

std::vector<const InstrVariant *>
InstrDb::byMnemonic(const std::string &mnemonic) const
{
    auto it = by_mnemonic_.find(mnemonic);
    if (it == by_mnemonic_.end())
        return {};
    return it->second;
}

std::vector<const InstrVariant *>
InstrDb::all() const
{
    std::vector<const InstrVariant *> out;
    out.reserve(variants_.size());
    for (const auto &v : variants_)
        out.push_back(v.get());
    return out;
}

} // namespace uops::isa
