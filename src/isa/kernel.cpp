#include "kernel.h"

#include "support/status.h"
#include "support/strings.h"

namespace uops::isa {

Reg
InstrInstance::regOf(size_t i) const
{
    const OperandSpec &spec = variant->operand(i);
    panicIf(spec.kind != OpKind::Reg, "regOf: operand ", i,
            " of ", variant->name(), " is not a register");
    if (spec.fixed_reg >= 0)
        return Reg{spec.reg_class, spec.fixed_reg};
    return ops[i].reg;
}

std::string
InstrInstance::toAsm() const
{
    std::string out = variant->mnemonic();
    bool first = true;
    for (int idx : variant->explicitOperands()) {
        out += first ? " " : ", ";
        first = false;
        const OperandSpec &spec = variant->operand(idx);
        const OperandValue &val = ops[idx];
        switch (spec.kind) {
          case OpKind::Reg:
            out += regName(val.reg);
            break;
          case OpKind::Mem:
            out += "[" + regName(val.mem.base);
            if (val.mem.tag != 0)
                out += "+" + std::to_string(val.mem.tag);
            out += "]";
            break;
          case OpKind::Imm:
            out += std::to_string(val.imm);
            break;
          case OpKind::Flags:
            break;
        }
    }
    return out;
}

std::string
kernelToAsm(const Kernel &kernel)
{
    std::string out;
    for (const auto &instance : kernel) {
        out += instance.toAsm();
        out += '\n';
    }
    return out;
}

InstrInstance
makeInstance(const InstrVariant &variant,
             std::span<const OperandValue> explicit_values,
             const MemLoc &implicit_mem)
{
    InstrInstance inst;
    inst.variant = &variant;
    inst.ops.resize(variant.numOperands());

    const auto &expl = variant.explicitOperands();
    fatalIf(explicit_values.size() != expl.size(), "makeInstance(",
            variant.name(), "): expected ", expl.size(),
            " explicit operands, got ", explicit_values.size());
    for (size_t i = 0; i < expl.size(); ++i)
        inst.ops[expl[i]] = explicit_values[i];

    // Fill implicit operands.
    for (size_t i = 0; i < variant.numOperands(); ++i) {
        const OperandSpec &spec = variant.operand(i);
        if (!spec.implicit)
            continue;
        if (spec.kind == OpKind::Reg && spec.fixed_reg >= 0) {
            inst.ops[i].reg = Reg{spec.reg_class, spec.fixed_reg};
        } else if (spec.kind == OpKind::Mem) {
            inst.ops[i].mem = implicit_mem;
            if (!inst.ops[i].mem.base.valid()) {
                // Default implicit memory: RSP-based (stack).
                inst.ops[i].mem.base = Reg{RegClass::Gpr64, 4};
                inst.ops[i].mem.tag = -1;
            }
        }
    }
    return inst;
}

namespace {

/** Untrusted-input bounds for assembler text (the /predict path
 *  feeds raw client bytes through here). Generous for any legitimate
 *  kernel; tight enough that hostile input cannot smuggle extreme
 *  values past the narrower internal types. */
constexpr size_t kMaxAsmLineBytes = 512;
constexpr size_t kMaxAsmOperands = 8;
/** Displacements are symbolic memory-location tags (isa::MemLoc),
 *  not addresses; negative values collide with the reserved implicit
 *  stack tag and a long->int cast would silently alias distinct
 *  displacements, so the accepted range is bounded explicitly. */
constexpr long kMaxMemDisplacement = 1 << 20;

/** Parse one explicit operand token from assembler text. */
OperandValue
parseAsmOperand(const std::string &token, OpKind &kind_out)
{
    OperandValue val;
    std::string t = trim(token);
    fatalIf(t.empty(), "assemble: empty operand");
    if (t.front() == '[') {
        fatalIf(t.back() != ']', "assemble: unterminated memory operand '",
                t, "'");
        std::string inner = t.substr(1, t.size() - 2);
        auto plus = inner.find('+');
        std::string base = inner;
        if (plus != std::string::npos) {
            base = trim(inner.substr(0, plus));
            auto tag = parseInt(inner.substr(plus + 1));
            fatalIf(!tag, "assemble: bad displacement in '", t, "'");
            fatalIf(*tag < 0 || *tag > kMaxMemDisplacement,
                    "assemble: displacement out of range [0, ",
                    kMaxMemDisplacement, "] in '", t, "'");
            val.mem.tag = static_cast<int>(*tag);
        }
        auto reg = parseRegName(trim(base));
        fatalIf(!reg, "assemble: unknown base register '", base, "'");
        val.mem.base = *reg;
        kind_out = OpKind::Mem;
        return val;
    }
    if (auto reg = parseRegName(t)) {
        val.reg = *reg;
        kind_out = OpKind::Reg;
        return val;
    }
    auto imm = parseInt(t);
    fatalIf(!imm, "assemble: cannot parse operand '", t, "'");
    val.imm = *imm;
    kind_out = OpKind::Imm;
    return val;
}

/** Does explicit operand spec @p spec accept a token of @p kind/value? */
bool
operandMatches(const OperandSpec &spec, OpKind kind, const OperandValue &val)
{
    if (spec.kind != kind)
        return false;
    if (kind == OpKind::Reg) {
        if (spec.reg_class != val.reg.cls)
            return false;
        if (spec.fixed_reg >= 0 && spec.fixed_reg != val.reg.index)
            return false;
    }
    return true;
}

} // namespace

InstrInstance
assembleLine(const InstrDb &db, const std::string &line)
{
    std::string text = trim(line);
    fatalIf(text.size() > kMaxAsmLineBytes,
            "assemble: line exceeds ", kMaxAsmLineBytes, " bytes");
    size_t space = text.find(' ');
    std::string mnemonic =
        toUpper(space == std::string::npos ? text : text.substr(0, space));
    std::string rest =
        space == std::string::npos ? "" : text.substr(space + 1);

    std::vector<OperandValue> values;
    std::vector<OpKind> kinds;
    if (!trim(rest).empty()) {
        for (const auto &tok : split(rest, ',')) {
            fatalIf(values.size() >= kMaxAsmOperands,
                    "assemble: more than ", kMaxAsmOperands,
                    " operands in '", line, "'");
            OpKind kind;
            values.push_back(parseAsmOperand(tok, kind));
            kinds.push_back(kind);
        }
    }

    auto candidates = db.byMnemonic(mnemonic);
    fatalIf(candidates.empty(), "assemble: unknown mnemonic '", mnemonic,
            "'");
    for (const InstrVariant *variant : candidates) {
        const auto &expl = variant->explicitOperands();
        if (expl.size() != values.size())
            continue;
        bool ok = true;
        for (size_t i = 0; i < expl.size(); ++i) {
            if (!operandMatches(variant->operand(expl[i]), kinds[i],
                                values[i])) {
                ok = false;
                break;
            }
        }
        if (ok)
            return makeInstance(*variant, values);
    }
    fatal("assemble: no variant of '", mnemonic, "' matches '", line, "'");
}

Kernel
assemble(const InstrDb &db, const std::string &listing)
{
    Kernel kernel;
    for (const auto &raw : split(listing, '\n')) {
        std::string line = raw;
        size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;
        kernel.push_back(assembleLine(db, line));
    }
    return kernel;
}

} // namespace uops::isa
