/**
 * @file
 * Tests for the ISA layer: registers, flags, the XED-style table DSL,
 * the instruction database, the assembler, and the XML round trip.
 */

#include <gtest/gtest.h>

#include "isa/parser.h"
#include "test_util.h"

namespace uops::test {
namespace {

using isa::Extension;
using isa::FlagMask;
using isa::InstrDb;
using isa::OpKind;
using isa::Reg;
using isa::RegClass;

// ---------------------------------------------------------------------
// Registers.
// ---------------------------------------------------------------------

TEST(Registers, ClassProperties)
{
    EXPECT_EQ(isa::regClassWidth(RegClass::Gpr64), 64);
    EXPECT_EQ(isa::regClassWidth(RegClass::Xmm), 128);
    EXPECT_EQ(isa::regClassWidth(RegClass::Ymm), 256);
    EXPECT_EQ(isa::regClassCount(RegClass::Gpr8High), 4);
    EXPECT_TRUE(isa::isGprClass(RegClass::Gpr8));
    EXPECT_FALSE(isa::isGprClass(RegClass::Xmm));
    EXPECT_TRUE(isa::isVecClass(RegClass::Ymm));
}

/** Name/parse round trip over every register of every class. */
class RegisterRoundTrip : public ::testing::TestWithParam<RegClass>
{
};

TEST_P(RegisterRoundTrip, NameParse)
{
    RegClass cls = GetParam();
    for (int i = 0; i < isa::regClassCount(cls); ++i) {
        Reg reg{cls, i};
        std::string name = isa::regName(reg);
        auto parsed = isa::parseRegName(name);
        ASSERT_TRUE(parsed.has_value()) << name;
        EXPECT_EQ(*parsed, reg) << name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, RegisterRoundTrip,
    ::testing::Values(RegClass::Gpr8, RegClass::Gpr8High, RegClass::Gpr16,
                      RegClass::Gpr32, RegClass::Gpr64, RegClass::Mmx,
                      RegClass::Xmm, RegClass::Ymm));

TEST(Registers, Aliasing)
{
    // AL, AX, EAX, RAX, AH alias the same unit.
    auto unit = [](const char *n) {
        return isa::regUnit(*isa::parseRegName(n));
    };
    EXPECT_EQ(unit("AL"), unit("RAX"));
    EXPECT_EQ(unit("AH"), unit("RAX"));
    EXPECT_EQ(unit("AX"), unit("EAX"));
    EXPECT_NE(unit("RAX"), unit("RBX"));
    // XMM3 and YMM3 alias; MM3 does not.
    EXPECT_EQ(unit("XMM3"), unit("YMM3"));
    EXPECT_NE(unit("MM3"), unit("XMM3"));
}

TEST(Registers, ParseRejectsUnknown)
{
    EXPECT_FALSE(isa::parseRegName("RAXX").has_value());
    EXPECT_FALSE(isa::parseRegName("XMM16").has_value());
    EXPECT_FALSE(isa::parseRegName("MM8").has_value());
    EXPECT_FALSE(isa::parseRegName("").has_value());
}

TEST(Flags, MaskParsing)
{
    FlagMask m = FlagMask::fromLetters("CZSPO");
    EXPECT_TRUE(m.cf);
    EXPECT_TRUE(m.spazo);
    EXPECT_FALSE(m.af);
    FlagMask a = FlagMask::fromLetters("A");
    EXPECT_TRUE(a.af);
    EXPECT_FALSE(a.cf);
    EXPECT_EQ(m.units().size(), 2u);
    EXPECT_THROW(FlagMask::fromLetters("X"), FatalError);
}

// ---------------------------------------------------------------------
// DSL parser.
// ---------------------------------------------------------------------

TEST(Parser, SimpleLine)
{
    InstrDb db;
    isa::parseInstrTable("FOO reg64:rw reg64:r wflags:CZSPO ext=AVX "
                         "attr=avx,zeroidiom\n",
                         db);
    ASSERT_EQ(db.size(), 1u);
    const auto *v = db.byName("FOO_R64_R64");
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->mnemonic(), "FOO");
    EXPECT_EQ(v->extension(), Extension::Avx);
    EXPECT_TRUE(v->attrs().is_avx);
    EXPECT_TRUE(v->attrs().zero_idiom);
    ASSERT_EQ(v->numOperands(), 3u); // two registers + flags
    EXPECT_TRUE(v->operand(0).readWritten());
    EXPECT_EQ(v->flagsOperand(), 2);
    EXPECT_TRUE(v->operand(2).flags_written.cf);
    EXPECT_FALSE(v->operand(2).flags_read.any());
}

TEST(Parser, ImplicitFixedRegister)
{
    InstrDb db;
    isa::parseInstrTable("BAR reg64:rw *reg8=CL:r rwflags:C\n", db);
    const auto *v = db.byName("BAR_R64_R8i");
    ASSERT_NE(v, nullptr);
    EXPECT_TRUE(v->operand(1).implicit);
    EXPECT_EQ(v->operand(1).fixed_reg, 1); // CL = index 1
    EXPECT_EQ(v->explicitOperands(),
              (std::vector<int>{0})); // CL is implicit
}

TEST(Parser, MemoryAndImmediates)
{
    InstrDb db;
    isa::parseInstrTable("BAZ mem128:w xmm:r imm8\n", db);
    const auto *v = db.byName("BAZ_M128_X_I8");
    ASSERT_NE(v, nullptr);
    EXPECT_TRUE(v->writesMemory());
    EXPECT_FALSE(v->readsMemory());
    EXPECT_EQ(v->operand(2).kind, OpKind::Imm);
    EXPECT_EQ(v->memOperand(), 0);
}

TEST(Parser, CommentsAndBlankLines)
{
    InstrDb db;
    size_t n = isa::parseInstrTable("# comment only\n"
                                    "\n"
                                    "A reg64:rw reg64:r # trailing\n",
                                    db);
    EXPECT_EQ(n, 1u);
}

TEST(Parser, Errors)
{
    InstrDb db;
    EXPECT_THROW(isa::parseInstrTable("A reg64\n", db), FatalError);
    EXPECT_THROW(isa::parseInstrTable("A reg99:rw\n", db), FatalError);
    EXPECT_THROW(isa::parseInstrTable("A reg64:rw ext=NOPE\n", db),
                 FatalError);
    EXPECT_THROW(isa::parseInstrTable("A reg64:rw attr=nope\n", db),
                 FatalError);
    EXPECT_THROW(isa::parseInstrTable("A imm8:r\n", db), FatalError);
    // Duplicate variant names are rejected.
    InstrDb db2;
    EXPECT_THROW(isa::parseInstrTable("A reg64:rw\nA reg64:r\n", db2),
                 FatalError);
}

// ---------------------------------------------------------------------
// Bundled database.
// ---------------------------------------------------------------------

TEST(DefaultDb, SizeAndLookups)
{
    const auto &db = defaultDb();
    EXPECT_GT(db.size(), 550u);
    EXPECT_NE(db.byName("ADD_R64_R64"), nullptr);
    EXPECT_NE(db.byName("AESDEC_X_X"), nullptr);
    EXPECT_NE(db.byName("SHLD_R64_R64_I8"), nullptr);
    EXPECT_NE(db.byName("MOVQ2DQ_X_MM"), nullptr);
    EXPECT_NE(db.byName("PBLENDVB_X_X_Xi"), nullptr);
    EXPECT_EQ(db.byName("NO_SUCH_INSTR"), nullptr);
    EXPECT_GE(db.byMnemonic("ADD").size(), 16u);
}

TEST(DefaultDb, VariantCountsGrowAcrossGenerations)
{
    // Table 1 structure: counts grow with the generations; Kaby Lake
    // and Coffee Lake equal Skylake.
    std::map<uarch::UArch, int> counts;
    for (auto arch : uarch::allUArches()) {
        const auto &info = uarch::uarchInfo(arch);
        int n = 0;
        for (const auto *v : defaultDb().all())
            if (info.supports(*v))
                ++n;
        counts[arch] = n;
    }
    using uarch::UArch;
    EXPECT_LT(counts[UArch::Nehalem], counts[UArch::Westmere]);
    EXPECT_LT(counts[UArch::Westmere], counts[UArch::SandyBridge]);
    EXPECT_LT(counts[UArch::SandyBridge], counts[UArch::IvyBridge]);
    EXPECT_LT(counts[UArch::IvyBridge], counts[UArch::Haswell]);
    EXPECT_LT(counts[UArch::Haswell], counts[UArch::Broadwell]);
    EXPECT_LT(counts[UArch::Broadwell], counts[UArch::Skylake]);
    EXPECT_EQ(counts[UArch::Skylake], counts[UArch::KabyLake]);
    EXPECT_EQ(counts[UArch::KabyLake], counts[UArch::CoffeeLake]);
}

TEST(DefaultDb, PaperCaseStudyAttributesPresent)
{
    const auto &db = defaultDb();
    EXPECT_TRUE(db.byName("XOR_R64_R64")->attrs().zero_idiom);
    EXPECT_TRUE(db.byName("PCMPGTD_X_X")->attrs().dep_breaking_same_reg);
    EXPECT_TRUE(db.byName("MOV_R64_R64")->attrs().mov_elim_candidate);
    EXPECT_TRUE(db.byName("DIVPS_X_X")->attrs().uses_divider);
    EXPECT_TRUE(db.byName("VADDPS_Y_Y_Y")->attrs().is_avx);
    EXPECT_TRUE(db.byName("JMP_R64")->attrs().is_cf_reg);
    EXPECT_FALSE(db.byName("JZ_I8")->attrs().is_cf_reg);
}

TEST(DefaultDb, SourceAndDestQueries)
{
    const auto *adc = defaultDb().byName("ADC_R64_R64");
    ASSERT_NE(adc, nullptr);
    // Sources: op0 (rw), op1, flags (reads CF). Dests: op0, flags.
    EXPECT_EQ(adc->sourceOperands().size(), 3u);
    EXPECT_EQ(adc->destOperands().size(), 2u);

    const auto *mul = defaultDb().byName("MUL_R64i_R64i_R64");
    ASSERT_NE(mul, nullptr);
    EXPECT_EQ(mul->destOperands().size(), 3u); // RDX, RAX, flags
}

// ---------------------------------------------------------------------
// Assembler.
// ---------------------------------------------------------------------

TEST(Assembler, RoundTrip)
{
    for (const char *line :
         {"ADD RAX, RBX", "AESDEC XMM1, XMM2", "MOV RAX, [RBX]",
          "MOV [RBX], RAX", "SHLD RAX, RBX, 1", "ADD RAX, 42",
          "PSHUFD XMM1, XMM2, 0", "MOVQ2DQ XMM1, MM2"}) {
        auto inst = isa::assembleLine(defaultDb(), line);
        EXPECT_EQ(inst.toAsm(), line);
    }
}

TEST(Assembler, MemoryDisplacementSelectsTag)
{
    auto inst = isa::assembleLine(defaultDb(), "MOV RAX, [RBX+64]");
    int mem_idx = inst.variant->memOperand();
    EXPECT_EQ(inst.ops[mem_idx].mem.tag, 64);
    EXPECT_EQ(inst.toAsm(), "MOV RAX, [RBX+64]");
}

TEST(Assembler, PicksCorrectWidthVariant)
{
    auto i64 = isa::assembleLine(defaultDb(), "ADD RAX, RBX");
    EXPECT_EQ(i64.variant->name(), "ADD_R64_R64");
    auto i32 = isa::assembleLine(defaultDb(), "ADD EAX, EBX");
    EXPECT_EQ(i32.variant->name(), "ADD_R32_R32");
    auto i8 = isa::assembleLine(defaultDb(), "ADD AL, BL");
    EXPECT_EQ(i8.variant->name(), "ADD_R8_R8");
}

TEST(Assembler, Errors)
{
    EXPECT_THROW(isa::assembleLine(defaultDb(), "NOPE RAX"), FatalError);
    EXPECT_THROW(isa::assembleLine(defaultDb(), "ADD RAX"), FatalError);
    EXPECT_THROW(isa::assembleLine(defaultDb(), "ADD RAX, XMM1"),
                 FatalError);
}

TEST(Parser, DefaultTableReparsesIdentically)
{
    // parser round trip: the bundled DSL text rebuilds a database
    // equivalent to the bundled one, variant for variant.
    const auto &db = defaultDb();
    isa::InstrDb reparsed;
    size_t n = isa::parseInstrTable(isa::defaultInstrTableText(),
                                    reparsed);
    ASSERT_EQ(n, db.size());
    for (const auto *orig : db.all()) {
        const auto *copy = reparsed.byName(orig->name());
        ASSERT_NE(copy, nullptr) << orig->name();
        EXPECT_EQ(copy->mnemonic(), orig->mnemonic());
        EXPECT_EQ(copy->extension(), orig->extension());
        EXPECT_EQ(copy->explicitOperands(), orig->explicitOperands());
        ASSERT_EQ(copy->numOperands(), orig->numOperands());
        for (size_t i = 0; i < orig->numOperands(); ++i) {
            const auto &a = orig->operand(i);
            const auto &b = copy->operand(i);
            EXPECT_EQ(a.kind, b.kind);
            EXPECT_EQ(a.reg_class, b.reg_class);
            EXPECT_EQ(a.read, b.read);
            EXPECT_EQ(a.written, b.written);
            EXPECT_EQ(a.implicit, b.implicit);
            EXPECT_EQ(a.fixed_reg, b.fixed_reg);
            EXPECT_EQ(a.flags_read, b.flags_read);
            EXPECT_EQ(a.flags_written, b.flags_written);
        }
        EXPECT_EQ(copy->attrs().zero_idiom, orig->attrs().zero_idiom);
        EXPECT_EQ(copy->attrs().uses_divider,
                  orig->attrs().uses_divider);
        EXPECT_EQ(copy->attrs().is_avx, orig->attrs().is_avx);
    }
}

TEST(Assembler, KernelTextRoundTrip)
{
    // kernel text round trip: parse a listing, render it, re-parse
    // the rendering; both the text and the chosen variants are stable.
    const char *listing = "ADD RAX, RBX\n"
                          "XOR RCX, RCX\n"
                          "MOV RDX, [RSI+8]\n"
                          "PSHUFD XMM1, XMM2, 0\n"
                          "MOV [RDI], RAX\n"
                          "SHLD RAX, RBX, 1";
    isa::Kernel kernel = isa::assemble(defaultDb(), listing);
    std::string rendered = isa::kernelToAsm(kernel);
    EXPECT_EQ(rendered, std::string(listing) + "\n");

    isa::Kernel again = isa::assemble(defaultDb(), rendered);
    ASSERT_EQ(again.size(), kernel.size());
    for (size_t i = 0; i < kernel.size(); ++i) {
        EXPECT_EQ(again[i].variant, kernel[i].variant) << "line " << i;
        EXPECT_EQ(again[i].toAsm(), kernel[i].toAsm()) << "line " << i;
    }
    EXPECT_EQ(isa::kernelToAsm(again), rendered);
}

TEST(Assembler, MultiLineListing)
{
    auto kernel = asm_("ADD RAX, RBX\n# comment\nSUB RCX, RDX\n");
    ASSERT_EQ(kernel.size(), 2u);
    EXPECT_EQ(kernel[1].variant->mnemonic(), "SUB");
}

} // namespace
} // namespace uops::test
