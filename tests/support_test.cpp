/**
 * @file
 * Unit tests for the support library: strings, XML, RNG, stats.
 */

#include <gtest/gtest.h>

#include "support/rng.h"
#include "support/stats.h"
#include "support/status.h"
#include "support/strings.h"
#include "support/xml.h"

namespace uops::test {
namespace {

// ---------------------------------------------------------------------
// Strings.
// ---------------------------------------------------------------------

TEST(Strings, Trim)
{
    EXPECT_EQ(trim("  a b  "), "a b");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("\t\n x \r"), "x");
    EXPECT_EQ(trim("abc"), "abc");
}

TEST(Strings, Split)
{
    EXPECT_EQ(split("a,b,c", ','),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(split("a, b , c", ','),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "c"}));
    EXPECT_EQ(split("a,,c", ',', true, true),
              (std::vector<std::string>{"a", "", "c"}));
    EXPECT_TRUE(split("", ',').empty());
}

TEST(Strings, SplitWhitespace)
{
    EXPECT_EQ(splitWhitespace("  a\tb  c\n"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_TRUE(splitWhitespace("   ").empty());
}

TEST(Strings, StartsEndsWith)
{
    EXPECT_TRUE(startsWith("MOVSX", "MOV"));
    EXPECT_FALSE(startsWith("MO", "MOV"));
    EXPECT_TRUE(endsWith("ADDPS", "PS"));
    EXPECT_FALSE(endsWith("S", "PS"));
}

TEST(Strings, Case)
{
    EXPECT_EQ(toUpper("xmm0"), "XMM0");
}

TEST(Strings, ParseInt)
{
    EXPECT_EQ(parseInt("42"), 42);
    EXPECT_EQ(parseInt(" -7 "), -7);
    EXPECT_FALSE(parseInt("4x").has_value());
    EXPECT_FALSE(parseInt("").has_value());
}

TEST(Strings, ParseDouble)
{
    EXPECT_DOUBLE_EQ(*parseDouble("0.25"), 0.25);
    EXPECT_FALSE(parseDouble("1.2.3").has_value());
}

// ---------------------------------------------------------------------
// XML.
// ---------------------------------------------------------------------

TEST(Xml, EscapeRoundTrip)
{
    EXPECT_EQ(xmlEscape("a<b>&\"'"), "a&lt;b&gt;&amp;&quot;&apos;");
}

TEST(Xml, WriteSimple)
{
    XmlNode root("root");
    root.attr("x", 1L);
    root.addChild("leaf").attr("name", "a<b");
    std::string s = root.toString();
    EXPECT_NE(s.find("<root x=\"1\">"), std::string::npos);
    EXPECT_NE(s.find("name=\"a&lt;b\""), std::string::npos);
}

TEST(Xml, ParseRoundTrip)
{
    XmlNode root("instructionSet");
    root.attr("count", 2L);
    auto &a = root.addChild("instruction");
    a.attr("name", "ADD_R64_R64");
    a.addChild("operand").attr("access", "rw");
    root.addChild("instruction").attr("name", "X<Y");

    auto parsed = parseXml(root.toString());
    EXPECT_EQ(parsed->name(), "instructionSet");
    EXPECT_EQ(parsed->getAttr("count"), "2");
    auto instrs = parsed->childrenNamed("instruction");
    ASSERT_EQ(instrs.size(), 2u);
    EXPECT_EQ(instrs[0]->getAttr("name"), "ADD_R64_R64");
    EXPECT_EQ(instrs[1]->getAttr("name"), "X<Y");
    ASSERT_NE(instrs[0]->firstChild("operand"), nullptr);
}

TEST(Xml, ParseWithCommentsAndProlog)
{
    auto n = parseXml("<?xml version=\"1.0\"?>\n"
                      "<!-- header -->\n"
                      "<a><!-- inner --><b k=\"v\"/></a>");
    EXPECT_EQ(n->name(), "a");
    ASSERT_NE(n->firstChild("b"), nullptr);
    EXPECT_EQ(n->firstChild("b")->getAttr("k"), "v");
}

TEST(Xml, ParseText)
{
    auto n = parseXml("<a>hello &amp; goodbye</a>");
    EXPECT_EQ(n->text(), "hello & goodbye");
}

TEST(Xml, ParseErrors)
{
    EXPECT_THROW(parseXml("<a>"), FatalError);
    EXPECT_THROW(parseXml("<a></b>"), FatalError);
    EXPECT_THROW(parseXml("<a attr></a>"), FatalError);
    EXPECT_THROW(parseXml("<a/><b/>"), FatalError);
}

// ---------------------------------------------------------------------
// RNG and stats.
// ---------------------------------------------------------------------

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
        EXPECT_LT(r.nextBelow(10), 10u);
    }
}

TEST(Stats, MeanMedianMin)
{
    EXPECT_DOUBLE_EQ(mean({1, 2, 3}), 2.0);
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
    EXPECT_DOUBLE_EQ(minOf({4, 1, 2}), 1.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, RoundCycles)
{
    EXPECT_EQ(roundCycles(0.99), Cycles::fromHundredths(100));
    EXPECT_EQ(roundCycles(1.02), Cycles::fromHundredths(100));
    EXPECT_EQ(roundCycles(0.25), Cycles::fromHundredths(25));
    EXPECT_EQ(roundCycles(0.334), Cycles::fromHundredths(33));
    EXPECT_TRUE(cyclesEqual(1.0, 1.04));
    EXPECT_FALSE(cyclesEqual(1.0, 1.2));
}

// ---------------------------------------------------------------------
// The canonical fixed-point cycle type.
// ---------------------------------------------------------------------

TEST(Cycles, CanonicalTextForms)
{
    EXPECT_EQ(Cycles::fromHundredths(0).str(), "0");
    EXPECT_EQ(Cycles::fromHundredths(400).str(), "4");
    EXPECT_EQ(Cycles::fromHundredths(250).str(), "2.5");
    EXPECT_EQ(Cycles::fromHundredths(33).str(), "0.33");
    EXPECT_EQ(Cycles::fromHundredths(7).str(), "0.07");
    EXPECT_EQ(Cycles::fromHundredths(123456).str(), "1234.56");
    EXPECT_EQ(Cycles::fromHundredths(-150).str(), "-1.5");
}

TEST(Cycles, ParseAcceptsCanonicalAndRejectsTheRest)
{
    EXPECT_EQ(Cycles::parse("4"), Cycles::fromHundredths(400));
    EXPECT_EQ(Cycles::parse("2.5"), Cycles::fromHundredths(250));
    EXPECT_EQ(Cycles::parse("0.33"), Cycles::fromHundredths(33));
    EXPECT_EQ(Cycles::parse("-1.5"), Cycles::fromHundredths(-150));
    // Three fraction digits mark a foreign document carrying more
    // precision than the reporting granularity: not parseable as
    // exact Cycles (callers re-round through a double instead).
    EXPECT_FALSE(Cycles::parse("0.333").has_value());
    EXPECT_FALSE(Cycles::parse("1e2").has_value());
    EXPECT_FALSE(Cycles::parse("").has_value());
    EXPECT_FALSE(Cycles::parse("4.").has_value());
    EXPECT_FALSE(Cycles::parse(".5").has_value());
    EXPECT_FALSE(Cycles::parse("x").has_value());
    // A second sign consumed by from_chars would mangle the value
    // ("--1" -> +1); the remainder after the sign must be digits.
    EXPECT_FALSE(Cycles::parse("--1").has_value());
    EXPECT_FALSE(Cycles::parse("-+1").has_value());
    EXPECT_FALSE(Cycles::parse("+1").has_value());
    // A whole part whose *100 would overflow int64 is rejected, not
    // wrapped (untrusted document text reaches parse()) — but only
    // genuinely unrepresentable values: the top of the range still
    // round-trips.
    EXPECT_FALSE(Cycles::parse("100000000000000000").has_value());
    EXPECT_FALSE(
        Cycles::parse("9223372036854775807.99").has_value());
    const Cycles top = Cycles::fromHundredths(
        std::numeric_limits<int64_t>::max());
    EXPECT_EQ(Cycles::parse(top.str()), top);
}

TEST(Cycles, EveryRepresentableValueRoundTripsExactly)
{
    // Property: str() and parse() are exact inverses for every
    // representable value — exhaustively to 1200.00 cycles, then
    // strided through the int64 range (the double-based text chain
    // this replaces could not make that promise past 2^53).
    for (int64_t h = -12000; h <= 120000; ++h) {
        Cycles value = Cycles::fromHundredths(h);
        auto back = Cycles::parse(value.str());
        ASSERT_TRUE(back.has_value()) << value.str();
        ASSERT_EQ(*back, value) << value.str();
    }
    for (int64_t h = 1; h < (int64_t{1} << 55); h = h * 7 + 13) {
        Cycles value = Cycles::fromHundredths(h);
        auto back = Cycles::parse(value.str());
        ASSERT_TRUE(back.has_value()) << value.str();
        ASSERT_EQ(*back, value) << value.str();
    }
}

TEST(Cycles, TextFormMatchesLegacyDoubleFormatting)
{
    // The byte-identity bridge: in the measurable range, str() equals
    // what the XML writer used to print for the rounded double, so
    // v2 artifacts are byte-identical to v1's. (Beyond 6 significant
    // digits the legacy ostream formatting truncated; Cycles stays
    // exact, which is the improvement, not a regression.)
    for (int64_t h = 0; h <= 200000; ++h) {
        Cycles value = Cycles::fromHundredths(h);
        ASSERT_EQ(value.str(), xmlFormatDouble(value.toDouble()))
            << h;
    }
}

TEST(Cycles, RoundAppliesReportingGranularity)
{
    EXPECT_EQ(Cycles::round(3.9999999), Cycles::fromHundredths(400));
    EXPECT_EQ(Cycles::round(4.05), Cycles::fromHundredths(400));
    EXPECT_EQ(Cycles::round(4.051), Cycles::fromHundredths(405));
    EXPECT_EQ(Cycles::round(0.125), Cycles::fromHundredths(13));
    EXPECT_EQ(Cycles::round(11.0 / 3.0), Cycles::fromHundredths(367));
}

TEST(Cycles, RoundRejectsNonFiniteAndOutOfRangeValues)
{
    // Foreign results XML can carry "1e300", "inf" or "nan" through
    // the parseDouble fallback; a loud error beats llround garbage.
    EXPECT_THROW(Cycles::round(1e300), FatalError);
    EXPECT_THROW(
        Cycles::round(std::numeric_limits<double>::infinity()),
        FatalError);
    EXPECT_THROW(
        Cycles::round(std::numeric_limits<double>::quiet_NaN()),
        FatalError);
    EXPECT_NO_THROW(Cycles::round(8.9e15));
}

TEST(Cycles, CeilMatchesBlockRepSemantics)
{
    EXPECT_EQ(Cycles::fromHundredths(0).ceil(), 0);
    EXPECT_EQ(Cycles::fromHundredths(1).ceil(), 1);
    EXPECT_EQ(Cycles::fromHundredths(100).ceil(), 1);
    EXPECT_EQ(Cycles::fromHundredths(101).ceil(), 2);
    EXPECT_EQ(Cycles::fromHundredths(399).ceil(), 4);
    EXPECT_EQ(Cycles::fromHundredths(400).ceil(), 4);
}

TEST(Status, FatalAndPanic)
{
    EXPECT_THROW(fatal("bad ", 42), FatalError);
    EXPECT_THROW(panic("bug"), PanicError);
    EXPECT_NO_THROW(fatalIf(false, "x"));
    EXPECT_THROW(fatalIf(true, "x"), FatalError);
    EXPECT_THROW(panicIf(true, "x"), PanicError);
}

} // namespace
} // namespace uops::test
