/**
 * @file
 * Parser for the uops.info-style *results* XML (Section 6.4).
 *
 * The measurement results emitted by core::exportResultsXml() /
 * CharacterizationReport::toXml() are read back here, into a
 * plain-data representation of the results documents — deliberately
 * free of uarch/ and core/ types so it stays inside the isa layer —
 * by a parser accepting both roots:
 *
 *   <uopsInfo architecture=... processor=...>   one uarch
 *   <uopsBatch uarches=...>                     a whole sweep
 *
 * Microarchitectures are carried as their short names ("SKL") and
 * port usages as their rendered form ("3*p015+1*p23"); consumers above
 * the uarch layer resolve them with uarch::parseUArch and
 * uarch::PortUsage::fromString. All cycle values are canonical
 * fixed-point Cycles: our own exports parse exactly (the attribute
 * text is the Cycles decimal form), and foreign or hand-edited
 * documents carrying more precision than the writer emits are
 * re-rounded to the reporting granularity at this boundary — so a
 * database ingested from a parsed document is bit-identical to one
 * ingested from the in-memory characterization it was exported from,
 * the round-trip property the db layer's golden test pins.
 */

#ifndef UOPS_ISA_RESULTS_XML_H
#define UOPS_ISA_RESULTS_XML_H

#include <optional>
#include <string>
#include <vector>

#include "support/cycles.h"
#include "support/xml.h"

namespace uops::isa {

/** One <latency> element: a (source, destination) operand pair. */
struct ResultLatency
{
    int src_op = -1;
    int dst_op = -1;
    Cycles cycles;
    bool upper_bound = false;
    std::optional<Cycles> slow_cycles;
};

/** One <instruction> element of a results document. */
struct InstrResult
{
    std::string name;      ///< Unique variant name, e.g. "ADD_R64_R64".
    std::string mnemonic;

    std::string ports;     ///< Port usage, e.g. "3*p015+1*p23" or "-".
    int uops = 0;          ///< Total µop count reported with it.

    Cycles tp_measured;
    std::optional<Cycles> tp_with_breakers;
    std::optional<Cycles> tp_slow;
    std::optional<Cycles> tp_from_ports;

    std::vector<ResultLatency> latencies;
    std::optional<Cycles> same_reg_cycles;   ///< <latencySameReg>
    std::optional<Cycles> store_roundtrip;   ///< <storeLoadRoundTrip>
};

/** One <uopsInfo> element: all results for one microarchitecture. */
struct UArchResults
{
    std::string architecture;  ///< Short name, e.g. "SKL".
    std::string processor;
    std::vector<InstrResult> instrs;

    /** (variant name, message) of each <error> child. */
    std::vector<std::pair<std::string, std::string>> errors;
};

/** A parsed results document (one or many uarches). */
struct ResultsDoc
{
    std::vector<UArchResults> uarches;
};

/**
 * Parse a results tree rooted at <uopsInfo> or <uopsBatch>.
 *
 * @throws FatalError on any other root or malformed content.
 */
ResultsDoc parseResultsXml(const XmlNode &root);

/** Convenience overload: parse the document text first. */
ResultsDoc parseResultsXml(const std::string &text);

} // namespace uops::isa

#endif // UOPS_ISA_RESULTS_XML_H
