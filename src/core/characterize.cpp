#include "characterize.h"

#include <cmath>

#include "sim/measurement_cache.h"
#include "support/stats.h"
#include "support/status.h"

namespace uops::core {

using isa::InstrVariant;
using uarch::UArch;

Characterizer::Characterizer(const isa::InstrDb &db, UArch arch,
                             Options options)
    : db_(db), arch_(arch), options_(std::move(options)),
      timing_(db, arch), harness_(timing_)
{
}

bool
Characterizer::isMeasurable(const InstrVariant &variant) const
{
    const isa::InstrAttributes &attrs = variant.attrs();
    if (!harness_.info().supports(variant))
        return false;
    // System and serializing instructions cannot be measured in loops
    // (Section 8 lists the system-instruction limitations).
    if (attrs.is_system || attrs.is_serializing)
        return false;
    if (attrs.is_pause)
        return false;
    // Register-based control flow would leave the benchmark body.
    if (attrs.is_cf_reg)
        return false;
    return true;
}

void
Characterizer::ensureSetup() const
{
    if (setup_done_)
        return;
    instruments_ = calibrateInstruments(harness_);
    BlockingFinder finder(harness_);
    sse_blocking_ = std::make_unique<BlockingSet>(finder.find(false));
    if (harness_.info().hasExtension(isa::Extension::Avx))
        avx_blocking_ = std::make_unique<BlockingSet>(finder.find(true));
    else
        avx_blocking_ = std::make_unique<BlockingSet>(*sse_blocking_);
    setup_done_ = true;
}

void
Characterizer::prepare() const
{
    ensureSetup();
}

void
Characterizer::setMeasurementCache(sim::MeasurementCache *cache)
{
    harness_.setCache(cache);
}

void
Characterizer::primeFrom(const Characterizer &other) const
{
    panicIf(&other.db_ != &db_ || other.arch_ != arch_,
            "Characterizer::primeFrom: mismatched db or uarch");
    panicIf(!other.setup_done_,
            "Characterizer::primeFrom: source is not set up");
    if (setup_done_)
        return;
    instruments_ = other.instruments_;
    sse_blocking_ = std::make_unique<BlockingSet>(*other.sse_blocking_);
    avx_blocking_ = std::make_unique<BlockingSet>(*other.avx_blocking_);
    setup_done_ = true;
}

InstrCharacterization
Characterizer::characterize(const InstrVariant &variant) const
{
    ensureSetup();
    InstrCharacterization out;
    out.variant = &variant;

    LatencyAnalyzer lat(harness_, instruments_);
    out.latency = lat.analyze(variant);

    PortUsageAnalyzer ports(harness_, *sse_blocking_, *avx_blocking_);
    out.ports = ports.analyze(variant, out.latency.maxLatency());

    ThroughputAnalyzer tp(harness_);
    out.throughput = tp.analyze(variant);

    if (!variant.attrs().uses_divider &&
        !out.ports.usage.entries.empty()) {
        out.tp_ports =
            roundCycles(ThroughputAnalyzer::computeFromPortUsage(
                out.ports.usage, harness_.info().num_ports));
    }
    return out;
}

CharacterizationSet
Characterizer::run() const
{
    ensureSetup();
    CharacterizationSet set;
    set.arch = arch_;
    set.instruments = instruments_;
    set.sse_blocking = *sse_blocking_;
    set.avx_blocking = *avx_blocking_;
    for (const InstrVariant *variant : db_.all()) {
        if (!isMeasurable(*variant))
            continue;
        if (options_.filter && !options_.filter(*variant))
            continue;
        set.instrs.push_back(characterize(*variant));
    }
    return set;
}

std::unique_ptr<XmlNode>
exportResultsXml(const CharacterizationSet &set)
{
    const uarch::UArchInfo &info = uarch::uarchInfo(set.arch);
    auto root = std::make_unique<XmlNode>("uopsInfo");
    root->attr("architecture", info.short_name);
    root->attr("processor", info.processor);
    root->attr("instructions", static_cast<long>(set.instrs.size()));

    for (const auto &c : set.instrs) {
        XmlNode &node = root->addChild("instruction");
        node.attr("name", c.variant->name());
        node.attr("mnemonic", c.variant->mnemonic());

        XmlNode &ports = node.addChild("ports");
        ports.attr("usage", c.ports.usage.toString());
        ports.attr("uops", static_cast<long>(c.ports.usage.totalUops()));

        // Results are canonical Cycles already; the writer just
        // renders their fixed-point text form.
        XmlNode &tp = node.addChild("throughput");
        tp.attr("measured", c.throughput.measured);
        if (c.throughput.with_breakers)
            tp.attr("withDepBreakers", *c.throughput.with_breakers);
        if (c.throughput.slow_measured)
            tp.attr("slowValues", *c.throughput.slow_measured);
        if (c.tp_ports)
            tp.attr("fromPorts", *c.tp_ports);

        for (const auto &pair : c.latency.pairs) {
            XmlNode &lat = node.addChild("latency");
            lat.attr("srcOp", static_cast<long>(pair.src_op));
            lat.attr("dstOp", static_cast<long>(pair.dst_op));
            lat.attr("cycles", pair.cycles);
            if (pair.upper_bound)
                lat.attr("upperBound", "1");
            if (pair.slow_cycles)
                lat.attr("slowCycles", *pair.slow_cycles);
        }
        if (c.latency.same_reg_cycles) {
            XmlNode &sr = node.addChild("latencySameReg");
            sr.attr("cycles", *c.latency.same_reg_cycles);
        }
        if (c.latency.store_roundtrip) {
            XmlNode &rt = node.addChild("storeLoadRoundTrip");
            rt.attr("cycles", *c.latency.store_roundtrip);
        }
    }
    return root;
}

double
IacaComparison::uopsAgreement() const
{
    int n = variants_compared - excluded_prefix;
    return n > 0 ? 100.0 * uops_same / n : 0.0;
}

double
IacaComparison::portsAgreement() const
{
    return ports_compared > 0 ? 100.0 * ports_same / ports_compared
                              : 0.0;
}

IacaComparison
compareWithIaca(const isa::InstrDb &db, const CharacterizationSet &set)
{
    IacaComparison cmp;
    auto versions = iaca::versionsFor(set.arch);
    if (versions.empty())
        return cmp;

    std::vector<std::unique_ptr<iaca::IacaAnalyzer>> analyzers;
    for (iaca::Version v : versions)
        analyzers.push_back(
            std::make_unique<iaca::IacaAnalyzer>(db, set.arch, v));

    for (const auto &c : set.instrs) {
        const InstrVariant &variant = *c.variant;
        ++cmp.variants_compared;
        bool prefix = variant.attrs().has_rep_prefix ||
                      variant.attrs().has_lock_prefix;
        if (prefix) {
            ++cmp.excluded_prefix;
            continue;
        }

        int measured_uops = c.ports.usage.totalUops();
        bool any_count = false;
        bool any_ports = false;
        for (const auto &an : analyzers) {
            iaca::IacaInstrModel m = an->model(variant);
            if (m.total_uops == measured_uops) {
                any_count = true;
                if (m.usage == c.ports.usage)
                    any_ports = true;
            }
        }
        if (any_count) {
            ++cmp.uops_same;
            ++cmp.ports_compared;
            if (any_ports)
                ++cmp.ports_same;
        }
    }
    return cmp;
}

} // namespace uops::core
