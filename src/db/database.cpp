#include "database.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "db/scan.h"
#include "support/status.h"
#include "support/strings.h"

namespace uops::db {

namespace {

/**
 * maxLatency over canonical pairs. Delegates to
 * core::LatencyResult::maxLatency so the column always agrees with
 * what the predictor computes from a reconstructed set.
 */
uint16_t
maxLatencyOf(const std::vector<isa::ResultLatency> &lats,
             const std::optional<Cycles> &store_rt)
{
    core::LatencyResult result;
    for (const auto &p : lats) {
        core::LatencyPair pair;
        pair.cycles = p.cycles;
        pair.slow_cycles = p.slow_cycles;
        result.pairs.push_back(pair);
    }
    result.store_roundtrip = store_rt;
    return static_cast<uint16_t>(result.maxLatency());
}

/**
 * Fixed-point bound of a double-valued query range: the smallest /
 * largest hundredth-of-a-cycle inside [v, +inf) / (-inf, v],
 * depending on the rounder (std::ceil for tp_min, std::floor for
 * tp_max). Exact hundredths (up to binary representation slop, e.g.
 * 0.33 * 100 = 32.999...96) map to themselves, so range predicates
 * match records precisely where a double comparison against
 * toDouble() would.
 */
int64_t
centsBound(double v, double (*rounder)(double))
{
    // NaN reaches here straight from an HTTP ?tp_min= parameter
    // (strtod accepts "nan"); casting it would be UB, and clamp does
    // not tame it. FatalError maps to a 400 at the service layer.
    fatalIf(std::isnan(v), "search: non-finite throughput bound");
    double scaled = std::clamp(v * 100.0, -9e15, 9e15);
    double nearest = std::nearbyint(scaled);
    if (std::abs(scaled - nearest) < 1e-6)
        return static_cast<int64_t>(nearest);
    return static_cast<int64_t>(rounder(scaled));
}

} // namespace

Cycles
tpBoundMin(double v)
{
    return Cycles::fromHundredths(
        centsBound(v, [](double x) { return std::ceil(x); }));
}

Cycles
tpBoundMax(double v)
{
    return Cycles::fromHundredths(
        centsBound(v, [](double x) { return std::floor(x); }));
}

// ---------------------------------------------------------------------
// RecordView
// ---------------------------------------------------------------------

uarch::UArch
RecordView::arch() const
{
    return db_->arch();
}

std::string_view
RecordView::name() const
{
    return db_->str(db_->name_[row_]);
}

std::string_view
RecordView::mnemonic() const
{
    return db_->str(db_->mnemonic_[row_]);
}

std::string_view
RecordView::extension() const
{
    return db_->str(db_->ext_[row_]);
}

uarch::PortUsage
RecordView::portUsage() const
{
    uarch::PortUsage usage;
    uint32_t off = db_->ports_off_[row_];
    for (uint16_t i = 0; i < db_->ports_n_[row_]; ++i)
        usage.entries.emplace_back(db_->pu_mask_[off + i],
                                   db_->pu_count_[off + i]);
    return usage;
}

uarch::PortMask
RecordView::portUnion() const
{
    return db_->port_union_[row_];
}

int
RecordView::uopCount() const
{
    return db_->uop_count_[row_];
}

int
RecordView::maxLatency() const
{
    return db_->max_latency_[row_];
}

Cycles
RecordView::tpMeasured() const
{
    return db_->tp_measured_[row_];
}

std::optional<Cycles>
RecordView::tpWithBreakers() const
{
    if (!(db_->flags_[row_] & kHasTpBreakers))
        return std::nullopt;
    return db_->tp_breakers_[row_];
}

std::optional<Cycles>
RecordView::tpSlow() const
{
    if (!(db_->flags_[row_] & kHasTpSlow))
        return std::nullopt;
    return db_->tp_slow_[row_];
}

std::optional<Cycles>
RecordView::tpFromPorts() const
{
    if (!(db_->flags_[row_] & kHasTpPorts))
        return std::nullopt;
    return db_->tp_ports_[row_];
}

std::vector<isa::ResultLatency>
RecordView::latencies() const
{
    std::vector<isa::ResultLatency> out;
    uint32_t off = db_->lat_off_[row_];
    for (uint16_t i = 0; i < db_->lat_n_[row_]; ++i) {
        isa::ResultLatency pair;
        pair.src_op = db_->lat_src_[off + i];
        pair.dst_op = db_->lat_dst_[off + i];
        pair.cycles = db_->lat_cycles_[off + i];
        pair.upper_bound =
            (db_->lat_flags_[off + i] & kLatUpperBound) != 0;
        if (db_->lat_flags_[off + i] & kLatHasSlow)
            pair.slow_cycles = db_->lat_slow_[off + i];
        out.push_back(pair);
    }
    return out;
}

std::optional<Cycles>
RecordView::sameRegCycles() const
{
    if (!(db_->flags_[row_] & kHasSameReg))
        return std::nullopt;
    return db_->same_reg_[row_];
}

std::optional<Cycles>
RecordView::storeRoundTrip() const
{
    if (!(db_->flags_[row_] & kHasStoreRt))
        return std::nullopt;
    return db_->store_rt_[row_];
}

// ---------------------------------------------------------------------
// Building a shard
// ---------------------------------------------------------------------

uint32_t
InstructionDatabase::intern(std::string_view s)
{
    auto it = intern_map_.find(s);
    if (it != intern_map_.end())
        return it->second;
    uint32_t id = static_cast<uint32_t>(str_off_.size());
    str_off_.push_back(static_cast<uint32_t>(pool_.size()));
    str_len_.push_back(static_cast<uint32_t>(s.size()));
    pool_.append(s);
    intern_map_.emplace(std::string(s), id);
    return id;
}

std::string_view
InstructionDatabase::str(uint32_t id) const
{
    panicIf(id >= str_off_.size(), "db: bad string id ", id);
    return pool_.substr(str_off_[id], str_len_[id]);
}

void
InstructionDatabase::append(const Canonical &rec)
{
    arch_.push_back(static_cast<uint8_t>(uarch_));
    name_.push_back(intern(rec.name));
    mnemonic_.push_back(intern(rec.mnemonic));
    ext_.push_back(intern(rec.extension));

    uarch::PortMask union_mask = 0;
    for (const auto &[mask, count] : rec.usage.entries)
        union_mask |= mask;
    port_union_.push_back(union_mask);
    uop_count_.push_back(
        static_cast<uint16_t>(rec.usage.totalUops()));
    max_latency_.push_back(maxLatencyOf(rec.lats, rec.store_rt));

    uint8_t flags = 0;
    if (rec.tp_breakers)
        flags |= kHasTpBreakers;
    if (rec.tp_slow)
        flags |= kHasTpSlow;
    if (rec.tp_ports)
        flags |= kHasTpPorts;
    if (rec.same_reg)
        flags |= kHasSameReg;
    if (rec.store_rt)
        flags |= kHasStoreRt;
    flags_.push_back(flags);

    tp_measured_.push_back(rec.tp_measured);
    tp_breakers_.push_back(rec.tp_breakers.value_or(Cycles()));
    tp_slow_.push_back(rec.tp_slow.value_or(Cycles()));
    tp_ports_.push_back(rec.tp_ports.value_or(Cycles()));
    same_reg_.push_back(rec.same_reg.value_or(Cycles()));
    store_rt_.push_back(rec.store_rt.value_or(Cycles()));

    ports_off_.push_back(static_cast<uint32_t>(pu_mask_.size()));
    ports_n_.push_back(static_cast<uint16_t>(rec.usage.entries.size()));
    for (const auto &[mask, count] : rec.usage.entries) {
        pu_mask_.push_back(mask);
        pu_count_.push_back(static_cast<uint16_t>(count));
    }

    lat_off_.push_back(static_cast<uint32_t>(lat_src_.size()));
    lat_n_.push_back(static_cast<uint16_t>(rec.lats.size()));
    for (const auto &pair : rec.lats) {
        lat_src_.push_back(static_cast<int16_t>(pair.src_op));
        lat_dst_.push_back(static_cast<int16_t>(pair.dst_op));
        uint8_t lf = 0;
        if (pair.upper_bound)
            lf |= kLatUpperBound;
        if (pair.slow_cycles)
            lf |= kLatHasSlow;
        lat_flags_.push_back(lf);
        lat_cycles_.push_back(pair.cycles);
        lat_slow_.push_back(pair.slow_cycles.value_or(Cycles()));
    }
}

void
InstructionDatabase::appendCharacterization(
    const core::InstrCharacterization &c)
{
    // The pipeline's values are canonical Cycles already — this is a
    // plain repackaging, not a conversion.
    Canonical rec;
    rec.name = c.variant->name();
    rec.mnemonic = c.variant->mnemonic();
    rec.extension = isa::extensionName(c.variant->extension());
    rec.usage = c.ports.usage;
    rec.tp_measured = c.throughput.measured;
    rec.tp_breakers = c.throughput.with_breakers;
    rec.tp_slow = c.throughput.slow_measured;
    rec.tp_ports = c.tp_ports;
    for (const core::LatencyPair &p : c.latency.pairs) {
        isa::ResultLatency lat;
        lat.src_op = p.src_op;
        lat.dst_op = p.dst_op;
        lat.cycles = p.cycles;
        lat.upper_bound = p.upper_bound;
        lat.slow_cycles = p.slow_cycles;
        rec.lats.push_back(lat);
    }
    rec.same_reg = c.latency.same_reg_cycles;
    rec.store_rt = c.latency.store_roundtrip;
    append(rec);
}

std::unique_ptr<InstructionDatabase>
InstructionDatabase::fromSet(const core::CharacterizationSet &set)
{
    auto db = std::make_unique<InstructionDatabase>(set.arch);
    for (const core::InstrCharacterization &c : set.instrs)
        db->appendCharacterization(c);
    db->rebuildIndexes();
    return db;
}

// ---------------------------------------------------------------------
// Indexes
// ---------------------------------------------------------------------

void
InstructionDatabase::rebuildIndexes()
{
    by_name_.clear();
    by_mnemonic_.clear();
    by_extension_.clear();
    const uint32_t n = static_cast<uint32_t>(arch_.size());
    for (uint32_t row = 0; row < n; ++row) {
        auto [it, inserted] = by_name_.emplace(str(name_[row]), row);
        fatalIf(!inserted, "db: duplicate record for ",
                uarch::uarchShortName(uarch_), "/",
                std::string(str(name_[row])));
        by_mnemonic_[str(mnemonic_[row])].push_back(row);
        by_extension_[str(ext_[row])].push_back(row);
    }

    auto fill_order = [n](std::vector<uint32_t> &order, auto key_fn) {
        order.resize(n);
        for (uint32_t i = 0; i < n; ++i)
            order[i] = i;
        std::stable_sort(order.begin(), order.end(),
                         [&](uint32_t a, uint32_t b) {
                             return key_fn(a) < key_fn(b);
                         });
    };
    fill_order(tp_order_,
               [this](uint32_t row) { return tp_measured_[row]; });
    fill_order(lat_order_, [this](uint32_t row) {
        return static_cast<double>(max_latency_[row]);
    });
}

// ---------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------

std::optional<uint32_t>
InstructionDatabase::find(std::string_view name) const
{
    auto it = by_name_.find(name);
    if (it == by_name_.end())
        return std::nullopt;
    return it->second;
}

std::vector<uint32_t>
InstructionDatabase::search(const Query &query) const
{
    // The scan executor owns the whole strategy: index short-circuits
    // for the string predicates, order-index pre-filters, and batched
    // bitmap scans for the rest.
    return ScanExecutor(*this).run(predicatesFromQuery(query),
                                   query.limit);
}

core::CharacterizationSet
InstructionDatabase::toCharacterizationSet(
    const isa::InstrDb &instr_db) const
{
    core::CharacterizationSet set;
    set.arch = uarch_;
    for (uint32_t row = 0; row < arch_.size(); ++row) {
        RecordView view = record(row);
        const isa::InstrVariant *variant =
            instr_db.byName(std::string(view.name()));
        if (variant == nullptr)
            continue;

        core::InstrCharacterization c;
        c.variant = variant;
        for (const isa::ResultLatency &lat : view.latencies()) {
            core::LatencyPair pair;
            pair.src_op = lat.src_op;
            pair.dst_op = lat.dst_op;
            pair.cycles = lat.cycles;
            pair.upper_bound = lat.upper_bound;
            pair.slow_cycles = lat.slow_cycles;
            c.latency.pairs.push_back(pair);
        }
        c.latency.same_reg_cycles = view.sameRegCycles();
        c.latency.store_roundtrip = view.storeRoundTrip();
        c.ports.usage = view.portUsage();
        c.throughput.measured = view.tpMeasured();
        c.throughput.with_breakers = view.tpWithBreakers();
        c.throughput.slow_measured = view.tpSlow();
        c.tp_ports = view.tpFromPorts();
        set.instrs.push_back(std::move(c));
    }
    return set;
}

} // namespace uops::db
