#include "timing.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>

#include "support/status.h"
#include "support/strings.h"

namespace uops::uarch {

int
UopSpec::writeLatency(size_t w, bool slow) const
{
    int base = (slow && latency_slow > 0) ? latency_slow : latency;
    if (w < write_extra.size())
        base += write_extra[w];
    return base;
}

int
TimingInfo::maxLatency() const
{
    int max_lat = 1;
    for (const auto &u : uops)
        for (size_t w = 0; w < u.writes.size(); ++w)
            max_lat = std::max(max_lat, u.writeLatency(w, true));
    return max_lat;
}

void
PortUsage::add(PortMask mask, int count)
{
    if (count == 0)
        return;
    for (auto &e : entries) {
        if (e.first == mask) {
            e.second += count;
            return;
        }
    }
    entries.emplace_back(mask, count);
    std::sort(entries.begin(), entries.end());
}

int
PortUsage::totalUops() const
{
    int total = 0;
    for (const auto &e : entries)
        total += e.second;
    return total;
}

bool
PortUsage::operator==(const PortUsage &other) const
{
    return entries == other.entries;
}

std::string
PortUsage::toString() const
{
    if (entries.empty())
        return "-";
    std::string out;
    for (size_t i = 0; i < entries.size(); ++i) {
        if (i)
            out += "+";
        out += std::to_string(entries[i].second) + "*" +
               portMaskName(entries[i].first);
    }
    return out;
}

PortUsage
PortUsage::fromString(const std::string &text)
{
    PortUsage usage;
    if (text.empty() || text == "-")
        return usage;
    for (const std::string &piece : split(text, '+')) {
        size_t star = piece.find('*');
        fatalIf(star == std::string::npos, "bad port usage entry '",
                piece, "'");
        auto count = parseInt(piece.substr(0, star));
        fatalIf(!count || *count <= 0, "bad port usage count in '",
                piece, "'");
        usage.add(parsePortMask(piece.substr(star + 1)),
                  static_cast<int>(*count));
    }
    return usage;
}

PortUsage
PortUsage::ofTiming(const std::vector<UopSpec> &uops)
{
    PortUsage usage;
    for (const auto &u : uops)
        usage.add(u.ports, 1);
    return usage;
}

PortLoad
portLoad(const PortUsage &usage, int num_ports)
{
    PortLoad load;
    panicIf(num_ports < 1 ||
                num_ports > static_cast<int>(load.per_port.size()),
            "portLoad: ", num_ports, " ports");
    for (const auto &[mask, count] : usage.entries)
        if (!portsWithin(mask, num_ports))
            panic("portLoad: port set ", portMaskName(mask), " outside ",
                  num_ports, " ports");

    // Peel the largest densest set S off the ports still open, load
    // each of its ports with demand(S) / |S|, and go on with the
    // entries outside S restricted to the ports left. The largest
    // densest set is unique: the union of two densest sets is densest.
    const unsigned all = (1u << num_ports) - 1;
    unsigned open = all;
    while (open != 0) {
        unsigned best = 0;
        int64_t best_demand = 0;
        int best_size = 1;
        for (unsigned s = open; s != 0; s = (s - 1) & open) {
            int64_t demand = 0;
            for (const auto &[mask, count] : usage.entries) {
                unsigned left = mask & open;
                if (left != 0 && (left & ~s) == 0)
                    demand += count;
            }
            int size = std::popcount(s);
            int64_t lhs = demand * best_size;
            int64_t rhs = best_demand * size;
            if (best == 0 || lhs > rhs ||
                (lhs == rhs && size > best_size)) {
                best = s;
                best_demand = demand;
                best_size = size;
            }
        }
        double density = static_cast<double>(best_demand) / best_size;
        if (open == all)
            load.bottleneck = density;
        for (int p = 0; p < num_ports; ++p)
            if (best & (1u << p))
                load.per_port[static_cast<size_t>(p)] = density;
        open &= ~best;
    }
    return load;
}

LoopModel
loopModel(const isa::Kernel &kernel, std::span<const LoopInstr> instrs,
          int num_ports, LoopDeps deps)
{
    panicIf(instrs.size() != kernel.size(), "loopModel: ", instrs.size(),
            " inputs for ", kernel.size(), " instructions");
    LoopModel model;
    PortUsage combined;
    for (const LoopInstr &in : instrs) {
        for (const auto &[mask, count] : in.usage.entries)
            combined.add(mask, count);
        model.total_uops += in.uops;
    }
    model.ports = portLoad(combined, num_ports);

    // Ready times keyed by (memory?, architectural unit or location
    // tag). A memory read also waits for its address register.
    using ReadyKey = std::pair<bool, int>;
    auto keys = [&](const isa::InstrInstance &inst, int op, bool read) {
        size_t i = static_cast<size_t>(op);
        const isa::OperandSpec &spec = inst.variant->operand(i);
        std::vector<ReadyKey> out;
        if (spec.kind == isa::OpKind::Reg) {
            out.push_back({false, isa::regUnit(inst.regOf(i))});
        } else if (spec.kind == isa::OpKind::Flags && deps.flags) {
            for (int u :
                 (read ? spec.flags_read : spec.flags_written).units())
                out.push_back({false, u});
        } else if (spec.kind == isa::OpKind::Mem && deps.memory) {
            if (read)
                out.push_back({false, isa::regUnit(inst.ops[i].mem.base)});
            out.push_back({true, inst.ops[i].mem.tag});
        }
        return out;
    };

    // Two dataflow passes; the growth of the ready times from the
    // first to the second is the loop-carried dependency bound. An
    // instruction reads all its source times before it writes any
    // destination, and nothing written reads as ready at 0.
    std::map<ReadyKey, double> ready, first;
    std::vector<double> src_time;
    for (int pass = 0; pass < 2; ++pass) {
        first = ready;
        for (size_t i = 0; i < kernel.size(); ++i) {
            const isa::InstrInstance &inst = kernel[i];
            const isa::InstrVariant &v = *inst.variant;
            std::vector<int> sources = v.sourceOperands();
            src_time.assign(sources.size(), 0.0);
            for (size_t k = 0; k < sources.size(); ++k)
                for (ReadyKey key : keys(inst, sources[k], true))
                    if (auto it = ready.find(key); it != ready.end())
                        src_time[k] = std::max(src_time[k], it->second);
            for (int d : v.destOperands()) {
                double t =
                    sources.empty() ? instrs[i].no_source_latency : 0.0;
                for (size_t k = 0; k < sources.size(); ++k) {
                    size_t pair = static_cast<size_t>(sources[k]) *
                                      v.numOperands() +
                                  static_cast<size_t>(d);
                    t = std::max(t, src_time[k] + instrs[i].latency[pair]);
                }
                for (ReadyKey key : keys(inst, d, false))
                    ready[key] = t;
            }
        }
    }
    for (const auto &[key, t] : ready)
        model.dependency_bound =
            std::max(model.dependency_bound, t - first.at(key));
    return model;
}

std::optional<int>
trueLatency(const std::vector<UopSpec> &uops, int src_op, int dst_op,
            bool slow)
{
    // Value-ready times keyed by OpRef. The source operand (its
    // address register for memory operands) becomes ready at time 0;
    // all other external inputs are unconstrained (-inf, i.e. "ready
    // long ago"), per the paper's latency definition: all other
    // dependencies are not on the critical path.
    constexpr long kMinusInf = std::numeric_limits<long>::min() / 4;

    auto ready_key = [](const OpRef &ref) {
        return std::pair<int, int>(static_cast<int>(ref.kind), ref.index);
    };
    std::map<std::pair<int, int>, long> ready;

    auto input_time = [&](const OpRef &ref) -> long {
        auto it = ready.find(ready_key(ref));
        if (it != ready.end())
            return it->second;
        // External input: the source starts the clock, the rest are
        // off the critical path.
        if (ref.kind == OpRef::Kind::Operand && ref.index == src_op)
            return 0;
        if (ref.kind == OpRef::Kind::MemAddr && ref.index == src_op)
            return 0;
        if (ref.kind == OpRef::Kind::MemData && ref.index == src_op)
            return 0;
        return kMinusInf;
    };

    // µops are listed in dataflow order (temps are written before they
    // are read); a single forward pass suffices.
    for (const auto &u : uops) {
        long dispatch = kMinusInf;
        for (const auto &r : u.reads)
            dispatch = std::max(dispatch, input_time(r));
        for (size_t w = 0; w < u.writes.size(); ++w) {
            long t = dispatch == kMinusInf
                         ? kMinusInf
                         : dispatch + u.writeLatency(w, slow);
            auto key = ready_key(u.writes[w]);
            auto it = ready.find(key);
            if (it == ready.end() || it->second < t)
                ready[key] = t;
        }
    }

    auto it = ready.find({static_cast<int>(OpRef::Kind::Operand), dst_op});
    if (it == ready.end() || it->second <= 0)
        return std::nullopt;
    return static_cast<int>(it->second);
}

PortMask
timingPorts(const std::vector<UopSpec> &uops)
{
    PortMask mask = 0;
    for (const auto &u : uops)
        mask |= u.ports;
    return mask;
}

} // namespace uops::uarch
