#include "catalog.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "db/scan.h"
#include "support/hash.h"
#include "support/io.h"
#include "support/obs/log.h"
#include "support/obs/metrics.h"
#include "support/status.h"

namespace fs = std::filesystem;

namespace uops::db {

namespace {

constexpr char kManifestMagic[8] = {'U', 'O', 'P', 'S', 'M',
                                    'F', '\x1a', '\n'};
constexpr uint32_t kManifestVersion = 1;
constexpr uint32_t kEndianTag = 0x0A0B0C0Du;

/** Numbered manifests kept per directory: the current generation
 *  plus fallbacks for recovery. Shard files are never pruned here. */
constexpr size_t kManifestRetention = 4;

/** Store-consistency failures throw CatalogError (a FatalError
 *  subtype): recoverable per generation, reportable by callers. */
template <typename... Parts>
[[noreturn]] void
catalogFail(const Parts &...parts)
{
    std::ostringstream os;
    detail::formatInto(os, parts...);
    throw CatalogError(os.str());
}

template <typename... Parts>
void
catalogCheck(bool condition, const Parts &...parts)
{
    if (condition)
        catalogFail(parts...);
}

std::string
shardFileName(uarch::UArch arch, uint64_t hash)
{
    return uarch::uarchShortName(arch) + "-" + hashHex(hash) +
           ".shard";
}

/** Stream sink that digests instead of storing: hashing a shard
 *  costs one serialization pass but no second copy of the bytes. */
class FnvStreamBuf final : public std::streambuf
{
  public:
    uint64_t hash() const { return hash_; }

  protected:
    int_type
    overflow(int_type ch) override
    {
        if (ch != traits_type::eof()) {
            char c = traits_type::to_char_type(ch);
            hash_ = fnv1a64(&c, 1, hash_);
        }
        return ch;
    }

    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        hash_ = fnv1a64(s, static_cast<size_t>(n), hash_);
        return n;
    }

  private:
    uint64_t hash_ = kFnvOffsetBasis;
};

uint64_t
shardHash(const InstructionDatabase &db)
{
    FnvStreamBuf buffer;
    std::ostream os(&buffer);
    saveShard(db, os);
    return buffer.hash();
}

/** Field-by-field record comparison: the one definition of "changed"
 *  behind diff(). Fills the three *_differs flags of @p entry. */
void
compareRecords(CatalogDiff::Entry &entry)
{
    const RecordView &a = entry.a;
    const RecordView &b = entry.b;
    entry.tp_differs = a.tpMeasured() != b.tpMeasured();
    entry.ports_differ = !(a.portUsage() == b.portUsage());
    auto lats_a = a.latencies();
    auto lats_b = b.latencies();
    entry.latency_differs = lats_a.size() != lats_b.size();
    for (size_t i = 0; !entry.latency_differs && i < lats_a.size();
         ++i) {
        const auto &la = lats_a[i];
        const auto &lb = lats_b[i];
        entry.latency_differs =
            la.src_op != lb.src_op || la.dst_op != lb.dst_op ||
            la.cycles != lb.cycles ||
            la.upper_bound != lb.upper_bound ||
            la.slow_cycles != lb.slow_cycles;
    }
}

/** Hand per-uarch shards over as catalog entries (uarch order). */
std::vector<ShardEntry>
toEntries(
    std::map<uarch::UArch, std::unique_ptr<InstructionDatabase>> &shards)
{
    std::vector<ShardEntry> out;
    for (auto &[arch, db] : shards) {
        ShardEntry entry;
        entry.arch = arch;
        entry.db = std::move(db);
        out.push_back(std::move(entry));
    }
    shards.clear();
    return out;
}

} // namespace

std::string
manifestFileName(uint64_t generation)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "manifest.%010llu",
                  static_cast<unsigned long long>(generation));
    return buf;
}

std::string
RecoveryReport::summary() const
{
    std::ostringstream os;
    if (!recovered && events.empty()) {
        os << "generation " << generation;
    } else {
        os << (recovered ? "recovered to generation "
                         : "repaired at generation ")
           << generation << " (" << rejected_generations.size()
           << " generation(s) rejected, " << removed_files.size()
           << " file(s) removed)";
    }
    return os.str();
}

// ---------------------------------------------------------------------
// DatabaseCatalog
// ---------------------------------------------------------------------

DatabaseCatalog::DatabaseCatalog(std::vector<ShardEntry> shards,
                                 uint64_t generation)
    : shards_(std::move(shards)), generation_(generation)
{
    for (ShardEntry &entry : shards_) {
        fatalIf(entry.db == nullptr, "db catalog: null shard for ",
                uarch::uarchShortName(entry.arch));
        fatalIf(entry.db->arch() != entry.arch, "db catalog: shard for ",
                uarch::uarchShortName(entry.arch), " holds ",
                uarch::uarchShortName(entry.db->arch()), " records");
        entry.records = entry.db->numRecords();
        if (entry.hash == 0)
            entry.hash = shardHash(*entry.db);
        if (entry.file.empty())
            entry.file = shardFileName(entry.arch, entry.hash);
    }
    std::sort(shards_.begin(), shards_.end(),
              [](const ShardEntry &a, const ShardEntry &b) {
                  return static_cast<uint8_t>(a.arch) <
                         static_cast<uint8_t>(b.arch);
              });
    for (size_t i = 1; i < shards_.size(); ++i)
        fatalIf(shards_[i - 1].arch == shards_[i].arch,
                "db catalog: duplicate shard for ",
                uarch::uarchShortName(shards_[i].arch));
}

uint64_t
DatabaseCatalog::contentHash() const
{
    // Shards are uarch-sorted by construction, so the fold order —
    // and thus the digest — is canonical for a given content set.
    uint64_t digest = kFnvOffsetBasis;
    for (const ShardEntry &entry : shards_) {
        uint8_t arch = static_cast<uint8_t>(entry.arch);
        digest = fnv1a64(&arch, sizeof arch, digest);
        digest = fnv1a64(&entry.hash, sizeof entry.hash, digest);
    }
    return digest;
}

const InstructionDatabase *
DatabaseCatalog::shard(uarch::UArch arch) const
{
    for (const ShardEntry &entry : shards_)
        if (entry.arch == arch)
            return entry.db.get();
    return nullptr;
}

size_t
DatabaseCatalog::numRecords() const
{
    size_t n = 0;
    for (const ShardEntry &entry : shards_)
        n += entry.db->numRecords();
    return n;
}

size_t
DatabaseCatalog::numRecords(uarch::UArch arch) const
{
    const InstructionDatabase *db = shard(arch);
    return db ? db->numRecords() : 0;
}

std::vector<uarch::UArch>
DatabaseCatalog::uarches() const
{
    std::vector<uarch::UArch> out;
    out.reserve(shards_.size());
    for (const ShardEntry &entry : shards_)
        if (entry.db->numRecords() > 0)
            out.push_back(entry.arch);
    return out;
}

std::vector<RecordView>
DatabaseCatalog::findByName(std::string_view name) const
{
    std::vector<RecordView> out;
    for (const ShardEntry &entry : shards_)
        if (auto row = entry.db->find(name))
            out.push_back(entry.db->record(*row));
    return out;
}

std::vector<RecordView>
DatabaseCatalog::search(const Query &query) const
{
    std::vector<RecordView> out;
    for (const ShardEntry &entry : shards_) {
        if (query.arch && *query.arch != entry.arch)
            continue;
        if (out.size() >= query.limit)
            break;
        Query rest = query;
        rest.limit = query.limit - out.size();
        for (uint32_t row : entry.db->search(rest))
            out.push_back(entry.db->record(row));
    }
    return out;
}

CatalogDiff
DatabaseCatalog::diff(uarch::UArch a, uarch::UArch b) const
{
    CatalogDiff out;
    const InstructionDatabase *db_a = shard(a);
    const InstructionDatabase *db_b = shard(b);

    // Merge-walk the two shards' name indexes (name-sorted, one row
    // per name), so only_a / only_b and the changed list come out in
    // name order.
    static const std::map<std::string_view, uint32_t> kNoNames;
    const auto &names_a = db_a ? db_a->by_name_ : kNoNames;
    const auto &names_b = db_b ? db_b->by_name_ : kNoNames;
    auto i = names_a.begin();
    auto j = names_b.begin();
    while (i != names_a.end() || j != names_b.end()) {
        if (j == names_b.end() ||
            (i != names_a.end() && i->first < j->first)) {
            out.only_a.emplace_back((i++)->first);
            continue;
        }
        if (i == names_a.end() || j->first < i->first) {
            out.only_b.emplace_back((j++)->first);
            continue;
        }
        ++out.common;
        CatalogDiff::Entry entry{db_a->record((i++)->second),
                                 db_b->record((j++)->second)};
        compareRecords(entry);
        if (entry.tp_differs || entry.ports_differ ||
            entry.latency_differs)
            out.changed.push_back(entry);
    }
    return out;
}

AnalyticsResult
DatabaseCatalog::analytics(const AnalyticsQuery &query) const
{
    AnalyticsResult out;
    const InstructionDatabase *db_from = shard(query.from);
    const InstructionDatabase *db_to = shard(query.to);
    if (db_from == nullptr || db_to == nullptr)
        return out;

    // One filtered executor scan per side, name-sorted; the merge
    // below then pairs and classifies. The filter's arch constraint
    // is meaningless here (each side *is* one uarch) and its limit
    // must not truncate a side mid-merge, so both are neutralized.
    Query filter = query.filter;
    filter.arch.reset();
    filter.limit = SIZE_MAX;
    PredicateSet preds = predicatesFromQuery(filter);
    auto side = [&preds](const InstructionDatabase &db) {
        std::vector<std::pair<std::string_view, uint32_t>> names;
        std::vector<uint32_t> rows = ScanExecutor(db).run(preds);
        names.reserve(rows.size());
        for (uint32_t row : rows)
            names.emplace_back(db.record(row).name(), row);
        std::sort(names.begin(), names.end());
        return names;
    };
    auto names_from = side(*db_from);
    auto names_to = side(*db_to);

    using Metric = AnalyticsQuery::Metric;
    using Direction = AnalyticsQuery::Direction;
    size_t i = 0, j = 0;
    while (i < names_from.size() && j < names_to.size()) {
        if (names_from[i].first < names_to[j].first) {
            ++i;
            continue;
        }
        if (names_to[j].first < names_from[i].first) {
            ++j;
            continue;
        }
        ++out.common;
        AnalyticsEntry entry{db_from->record(names_from[i].second),
                             db_to->record(names_to[j].second)};
        ++i;
        ++j;

        Cycles tp_from = entry.from.tpMeasured();
        Cycles tp_to = entry.to.tpMeasured();
        int lat_from = entry.from.maxLatency();
        int lat_to = entry.to.maxLatency();
        entry.tp_changed = tp_from != tp_to;
        entry.lat_changed = lat_from != lat_to;

        // Higher cycles-per-instruction / higher latency == slower.
        bool tp_on = query.metric != Metric::Latency;
        bool lat_on = query.metric != Metric::Tp;
        bool regressed = (tp_on && tp_to > tp_from) ||
                         (lat_on && lat_to > lat_from);
        bool improved = (tp_on && tp_to < tp_from) ||
                        (lat_on && lat_to < lat_from);
        bool hit = false;
        switch (query.direction) {
        case Direction::Regressed: hit = regressed; break;
        case Direction::Improved: hit = improved; break;
        case Direction::Changed:
            hit = (tp_on && entry.tp_changed) ||
                  (lat_on && entry.lat_changed);
            break;
        }
        if (!hit)
            continue;
        ++out.matched;
        if (out.entries.size() < query.limit)
            out.entries.push_back(entry);
    }
    return out;
}

core::CharacterizationSet
DatabaseCatalog::toCharacterizationSet(
    uarch::UArch arch, const isa::InstrDb &instr_db) const
{
    const InstructionDatabase *db = shard(arch);
    if (db == nullptr) {
        core::CharacterizationSet empty;
        empty.arch = arch;
        return empty;
    }
    return db->toCharacterizationSet(instr_db);
}

std::vector<ShardEntry>
DatabaseCatalog::shardsFromResults(const isa::ResultsDoc &doc,
                                   const isa::InstrDb *resolve)
{
    std::map<uarch::UArch, std::unique_ptr<InstructionDatabase>> shards;
    for (const isa::UArchResults &ua : doc.uarches) {
        uarch::UArch arch = uarch::parseUArch(ua.architecture);
        std::unique_ptr<InstructionDatabase> &shard = shards[arch];
        if (!shard)
            shard = std::make_unique<InstructionDatabase>(arch);
        const int num_ports = uarch::uarchInfo(arch).num_ports;
        for (const isa::InstrResult &r : ua.instrs) {
            InstructionDatabase::Canonical rec;
            rec.name = r.name;
            rec.mnemonic = r.mnemonic;
            const isa::InstrVariant *variant =
                resolve ? resolve->byName(r.name) : nullptr;
            rec.extension =
                variant ? isa::extensionName(variant->extension())
                        : std::string("?");
            rec.usage = uarch::PortUsage::fromString(r.ports);
            for (const auto &[mask, count] : rec.usage.entries) {
                if (uarch::portsWithin(mask, num_ports))
                    continue;
                fatalIf(mask == 0, "db: ", ua.architecture, "/", r.name,
                        " has an empty port set");
                fatal("db: ", ua.architecture, "/", r.name, " uses port ",
                      uarch::portsOf(mask).back(), ", but ",
                      ua.architecture, " has ", num_ports, " ports");
            }
            // The parser already yields canonical Cycles (foreign
            // precision was re-rounded at the isa boundary), so the
            // XML path stores exactly what the in-memory path does.
            rec.tp_measured = r.tp_measured;
            rec.tp_breakers = r.tp_with_breakers;
            rec.tp_slow = r.tp_slow;
            rec.tp_ports = r.tp_from_ports;
            rec.lats = r.latencies;
            rec.same_reg = r.same_reg_cycles;
            rec.store_rt = r.store_roundtrip;
            shard->append(rec);
        }
    }
    for (auto &[arch, db] : shards)
        db->rebuildIndexes();
    return toEntries(shards);
}

std::shared_ptr<const DatabaseCatalog>
DatabaseCatalog::splice(const DatabaseCatalog &base,
                        std::vector<ShardEntry> fresh)
{
    std::vector<ShardEntry> merged = base.shards_;
    for (ShardEntry &entry : fresh) {
        auto it = std::find_if(merged.begin(), merged.end(),
                               [&](const ShardEntry &e) {
                                   return e.arch == entry.arch;
                               });
        // Fresh shards carry new content: drop any stale file/hash
        // identity so the catalog recomputes their address.
        entry.hash = 0;
        entry.file.clear();
        if (it != merged.end())
            *it = std::move(entry);
        else
            merged.push_back(std::move(entry));
    }
    return std::make_shared<DatabaseCatalog>(
        std::move(merged), base.generation() + 1);
}

// ---------------------------------------------------------------------
// Directory store
// ---------------------------------------------------------------------

namespace {

struct ManifestShard
{
    uarch::UArch arch = uarch::UArch::Nehalem;
    uint64_t records = 0;
    uint64_t hash = 0;
    std::string file;
};

struct Manifest
{
    uint64_t generation = 0;
    std::vector<ManifestShard> shards;
};

std::string
manifestBytes(const DatabaseCatalog &catalog)
{
    std::ostringstream os(std::ios::binary);
    auto scalar = [&os](uint64_t value) {
        os.write(reinterpret_cast<const char *>(&value),
                 sizeof value);
    };
    os.write(kManifestMagic, sizeof kManifestMagic);
    uint32_t head[2] = {kManifestVersion, kEndianTag};
    os.write(reinterpret_cast<const char *>(head), sizeof head);
    scalar(catalog.generation());
    scalar(catalog.shards().size());
    for (const ShardEntry &entry : catalog.shards()) {
        scalar(static_cast<uint8_t>(entry.arch));
        scalar(entry.records);
        scalar(entry.hash);
        scalar(entry.file.size());
        os.write(entry.file.data(),
                 static_cast<std::streamsize>(entry.file.size()));
        static const char zeros[8] = {};
        os.write(zeros,
                 static_cast<std::streamsize>(
                     (8 - entry.file.size() % 8) % 8));
    }
    return std::move(os).str();
}

/** Parse and check one manifest. @p generation is the number in its
 *  file name, which the header must repeat. */
Manifest
parseManifest(const std::string &bytes, const std::string &dir,
              uint64_t generation)
{
    std::istringstream is(bytes, std::ios::binary);
    auto raw = [&is, &dir](void *out, size_t n) {
        is.read(static_cast<char *>(out),
                static_cast<std::streamsize>(n));
        catalogCheck(static_cast<size_t>(is.gcount()) != n,
                "db catalog: truncated manifest in ", dir);
    };
    auto scalar = [&raw] {
        uint64_t value = 0;
        raw(&value, sizeof value);
        return value;
    };
    char magic[8];
    raw(magic, sizeof magic);
    catalogCheck(std::memcmp(magic, kManifestMagic, sizeof magic) != 0,
            "db catalog: bad manifest magic in ", dir);
    uint32_t head[2];
    raw(head, sizeof head);
    catalogCheck(head[0] != kManifestVersion,
            "db catalog: unsupported manifest version ", head[0]);
    catalogCheck(head[1] != kEndianTag,
            "db catalog: manifest has foreign byte order");

    Manifest manifest;
    manifest.generation = scalar();
    catalogCheck(manifest.generation != generation,
            "db catalog: manifest header claims generation ",
            manifest.generation, " but its file name says ", generation);
    uint64_t count = scalar();
    catalogCheck(count > 256, "db catalog: implausible shard count ",
            count);
    for (uint64_t i = 0; i < count; ++i) {
        ManifestShard shard;
        uint64_t id = scalar();
        std::optional<uarch::UArch> arch = uarch::uarchFromId(id);
        catalogCheck(!arch, "db catalog: unknown uarch id ", id);
        for (const ManifestShard &seen : manifest.shards)
            catalogCheck(seen.arch == *arch,
                    "db catalog: duplicate shard for ",
                    uarch::uarchShortName(*arch));
        shard.arch = *arch;
        shard.records = scalar();
        shard.hash = scalar();
        uint64_t name_len = scalar();
        catalogCheck(name_len > 4096,
                "db catalog: implausible shard file name length");
        shard.file.resize(static_cast<size_t>(name_len));
        if (name_len)
            raw(shard.file.data(), shard.file.size());
        char pad[8];
        raw(pad, (8 - name_len % 8) % 8);
        catalogCheck(shard.file.find('/') != std::string::npos ||
                    shard.file.find("..") != std::string::npos,
                "db catalog: manifest shard file escapes the "
                "catalog directory: ",
                shard.file);
        manifest.shards.push_back(std::move(shard));
    }
    return manifest;
}

struct ManifestCandidate
{
    uint64_t generation = 0;
    std::string name;      ///< file name inside the catalog dir
};

/** All numbered manifest files in @p dir, newest generation first.
 *  The generation comes from the file name — a truncated file must
 *  still be enumerated (and then rejected by verification) rather than
 *  silently skipped. */
std::vector<ManifestCandidate>
listManifests(const std::string &dir)
{
    std::vector<ManifestCandidate> out;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(dir, ec)) {
        const std::string name = de.path().filename().string();
        constexpr std::string_view prefix = "manifest.";
        if (name.size() != prefix.size() + 10 ||
            name.compare(0, prefix.size(), prefix) != 0)
            continue;
        uint64_t gen = 0;
        bool digits = true;
        for (size_t i = prefix.size(); i < name.size(); ++i) {
            if (name[i] < '0' || name[i] > '9') {
                digits = false;
                break;
            }
            gen = gen * 10 + static_cast<uint64_t>(name[i] - '0');
        }
        if (digits)
            out.push_back({gen, name});
    }
    std::sort(out.begin(), out.end(),
              [](const ManifestCandidate &a,
                 const ManifestCandidate &b) {
                  return a.generation > b.generation;
              });
    return out;
}

/** Read and parse one candidate's manifest. */
Manifest
readManifest(const std::string &dir, const ManifestCandidate &cand)
{
    return parseManifest(
        readFileBytes(dir + "/" + cand.name, "catalog.manifest"), dir,
        cand.generation);
}

/** Load and fully verify the generation one manifest describes.
 *  Throws (CatalogError / StoreError / IoError — all FatalError) on
 *  any inconsistency; the caller decides whether that rejects one
 *  candidate or the whole store. */
std::shared_ptr<const DatabaseCatalog>
loadManifestCatalog(const std::string &dir, const Manifest &manifest,
                    bool verify_hashes)
{
    std::vector<ShardEntry> shards;
    for (const ManifestShard &ms : manifest.shards) {
        const std::string path = dir + "/" + ms.file;
        // A referenced shard that does not exist proves the
        // generation dead; other open failures may be transient.
        std::error_code ec;
        catalogCheck(!fs::exists(path, ec) && !ec, "db catalog: shard ",
                     path, " is missing");
        auto mapping = mapFile(path);
        catalogCheck(verify_hashes &&
                         fnv1a64(mapping->view()) != ms.hash,
                     "db catalog: shard ", path,
                     " does not match its manifest hash");
        ShardEntry entry;
        entry.arch = ms.arch;
        entry.hash = ms.hash;
        entry.file = ms.file;
        entry.db = loadShardMapped(std::move(mapping), ms.arch);
        catalogCheck(entry.db->numRecords() != ms.records,
                     "db catalog: shard ", path, " holds ",
                     entry.db->numRecords(),
                     " records but the manifest expects ",
                     ms.records);
        shards.push_back(std::move(entry));
    }
    return std::make_shared<DatabaseCatalog>(std::move(shards),
                                             manifest.generation);
}

/**
 * Remove what a verified load proved dead: the rejected candidates'
 * manifests (except @p transient ones, which only failed to open or
 * read), stray .tmp files from interrupted commits, and shard files
 * no surviving parseable manifest references. Only runs when the
 * caller asked for a RecoveryReport — a report-less reader never
 * deletes, so it cannot race a concurrent publisher mid-commit.
 * Removal failures are recorded, never fatal: GC is advisory.
 */
void
collectGarbage(const std::string &dir,
               const std::vector<ManifestCandidate> &candidates,
               size_t winner, const std::vector<bool> &transient,
               RecoveryReport &report)
{
    auto remove = [&](const std::string &name, const char *why) {
        try {
            if (removeFile(dir + "/" + name)) {
                report.removed_files.push_back(name);
                report.events.push_back(std::string("removed ") +
                                        why + " " + name);
            }
        } catch (const FatalError &e) {
            report.events.push_back("gc failed for " + name + ": " +
                                    e.what());
        }
    };

    for (size_t i = 0; i < winner; ++i)
        if (!transient[i])
            remove(candidates[i].name, "rejected manifest");

    // Shards referenced by any surviving manifest stay. A corrupt
    // older fallback keeps its manifest (it was never examined, so it
    // is not provably dead) but cannot protect shards; a manifest that
    // cannot be read at all might reference any shard, so then no
    // shard is removed.
    std::vector<std::string> referenced;
    bool unreadable = false;
    for (size_t i = 0; i < candidates.size(); ++i) {
        if (i < winner && !transient[i])
            continue;
        try {
            for (const ManifestShard &ms :
                 readManifest(dir, candidates[i]).shards)
                referenced.push_back(ms.file);
        } catch (const CatalogError &) {
            // Corrupt fallback: leave it for a later recovery.
        } catch (const FatalError &) {
            unreadable = true;
        }
    }
    std::sort(referenced.begin(), referenced.end());

    std::error_code ec;
    std::vector<std::string> names;
    for (const auto &de : fs::directory_iterator(dir, ec))
        names.push_back(de.path().filename().string());
    for (const std::string &name : names) {
        if (name.size() > 4 &&
            name.compare(name.size() - 4, 4, ".tmp") == 0) {
            remove(name, "stray tmp");
            continue;
        }
        if (!unreadable && name.size() > 6 &&
            name.compare(name.size() - 6, 6, ".shard") == 0 &&
            !std::binary_search(referenced.begin(), referenced.end(),
                                name))
            remove(name, "unreferenced shard");
    }
}

} // namespace

void
saveCatalogDir(const DatabaseCatalog &catalog, const std::string &dir)
{
    std::error_code ec;
    fs::create_directories(dir, ec);
    fatalIf(static_cast<bool>(ec), "db catalog: cannot create ", dir,
            ": ", ec.message());

    for (const ShardEntry &entry : catalog.shards()) {
        const std::string path = dir + "/" + entry.file;
        if (fs::exists(path)) {
            // Content-addressed: an existing file under this name
            // must already hold these bytes. Verify instead of
            // rewriting — this is what keeps an incremental save from
            // touching shards it did not re-characterize.
            uint64_t on_disk =
                fnv1a64(readFileBytes(path, "catalog.shard"));
            catalogCheck(on_disk != entry.hash, "db catalog: ", path,
                         " exists with hash ", hashHex(on_disk),
                         " but the catalog expects ",
                         hashHex(entry.hash),
                         " (corrupt store?)");
            continue;
        }
        writeFileAtomic(path, shardBytes(*entry.db),
                        "catalog.shard");
    }

    // COMMIT POINT of the whole save: the rename inside this
    // writeFileAtomic publishes the numbered manifest. Every shard
    // above is already durable (written + fsynced, or verified
    // pre-existing), so a reader that sees this manifest can verify
    // every byte it references; a crash anywhere earlier leaves the
    // previous generation's manifest as the newest one.
    writeFileAtomic(dir + "/" + manifestFileName(catalog.generation()),
                    manifestBytes(catalog), "catalog.manifest");

    // Retention: keep the newest few numbered manifests as recovery
    // fallbacks; prune older ones. Shard files are never pruned here
    // (a serving process may still map them) — load-time GC with a
    // RecoveryReport handles those.
    std::vector<ManifestCandidate> manifests = listManifests(dir);
    for (size_t i = kManifestRetention; i < manifests.size(); ++i) {
        try {
            removeFile(dir + "/" + manifests[i].name);
        } catch (const FatalError &) {
            // Best-effort; a stale fallback manifest is harmless.
        }
    }
}

std::shared_ptr<const DatabaseCatalog>
loadCatalogDir(const std::string &dir, LoadMode,
               bool verify_hashes, RecoveryReport *report)
{
    std::error_code ec;
    catalogCheck(!fs::is_directory(dir, ec), "db catalog: ", dir,
                 fs::exists(dir, ec)
                     ? " is a file, not a catalog directory (a "
                       "single-file snapshot is no longer read; "
                       "re-ingest its results XML with `uopsq ingest`)"
                     : " does not exist");
    if (report)
        *report = RecoveryReport{};
    RecoveryReport scratch;
    RecoveryReport &rep = report ? *report : scratch;

    std::vector<ManifestCandidate> candidates = listManifests(dir);
    catalogCheck(candidates.empty() && fs::exists(dir + "/manifest", ec),
                 "db catalog: ", dir,
                 " holds only an unnumbered `manifest`, a store format "
                 "that is no longer read; re-ingest its results XML "
                 "with `uopsq ingest`");
    catalogCheck(candidates.empty(), "db catalog: no manifest in ",
                 dir);

    std::vector<bool> transient(candidates.size(), false);
    for (size_t i = 0; i < candidates.size(); ++i) {
        const ManifestCandidate &cand = candidates[i];
        std::shared_ptr<const DatabaseCatalog> catalog;
        try {
            catalog = loadManifestCatalog(
                dir, readManifest(dir, cand), verify_hashes);
        } catch (const FatalError &e) {
            // This candidate is bad; an older generation may still
            // verify. InjectedCrash is deliberately not caught —
            // a simulated kill must not look like recovery. Only
            // CatalogError / StoreError prove the candidate dead.
            transient[i] = !dynamic_cast<const CatalogError *>(&e) &&
                           !dynamic_cast<const StoreError *>(&e);
            rep.rejected_generations.push_back(cand.generation);
            rep.events.push_back("rejected " + cand.name + ": " +
                                 e.what());
            obs::Registry::global()
                .counter("uops_catalog_manifests_rejected_total",
                         "Manifest candidates rejected during catalog "
                         "load (parse or verification failure)")
                .inc();
            obs::defaultLogger()
                .event(obs::LogLevel::Warn, "catalog",
                       "manifest_rejected")
                .str("dir", dir)
                .str("manifest", cand.name)
                .num("generation", cand.generation)
                .str("error", e.what());
            continue;
        }
        rep.generation = catalog->generation();
        rep.recovered = !rep.rejected_generations.empty();
        if (report)
            collectGarbage(dir, candidates, i, transient, rep);
        // Named distinctly from the service-registry
        // uops_catalog_recoveries_total (reload reports observed by
        // one server): /metrics renders both registries, and a
        // shared family name would duplicate series in the scrape.
        if (rep.recovered)
            obs::Registry::global()
                .counter("uops_catalog_loads_recovered_total",
                         "Catalog loads that fell back past at least "
                         "one rejected generation")
                .inc();
        if (!rep.removed_files.empty())
            obs::Registry::global()
                .counter("uops_catalog_gc_removed_files_total",
                         "Dead store files removed by load-time "
                         "garbage collection")
                .inc(rep.removed_files.size());
        obs::Logger &logger = obs::defaultLogger();
        obs::LogLevel level =
            rep.recovered ? obs::LogLevel::Warn : obs::LogLevel::Info;
        if (logger.enabled(level))
            logger.event(level, "catalog", "loaded")
                .str("dir", dir)
                .num("generation", rep.generation)
                .boolean("recovered", rep.recovered)
                .num("rejected_generations",
                     static_cast<uint64_t>(
                         rep.rejected_generations.size()))
                .num("gc_removed_files",
                     static_cast<uint64_t>(rep.removed_files.size()))
                .num("shards",
                     static_cast<uint64_t>(catalog->shards().size()));
        return catalog;
    }

    std::ostringstream os;
    os << "db catalog: no loadable generation in " << dir;
    for (const std::string &event : rep.events)
        os << "; " << event;
    throw CatalogError(os.str());
}

std::optional<uint64_t>
readCatalogGeneration(const std::string &dir)
{
    std::vector<ManifestCandidate> candidates = listManifests(dir);
    if (candidates.empty())
        return std::nullopt;
    return candidates.front().generation;
}

std::shared_ptr<const DatabaseCatalog>
publishShards(const std::string &dir, std::vector<ShardEntry> shards)
{
    std::shared_ptr<const DatabaseCatalog> catalog =
        readCatalogGeneration(dir)
            ? DatabaseCatalog::splice(*loadCatalogDir(dir),
                                      std::move(shards))
            : std::make_shared<DatabaseCatalog>(std::move(shards), 1);
    saveCatalogDir(*catalog, dir);
    return catalog;
}

// ---------------------------------------------------------------------
// Sweep integration
// ---------------------------------------------------------------------

void
CatalogSweepIngestor::onVariant(uarch::UArch arch,
                                const core::VariantOutcome &outcome)
{
    panicIf(finished_, "CatalogSweepIngestor: onVariant after finish");
    if (!outcome.ok)
        return;   // failures are reported by the sweep, not stored
    auto it = shards_.find(arch);
    if (it == shards_.end())
        it = shards_
                 .emplace(arch,
                          std::make_unique<InstructionDatabase>(arch))
                 .first;
    it->second->appendCharacterization(outcome.result);
    ++ingested_;
}

void
CatalogSweepIngestor::declareArch(uarch::UArch arch)
{
    panicIf(finished_, "CatalogSweepIngestor: declareArch after finish");
    if (shards_.find(arch) == shards_.end())
        shards_.emplace(arch,
                        std::make_unique<InstructionDatabase>(arch));
}

void
CatalogSweepIngestor::finishOnce()
{
    if (finished_)
        return;
    finished_ = true;
    for (auto &[arch, db] : shards_)
        db->rebuildIndexes();
}

std::vector<ShardEntry>
CatalogSweepIngestor::takeShards()
{
    panicIf(!finished_,
            "CatalogSweepIngestor: takeShards before finish");
    return toEntries(shards_);
}

std::shared_ptr<const DatabaseCatalog>
runCatalogSweep(const isa::InstrDb &instrs,
                const std::vector<uarch::UArch> &arches,
                core::BatchOptions options,
                const DatabaseCatalog *base,
                core::CharacterizationReport *report_out)
{
    fatalIf(options.sink != nullptr,
            "runCatalogSweep: options.sink is owned by the catalog "
            "ingestor");
    CatalogSweepIngestor ingestor;
    for (uarch::UArch arch : arches)
        ingestor.declareArch(arch);
    options.sink = &ingestor;
    core::CharacterizationReport report =
        core::runBatchSweep(instrs, arches, options);
    if (report_out)
        *report_out = std::move(report);
    std::vector<ShardEntry> fresh = ingestor.takeShards();
    if (base)
        return DatabaseCatalog::splice(*base, std::move(fresh));
    return std::make_shared<DatabaseCatalog>(std::move(fresh), 1);
}

} // namespace uops::db
