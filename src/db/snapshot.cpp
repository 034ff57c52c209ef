#include "snapshot.h"

#include <cstring>
#include <optional>
#include <sstream>

#include "support/status.h"

namespace uops::db {

namespace {

constexpr char kMagic[8] = {'U', 'O', 'P', 'S', 'D', 'B', '\x1a', '\n'};
constexpr uint32_t kEndianTag = 0x0A0B0C0Du;

/** Load-path failures throw StoreError (a FatalError subtype) so the
 *  catalog recovery path can reject one file without dying. */
template <typename... Parts>
[[noreturn]] void
storeFail(const Parts &...parts)
{
    std::ostringstream os;
    detail::formatInto(os, parts...);
    throw StoreError(os.str());
}

template <typename... Parts>
void
storeCheck(bool condition, const Parts &...parts)
{
    if (condition)
        storeFail(parts...);
}

size_t
paddingFor(size_t bytes)
{
    return (8 - bytes % 8) % 8;
}

class Writer
{
  public:
    explicit Writer(std::ostream &os) : os_(os) {}

    void
    raw(const void *data, size_t bytes)
    {
        os_.write(static_cast<const char *>(data),
                  static_cast<std::streamsize>(bytes));
    }

    template <typename T>
    void
    scalar(T value)
    {
        raw(&value, sizeof value);
    }

    void
    shardHeader(uint64_t records, uarch::UArch arch)
    {
        raw(kMagic, sizeof kMagic);
        scalar(kShardVersion);
        scalar(kEndianTag);
        scalar(records);
        scalar<uint64_t>(static_cast<uint8_t>(arch));
    }

    template <typename T>
    void
    array(const Column<T> &xs)
    {
        scalar<uint64_t>(xs.size());
        size_t bytes = xs.size() * sizeof(T);
        if (bytes)
            raw(xs.data(), bytes);
        pad(bytes);
    }

    void
    array(const BytePool &s)
    {
        scalar<uint64_t>(s.size());
        if (s.size())
            raw(s.data(), s.size());
        pad(s.size());
    }

  private:
    void
    pad(size_t bytes)
    {
        static const char zeros[8] = {};
        raw(zeros, paddingFor(bytes));
    }

    std::ostream &os_;
};

/**
 * The one container reader. array() binds columns straight into the
 * buffer instead of copying. Alignment holds by format: the header is
 * a multiple of 8 bytes and every array is padded to 8, so each
 * element pointer is 8-byte aligned within the page-aligned mapping.
 */
class Reader
{
  public:
    Reader(const char *data, size_t size)
        : p_(data), left_(size)
    {
    }

    void
    raw(void *out, size_t bytes)
    {
        storeCheck(bytes > left_, "db snapshot: truncated file");
        std::memcpy(out, p_, bytes);
        advance(bytes);
    }

    template <typename T>
    T
    scalar()
    {
        T value;
        raw(&value, sizeof value);
        return value;
    }

    template <typename T>
    void
    array(Column<T> &xs)
    {
        uint64_t n = scalar<uint64_t>();
        size_t bytes = static_cast<size_t>(n) * sizeof(T);
        storeCheck(n > (1ull << 32) || bytes > left_,
                "db snapshot: array size ", n,
                " exceeds remaining file bytes");
        xs.bind(reinterpret_cast<const T *>(p_),
                static_cast<size_t>(n));
        advance(bytes);
        skipPad(bytes);
    }

    void
    array(BytePool &s)
    {
        uint64_t n = scalar<uint64_t>();
        storeCheck(n > (1ull << 32) || n > left_,
                "db snapshot: array size ", n,
                " exceeds remaining file bytes");
        s.bind(p_, static_cast<size_t>(n));
        advance(static_cast<size_t>(n));
        skipPad(static_cast<size_t>(n));
    }

  private:
    void
    advance(size_t bytes)
    {
        p_ += bytes;
        left_ -= bytes;
    }

    void
    skipPad(size_t bytes)
    {
        size_t pad = paddingFor(bytes);
        storeCheck(pad > left_, "db snapshot: truncated file");
        advance(pad);
    }

    const char *p_;
    size_t left_;
};

} // namespace

/** Friend of InstructionDatabase: walks the columns in fixed order. */
struct SnapshotCodec
{
    template <typename Archive, typename Db>
    static void
    columns(Archive &ar, Db &db)
    {
        ar.array(db.pool_);
        ar.array(db.str_off_);
        ar.array(db.str_len_);
        ar.array(db.arch_);
        ar.array(db.name_);
        ar.array(db.mnemonic_);
        ar.array(db.ext_);
        ar.array(db.port_union_);
        ar.array(db.uop_count_);
        ar.array(db.max_latency_);
        ar.array(db.flags_);
        ar.array(db.tp_measured_);
        ar.array(db.tp_breakers_);
        ar.array(db.tp_slow_);
        ar.array(db.tp_ports_);
        ar.array(db.same_reg_);
        ar.array(db.store_rt_);
        ar.array(db.ports_off_);
        ar.array(db.lat_off_);
        ar.array(db.ports_n_);
        ar.array(db.lat_n_);
        ar.array(db.pu_mask_);
        ar.array(db.pu_count_);
        ar.array(db.lat_src_);
        ar.array(db.lat_dst_);
        ar.array(db.lat_flags_);
        ar.array(db.lat_cycles_);
        ar.array(db.lat_slow_);
    }

    static void
    validate(const InstructionDatabase &db, uint64_t expected_records)
    {
        const size_t n = db.arch_.size();
        storeCheck(n != expected_records,
                "db snapshot: record count mismatch");
        storeCheck(db.name_.size() != n || db.mnemonic_.size() != n ||
                    db.ext_.size() != n ||
                    db.port_union_.size() != n ||
                    db.uop_count_.size() != n ||
                    db.max_latency_.size() != n ||
                    db.flags_.size() != n ||
                    db.tp_measured_.size() != n ||
                    db.tp_breakers_.size() != n ||
                    db.tp_slow_.size() != n ||
                    db.tp_ports_.size() != n ||
                    db.same_reg_.size() != n ||
                    db.store_rt_.size() != n ||
                    db.ports_off_.size() != n ||
                    db.lat_off_.size() != n ||
                    db.ports_n_.size() != n || db.lat_n_.size() != n,
                "db snapshot: column length mismatch");
        storeCheck(db.str_off_.size() != db.str_len_.size(),
                "db snapshot: string table mismatch");
        for (size_t i = 0; i < db.str_off_.size(); ++i)
            storeCheck(static_cast<size_t>(db.str_off_[i]) +
                            db.str_len_[i] >
                        db.pool_.size(),
                    "db snapshot: string span out of bounds");
        storeCheck(db.pu_mask_.size() != db.pu_count_.size(),
                "db snapshot: port pool mismatch");
        storeCheck(db.lat_src_.size() != db.lat_dst_.size() ||
                    db.lat_src_.size() != db.lat_flags_.size() ||
                    db.lat_src_.size() != db.lat_cycles_.size() ||
                    db.lat_src_.size() != db.lat_slow_.size(),
                "db snapshot: latency pool mismatch");
        auto check_string_ids = [&](const Column<uint32_t> &ids) {
            for (uint32_t id : ids)
                storeCheck(id >= db.str_off_.size(),
                        "db snapshot: string id out of range");
        };
        check_string_ids(db.name_);
        check_string_ids(db.mnemonic_);
        check_string_ids(db.ext_);
        for (size_t row = 0; row < n; ++row) {
            storeCheck(static_cast<size_t>(db.ports_off_[row]) +
                            db.ports_n_[row] >
                        db.pu_mask_.size(),
                    "db snapshot: port span out of bounds");
            storeCheck(static_cast<size_t>(db.lat_off_[row]) +
                            db.lat_n_[row] >
                        db.lat_src_.size(),
                    "db snapshot: latency span out of bounds");
        }
    }

    /** Every record must be of the shard's uarch, @p shard, and every
     *  port set it names non-empty and within that uarch's ports. */
    static void
    validateArchs(const InstructionDatabase &db, uarch::UArch shard)
    {
        const uarch::UArchInfo &info = uarch::uarchInfo(shard);
        for (size_t row = 0; row < db.arch_.size(); ++row) {
            uint8_t a = db.arch_[row];
            storeCheck(a != static_cast<uint8_t>(shard),
                    "db snapshot: record uarch id ", static_cast<int>(a),
                    " disagrees with the shard header");
            for (size_t i = db.ports_off_[row],
                        end = i + db.ports_n_[row];
                 i < end; ++i) {
                uarch::PortMask mask = db.pu_mask_[i];
                if (!uarch::portsWithin(mask, info.num_ports))
                    storeFail("db snapshot: record ", row, " has port set ",
                              uarch::portMaskName(mask), ", outside ",
                              info.short_name, "'s ", info.num_ports,
                              " ports");
            }
        }
    }

    static void
    rebuild(InstructionDatabase &db)
    {
        // Re-intern so string predicates resolve to loaded ids.
        db.intern_map_.clear();
        for (uint32_t id = 0;
             id < static_cast<uint32_t>(db.str_off_.size()); ++id)
            db.intern_map_.emplace(std::string(db.str(id)), id);
        // A duplicate record is a bad container, not a bad process:
        // report it like every other check here.
        try {
            db.rebuildIndexes();
        } catch (const FatalError &e) {
            storeFail("db snapshot: ", e.what());
        }
    }

    static void
    setBacking(InstructionDatabase &db,
               std::shared_ptr<const void> backing)
    {
        db.backing_ = std::move(backing);
    }

};

namespace {

struct Header
{
    uint64_t records = 0;
    uarch::UArch arch = uarch::UArch::Nehalem;
};

Header
readHeader(Reader &ar)
{
    char magic[8];
    ar.raw(magic, sizeof magic);
    storeCheck(std::memcmp(magic, kMagic, sizeof magic) != 0,
            "db snapshot: bad magic");
    uint32_t version = ar.scalar<uint32_t>();
    storeCheck(version == 1 || version == 2, "db snapshot: version ",
            version,
            version == 1 ? " (floating-point cycle columns)"
                         : " (multi-uarch monolith)",
            " is no longer read; re-ingest the results XML "
            "(`uopsq ingest`) to produce version-", kShardVersion,
            " shards");
    storeCheck(version != kShardVersion,
            "db snapshot: unsupported version ", version);
    uint32_t endian = ar.scalar<uint32_t>();
    storeCheck(endian != kEndianTag, "db snapshot: foreign byte order");
    Header header;
    header.records = ar.scalar<uint64_t>();
    uint64_t id = ar.scalar<uint64_t>();
    std::optional<uarch::UArch> arch = uarch::uarchFromId(id);
    storeCheck(!arch, "db shard: unknown uarch id ", id);
    header.arch = *arch;
    return header;
}

} // namespace

void
saveShard(const InstructionDatabase &db, std::ostream &os)
{
    Writer writer(os);
    writer.shardHeader(db.numRecords(), db.arch());
    SnapshotCodec::columns(writer, db);
    fatalIf(!os, "db shard: write failed");
}

std::string
shardBytes(const InstructionDatabase &db)
{
    std::ostringstream os(std::ios::binary);
    saveShard(db, os);
    return os.str();
}

std::unique_ptr<InstructionDatabase>
loadShardMapped(std::shared_ptr<const MappedFile> mapping,
                uarch::UArch expected)
{
    fatalIf(mapping == nullptr, "db shard: null mapping");
    Reader ar(mapping->data(), mapping->size());
    Header header = readHeader(ar);
    storeCheck(header.arch != expected, "db shard: header uarch ",
            uarch::uarchShortName(header.arch),
            " does not match expected ",
            uarch::uarchShortName(expected));

    auto db = std::make_unique<InstructionDatabase>(header.arch);
    SnapshotCodec::columns(ar, *db);
    SnapshotCodec::validate(*db, header.records);
    SnapshotCodec::validateArchs(*db, header.arch);
    SnapshotCodec::rebuild(*db);
    SnapshotCodec::setBacking(*db, std::move(mapping));
    return db;
}

} // namespace uops::db
