/**
 * @file
 * Owned-or-borrowed columnar storage.
 *
 * The instruction database stores every field as a flat array of
 * trivially copyable elements. While a shard is being built those
 * arrays grow; after a shard load they are views into the mapped
 * container that the database does not own. Column<T> unifies the
 * two: it is a growable vector in owned mode and a (pointer, size)
 * view in borrowed mode. A loaded shard is immutable, so mutating a
 * bound column is a programming error (a panic), never a silent copy.
 *
 * The holder of borrowed columns is responsible for keeping the
 * backing buffer alive (InstructionDatabase retains a shared_ptr to
 * it); a Column never frees borrowed memory.
 */

#ifndef UOPS_SUPPORT_COLUMN_H
#define UOPS_SUPPORT_COLUMN_H

#include <cstddef>
#include <string_view>
#include <type_traits>
#include <vector>

#include "support/status.h"

namespace uops {

template <typename T>
class Column
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "columns are raw-dumped by snapshots");

  public:
    Column() = default;

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const T *data() const { return data_; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }

    const T &operator[](size_t i) const { return data_[i]; }

    void
    push_back(const T &value)
    {
        checkOwned();
        owned_.push_back(value);
        refresh();
    }

    void
    append(const T *ptr, size_t n)
    {
        checkOwned();
        owned_.insert(owned_.end(), ptr, ptr + n);
        refresh();
    }

    /** Become a view of @p n elements at @p ptr (caller keeps the
     *  buffer alive; shard load). */
    void
    bind(const T *ptr, size_t n)
    {
        panicIf(!owned_.empty(), "column: bind over owned elements");
        data_ = ptr;
        size_ = n;
        borrowed_ = true;
    }

    Column(const Column &) = delete;
    Column &operator=(const Column &) = delete;

  private:
    void
    checkOwned() const
    {
        panicIf(borrowed_, "column: mutation of a bound column");
    }

    void
    refresh()
    {
        data_ = owned_.data();
        size_ = owned_.size();
    }

    const T *data_ = nullptr;
    size_t size_ = 0;
    bool borrowed_ = false;
    std::vector<T> owned_;
};

/** Column<char> with string-pool ergonomics. */
class BytePool
{
  public:
    size_t size() const { return bytes_.size(); }
    const char *data() const { return bytes_.data(); }
    std::string_view view() const { return {data(), size()}; }

    std::string_view
    substr(size_t offset, size_t length) const
    {
        return view().substr(offset, length);
    }

    void
    append(std::string_view s)
    {
        bytes_.append(s.data(), s.size());
    }

    void bind(const char *ptr, size_t n) { bytes_.bind(ptr, n); }

  private:
    Column<char> bytes_;
};

} // namespace uops

#endif // UOPS_SUPPORT_COLUMN_H
