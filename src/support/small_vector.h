/**
 * @file
 * A minimal small-size-optimized vector for trivially copyable types.
 *
 * The simulator allocates one UopDyn per in-flight µop, and the
 * dominant cost of the old representation was the two heap-backed
 * std::vectors holding its source/destination value ids — almost
 * always 0..4 entries. SmallVector keeps up to N elements inline and
 * only spills to the heap for the rare µop with more (wide flag
 * groups plus partial-register merges).
 *
 * Deliberately restricted to trivially copyable element types: no
 * element destructors or placement-new bookkeeping, so clear() and the
 * move operations are branch-light. This is a support container for
 * hot simulator state, not a general std::vector replacement.
 */

#ifndef UOPS_SUPPORT_SMALL_VECTOR_H
#define UOPS_SUPPORT_SMALL_VECTOR_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace uops {

template <typename T, size_t N>
class SmallVector
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "SmallVector holds trivially copyable types only");
    static_assert(N > 0, "inline capacity must be non-zero");

  public:
    SmallVector() = default;

    SmallVector(const SmallVector &other) { assignFrom(other); }

    SmallVector(SmallVector &&other) noexcept { stealFrom(other); }

    SmallVector &
    operator=(const SmallVector &other)
    {
        if (this != &other) {
            // Allocate any new heap buffer *before* releasing the old
            // one, so a throwing allocation leaves *this untouched
            // (releasing first would leave data_ dangling for the
            // destructor).
            if (other.size_ > N) {
                T *heap = new T[other.capacity_];
                std::memcpy(heap, other.data_,
                            other.size_ * sizeof(T));
                releaseHeap();
                data_ = heap;
                capacity_ = other.capacity_;
            } else {
                releaseHeap();
                data_ = inline_;
                capacity_ = N;
                std::memcpy(inline_, other.data_,
                            other.size_ * sizeof(T));
            }
            size_ = other.size_;
        }
        return *this;
    }

    SmallVector &
    operator=(SmallVector &&other) noexcept
    {
        if (this != &other) {
            releaseHeap();
            stealFrom(other);
        }
        return *this;
    }

    ~SmallVector() { releaseHeap(); }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }
    T *begin() { return data_; }
    T *end() { return data_ + size_; }

    T &operator[](size_t i) { return data_[i]; }
    const T &operator[](size_t i) const { return data_[i]; }

    void
    push_back(const T &value)
    {
        if (size_ == capacity_) {
            // Copy first: @p value may alias an element of this
            // vector, and grow() frees the old buffer.
            T copy = value;
            grow();
            data_[size_++] = copy;
            return;
        }
        data_[size_++] = value;
    }

    void
    clear()
    {
        size_ = 0;
    }

  private:
    void
    grow()
    {
        uint32_t new_cap = capacity_ * 2;
        T *heap = new T[new_cap];
        std::memcpy(heap, data_, size_ * sizeof(T));
        releaseHeap();
        data_ = heap;
        capacity_ = new_cap;
    }

    void
    releaseHeap()
    {
        if (data_ != inline_)
            delete[] data_;
    }

    void
    assignFrom(const SmallVector &other)
    {
        size_ = other.size_;
        if (size_ <= N) {
            data_ = inline_;
            capacity_ = N;
        } else {
            data_ = new T[other.capacity_];
            capacity_ = other.capacity_;
        }
        std::memcpy(data_, other.data_, size_ * sizeof(T));
    }

    void
    stealFrom(SmallVector &other) noexcept
    {
        size_ = other.size_;
        if (other.data_ == other.inline_) {
            data_ = inline_;
            capacity_ = N;
            std::memcpy(inline_, other.inline_, size_ * sizeof(T));
        } else {
            data_ = other.data_;
            capacity_ = other.capacity_;
            other.data_ = other.inline_;
            other.capacity_ = N;
        }
        other.size_ = 0;
    }

    T inline_[N];
    T *data_ = inline_;
    // 32-bit counts keep the header to one pointer plus eight bytes,
    // so an odd N of 4-byte elements fills the padding before data_.
    uint32_t size_ = 0;
    uint32_t capacity_ = N;
};

} // namespace uops

#endif // UOPS_SUPPORT_SMALL_VECTOR_H
