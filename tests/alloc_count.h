/**
 * @file
 * A counting replacement of the global operator new for tests that pin
 * how often a path allocates. It replaces the allocator of the whole
 * binary, so include it in exactly one source file of a test binary.
 * The nothrow form (std::stable_sort's temporary buffer) is replaced
 * too: the replaced operator delete frees whatever it gets, so every
 * operator new it pairs with must come from malloc, or AddressSanitizer
 * reports an alloc-dealloc mismatch.
 */

#ifndef UOPS_TESTS_ALLOC_COUNT_H
#define UOPS_TESTS_ALLOC_COUNT_H

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

// Counts the heap allocations this binary makes while counting is on.
namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<size_t> g_allocations{0};
} // namespace

void *
operator new(std::size_t size)
{
    if (g_count_allocations.load(std::memory_order_relaxed))
        g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    if (g_count_allocations.load(std::memory_order_relaxed))
        g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

#endif // UOPS_TESTS_ALLOC_COUNT_H
