/**
 * @file
 * Vector storage that large blocks take straight from the kernel.
 *
 * A block freed back to the malloc heap stays resident, as a hole that
 * later allocations fill or skip by their size, so what a process holds
 * after a large transient depends on what it allocates next. Freeing a
 * block malloc had mapped is no better: glibc then raises its dynamic
 * mmap threshold, and later blocks of that size go to the heap instead.
 * PageAllocator maps each block of kDirectMapBytes or more with mmap
 * and unmaps it on free, so a transient copy (the parsed trees of a
 * model load) is returned whole and leaves the heap as it found it.
 * Smaller blocks use operator new.
 */

#pragma once

#include <cstddef>
#include <limits>
#include <new>

#include <sys/mman.h>

namespace gpupm {

/** Blocks at least this large are mapped pages, never heap chunks. */
inline constexpr std::size_t kDirectMapBytes = 64 * 1024;

template <typename T>
struct PageAllocator
{
    using value_type = T;

    PageAllocator() noexcept = default;
    template <typename U>
    PageAllocator(const PageAllocator<U> &) noexcept
    {
    }

    T *allocate(std::size_t n)
    {
        if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
            throw std::bad_alloc();
        const std::size_t bytes = n * sizeof(T);
        if (bytes < kDirectMapBytes)
            return static_cast<T *>(::operator new(bytes));
        void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        return static_cast<T *>(p);
    }

    void deallocate(T *p, std::size_t n) noexcept
    {
        const std::size_t bytes = n * sizeof(T);
        if (bytes < kDirectMapBytes)
            ::operator delete(p);
        else
            ::munmap(p, bytes);
    }

    template <typename U>
    bool operator==(const PageAllocator<U> &) const noexcept
    {
        return true;
    }
};

} // namespace gpupm
