#include "harness/alloc_count.hh"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace
{

std::atomic<bool> counting{false};
std::atomic<int64_t> liveBytes{0};

void *
allocate(std::size_t n)
{
    void *p = std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    if (counting.load(std::memory_order_relaxed))
        liveBytes.fetch_add(int64_t(malloc_usable_size(p)),
                            std::memory_order_relaxed);
    return p;
}

void
release(void *p) noexcept
{
    if (!p)
        return;
    if (counting.load(std::memory_order_relaxed))
        liveBytes.fetch_sub(int64_t(malloc_usable_size(p)),
                            std::memory_order_relaxed);
    std::free(p);
}

} // namespace

void *operator new(std::size_t n) { return allocate(n); }
void *operator new[](std::size_t n) { return allocate(n); }
void operator delete(void *p) noexcept { release(p); }
void operator delete[](void *p) noexcept { release(p); }
void operator delete(void *p, std::size_t) noexcept { release(p); }
void operator delete[](void *p, std::size_t) noexcept { release(p); }

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return allocate(n);
    } catch (...) {
        return nullptr;
    }
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return allocate(n);
    } catch (...) {
        return nullptr;
    }
}

namespace hostbench
{

void
allocCountStart()
{
    liveBytes.store(0, std::memory_order_relaxed);
    counting.store(true, std::memory_order_relaxed);
}

int64_t
allocCountStop()
{
    counting.store(false, std::memory_order_relaxed);
    return liveBytes.load(std::memory_order_relaxed);
}

} // namespace hostbench
