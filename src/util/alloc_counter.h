/**
 * @file
 * Thread-local allocation micro-counter.
 *
 * The hot-path work (PlanScratch, the indexed heaps, BucketedKv)
 * claims "zero allocation in steady state"; this counter turns that
 * claim into an assertable number. Counting happens in replacement
 * global operator new/delete, which a binary opts into by expanding
 * PHOENIX_INSTALL_ALLOC_COUNTER() once at namespace scope in its main
 * translation unit (bench_micro and test_hotpath do). Binaries that
 * do not install the hook pay nothing and read allocCount() == 0 with
 * allocCounterActive() == false — callers must gate their assertions
 * on allocCounterActive().
 *
 * Under AddressSanitizer/ThreadSanitizer the macro expands to nothing
 * (the sanitizer owns the allocator interposition); the counting tests
 * skip themselves via allocCounterActive().
 */

#ifndef PHOENIX_UTIL_ALLOC_COUNTER_H
#define PHOENIX_UTIL_ALLOC_COUNTER_H

#include <cstdint>
#include <cstdlib>
#include <new>

namespace phoenix::util {

/** operator-new calls made by this thread (0 unless hooked). */
uint64_t allocCount();

/** True when the counting operator new is linked into this binary. */
bool allocCounterActive();

namespace detail {
void bumpAllocCount();
void setAllocCounterActive();

/**
 * std::malloc / std::free behind out-of-line calls. The replacement
 * operators below use these instead of calling the C allocator
 * inline: once a replacement operator delete is inlined into a caller,
 * GCC sees free() applied to operator-new memory and reports
 * -Wmismatched-new-delete, although the pairing is correct.
 */
void *rawAlloc(std::size_t size) noexcept;
void rawFree(void *p) noexcept;

/** Installs the flag from a namespace-scope initializer. */
struct AllocCounterInstaller
{
    AllocCounterInstaller() { setAllocCounterActive(); }
};
} // namespace detail

/**
 * Allocations performed by this thread while running @p fn. Returns 0
 * when the hook is not installed — check allocCounterActive() first.
 */
template <typename Fn>
uint64_t
allocationsDuring(Fn &&fn)
{
    const uint64_t before = allocCount();
    fn();
    return allocCount() - before;
}

} // namespace phoenix::util

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PHOENIX_INSTALL_ALLOC_COUNTER()                                  \
    static_assert(true, "alloc counter disabled under sanitizers")
#else
#define PHOENIX_INSTALL_ALLOC_COUNTER()                                  \
    static phoenix::util::detail::AllocCounterInstaller                  \
        phoenixAllocCounterInstaller_;                                   \
    void *operator new(std::size_t size)                                 \
    {                                                                    \
        phoenix::util::detail::bumpAllocCount();                         \
        if (void *p = phoenix::util::detail::rawAlloc(size))             \
            return p;                                                    \
        throw std::bad_alloc();                                          \
    }                                                                    \
    void *operator new[](std::size_t size)                               \
    {                                                                    \
        return ::operator new(size);                                     \
    }                                                                    \
    void *operator new(std::size_t size,                                 \
                       const std::nothrow_t &) noexcept                  \
    {                                                                    \
        phoenix::util::detail::bumpAllocCount();                         \
        return phoenix::util::detail::rawAlloc(size);                    \
    }                                                                    \
    void *operator new[](std::size_t size,                               \
                         const std::nothrow_t &nt) noexcept              \
    {                                                                    \
        return ::operator new(size, nt);                                 \
    }                                                                    \
    void operator delete(void *p) noexcept                               \
    {                                                                    \
        phoenix::util::detail::rawFree(p);                               \
    }                                                                    \
    void operator delete[](void *p) noexcept                             \
    {                                                                    \
        phoenix::util::detail::rawFree(p);                               \
    }                                                                    \
    void operator delete(void *p, std::size_t) noexcept                  \
    {                                                                    \
        phoenix::util::detail::rawFree(p);                               \
    }                                                                    \
    void operator delete[](void *p, std::size_t) noexcept                \
    {                                                                    \
        phoenix::util::detail::rawFree(p);                               \
    }                                                                    \
    void operator delete(void *p, const std::nothrow_t &) noexcept       \
    {                                                                    \
        phoenix::util::detail::rawFree(p);                               \
    }                                                                    \
    void operator delete[](void *p, const std::nothrow_t &) noexcept     \
    {                                                                    \
        phoenix::util::detail::rawFree(p);                               \
    }
#endif

#endif // PHOENIX_UTIL_ALLOC_COUNTER_H
