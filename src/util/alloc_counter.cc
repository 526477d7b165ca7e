#include "alloc_counter.h"

namespace phoenix::util {

namespace {
thread_local uint64_t allocCount_ = 0;
bool active_ = false;
} // namespace

uint64_t
allocCount()
{
    return allocCount_;
}

bool
allocCounterActive()
{
    return active_;
}

namespace detail {

void
bumpAllocCount()
{
    ++allocCount_;
}

void
setAllocCounterActive()
{
    active_ = true;
}

void *
rawAlloc(std::size_t size) noexcept
{
    return std::malloc(size ? size : 1);
}

void
rawFree(void *p) noexcept
{
    std::free(p);
}

} // namespace detail

} // namespace phoenix::util
