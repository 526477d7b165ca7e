/**
 * @file
 * Order-sensitive FNV-1a accumulator over 64-bit words, the one hash
 * behind every fingerprint the libraries compute (application sets,
 * cluster states, the kube ready set, objective cache keys). Each
 * mix() folds a whole word in, so two sequences that differ in any
 * single word always hash apart.
 */

#ifndef PHOENIX_UTIL_FNV_H
#define PHOENIX_UTIL_FNV_H

#include <cstdint>
#include <cstring>

namespace phoenix::util {

struct Fnv1a
{
    uint64_t hash = 1469598103934665603ull; //!< FNV-1a offset basis

    void
    mix(uint64_t v)
    {
        hash ^= v;
        hash *= 1099511628211ull; // FNV-1a prime
    }

    /** Mix a double by its bit pattern (bitwise, not fp, equality). */
    void
    mixDouble(double v)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        mix(bits);
    }
};

} // namespace phoenix::util

#endif // PHOENIX_UTIL_FNV_H
