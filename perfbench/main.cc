/**
 * @file
 * perfbench: runs one benchmark workload and prints its metrics.
 *
 *   perfbench --workload adapt-100k|loop-10k|serve-cloudlab
 *             --seed N --seconds S --trace 0|1
 *             [--size full|tiny] [--corrupt] [--trace-file PATH]
 *
 * Untraced runs (--trace 0) report the end-to-end metrics; traced runs
 * (--trace 1) run the same inputs untraced and then traced, check the
 * two passes decided identically, and report the per-layer metrics.
 * The last line of stdout is the JSON result; the exit code is non-zero
 * when any correctness check failed.
 */

#include <unistd.h>

#include <cstdlib>
#include <iostream>
#include <string>

#include "common.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace {

int
usage(const char *why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload adapt-100k|loop-10k|"
                 "serve-cloudlab --seed N --seconds S --trace 0|1 "
                 "[--size full|tiny] [--corrupt] [--trace-file PATH]\n";
    return 2;
}

bool
parseNumber(const std::string &text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return !text.empty() && end && *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options options;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--corrupt") {
            options.corrupt = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        double number = 0.0;
        if (flag == "--workload") {
            options.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            if (!parseNumber(value, number) || number < 0)
                return usage("bad --seed");
            options.seed = static_cast<uint64_t>(number);
        } else if (flag == "--seconds") {
            if (!parseNumber(value, number) || number <= 0 || number > 600)
                return usage("bad --seconds");
            options.seconds = number;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return usage("bad --trace");
            options.trace = value == "1";
        } else if (flag == "--size") {
            if (value != "full" && value != "tiny")
                return usage("bad --size");
            options.size = value == "tiny" ? perfbench::Size::Tiny
                                           : perfbench::Size::Full;
        } else if (flag == "--trace-file") {
            options.traceFile = value;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (!haveWorkload)
        return usage("--workload is required");

    // Timed runs keep the program's own obs metrics and tracing off.
    phoenix::obs::setMetricsEnabled(false);
    phoenix::obs::setTraceEnabled(false);

#ifdef NDEBUG
    const char *build = "release (NDEBUG)";
#else
    const char *build = "DEBUG (no NDEBUG: kube invariant sweep defaults "
                        "on, timings are not comparable)";
#endif
    std::cout << "perfbench: workload " << options.workload << ", seed "
              << options.seed << ", seconds " << options.seconds
              << ", size "
              << (options.size == perfbench::Size::Tiny ? "tiny" : "full")
              << "\nperfbench: nproc " << sysconf(_SC_NPROCESSORS_ONLN)
              << ", build " << build << "\n";
#ifndef NDEBUG
    std::cerr << "perfbench: WARNING: built without NDEBUG\n";
#endif

    if (options.workload == "adapt-100k")
        return perfbench::runAdapt(options);
    if (options.workload == "loop-10k")
        return perfbench::runLoop(options);
    if (options.workload == "serve-cloudlab")
        return perfbench::runServe(options);
    return usage(("unknown workload " + options.workload).c_str());
}
