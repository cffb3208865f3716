// Wall-clock measurement for the evaluation harness. The network simulator
// keeps its own virtual time (net/sim_time.hpp); this type is only for
// measuring real local compute (parse / classify / match), exactly the
// quantities Figures 7-10 of the paper plot.
#pragma once

#include <chrono>

namespace sariadne {

/// Monotonic stopwatch. Constructed running.
class Stopwatch {
public:
    using clock = std::chrono::steady_clock;

    Stopwatch() noexcept : start_(clock::now()) {}

    void restart() noexcept { start_ = clock::now(); }

    /// Elapsed time since construction/restart, in seconds.
    double elapsed_seconds() const noexcept {
        return std::chrono::duration<double>(clock::now() - start_).count();
    }

    /// Elapsed time in milliseconds (the unit the paper's figures use).
    double elapsed_ms() const noexcept { return elapsed_seconds() * 1e3; }

private:
    clock::time_point start_;
};

}  // namespace sariadne
