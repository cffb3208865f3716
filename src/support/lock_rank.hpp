// Lock-rank deadlock checker — every mutex in the system is annotated with
// a rank from one global hierarchy, and debug builds maintain a
// thread-local stack of held ranks: acquiring a lock whose rank is not
// strictly greater than the innermost held rank throws ContractViolation
// (kind == ContractKind::kLockRank) at the offending acquisition site.
// Any lock-order inversion therefore fails deterministically in every
// test run — no need to actually interleave into the deadlock — while
// release builds compile the wrappers down to bare std::mutex /
// std::shared_mutex pass-throughs (the rank byte is the only overhead).
//
// The hierarchy (outermost = lowest rank, must be acquired first):
//
//   kDirectorySummary     SemanticDirectory::summary_mutex_
//   kDirectoryServices    SemanticDirectory::services_mutex_
//   kDagShard             DagIndex::Shard::mutex (never two shards nested)
//   kKnowledgeBaseTables  KnowledgeBase::tables_mutex_
//   kTaxonomyCache        TaxonomyCache::mutex_
//   kMetricsRegistry      obs::MetricsRegistry::mutex_
//
// The two real multi-lock paths this encodes:
//   * a SemanticDirectory summary rebuild holds summary before services;
//   * a DAG probe holds its shard lock while the oracle faults in a code
//     table (KnowledgeBase reader lock), whose first build classifies
//     under the TaxonomyCache mutex.
// Same-rank nesting is forbidden (DagIndex locks shards one at a time).
//
// Checking is enabled when SARIADNE_LOCKRANK_CHECKS is defined non-zero
// (the SARIADNE_LOCKRANK CMake option) or, by default, in builds without
// NDEBUG. Tests that must exercise the checker regardless of build type
// instantiate BasicRankedMutex<true> directly.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <source_location>
#include <string>
#include <string_view>

#include "support/contracts.hpp"

#ifndef SARIADNE_LOCKRANK_CHECKS
#ifdef NDEBUG
#define SARIADNE_LOCKRANK_CHECKS 0
#else
#define SARIADNE_LOCKRANK_CHECKS 1
#endif
#endif

namespace sariadne::support {

/// The global lock hierarchy. Values are spaced so a future mutex slots
/// between existing layers without renumbering everything.
enum class LockRank : std::uint8_t {
    kDirectorySummary = 20,
    kDirectoryServices = 30,
    kDagShard = 40,
    kKnowledgeBaseTables = 50,
    kTaxonomyCache = 60,
    kMetricsRegistry = 70,
};

constexpr std::string_view to_string(LockRank rank) noexcept {
    switch (rank) {
        case LockRank::kDirectorySummary: return "directory-summary";
        case LockRank::kDirectoryServices: return "directory-services";
        case LockRank::kDagShard: return "dag-shard";
        case LockRank::kKnowledgeBaseTables: return "knowledge-base-tables";
        case LockRank::kTaxonomyCache: return "taxonomy-cache";
        case LockRank::kMetricsRegistry: return "metrics-registry";
    }
    return "unknown-rank";
}

namespace lockrank_detail {

/// Per-thread stack of held ranks. A fixed array: real lock depth in this
/// codebase is <= 3, and exceeding the bound is itself reported.
struct HeldStack {
    static constexpr std::size_t kMaxDepth = 16;
    std::array<LockRank, kMaxDepth> ranks{};
    std::size_t depth = 0;
};

inline HeldStack& held() noexcept {
    thread_local HeldStack stack;
    return stack;
}

/// Throws ContractViolation (kind kLockRank) when acquiring `rank` would
/// violate the strictly-ascending discipline for the calling thread.
inline void check_order(LockRank rank, const std::source_location& loc) {
    const HeldStack& stack = held();
    if (stack.depth == 0) return;
    const LockRank top = stack.ranks[stack.depth - 1];
    if (static_cast<std::uint8_t>(top) < static_cast<std::uint8_t>(rank)) {
        return;
    }
    throw ContractViolation(
        ContractKind::kLockRank,
        "acquire " + std::string(to_string(rank)) + " while holding " +
            std::string(to_string(top)) +
            " (ranks must be strictly ascending)",
        loc.file_name(), static_cast<int>(loc.line()));
}

inline void push(LockRank rank, const std::source_location& loc) {
    HeldStack& stack = held();
    if (stack.depth >= HeldStack::kMaxDepth) {
        throw ContractViolation(ContractKind::kLockRank,
                                "held-lock stack overflow (depth > 16)",
                                loc.file_name(),
                                static_cast<int>(loc.line()));
    }
    stack.ranks[stack.depth++] = rank;
}

/// Removes the innermost held entry of `rank`. Tolerates out-of-LIFO
/// release (unique_lock juggling) by shifting; releasing a rank that is
/// not held is ignored — it can only arise from misuse of raw unlock and
/// must not throw from a noexcept unwind path.
inline void pop(LockRank rank) noexcept {
    HeldStack& stack = held();
    for (std::size_t i = stack.depth; i > 0; --i) {
        if (stack.ranks[i - 1] == rank) {
            for (std::size_t j = i - 1; j + 1 < stack.depth; ++j) {
                stack.ranks[j] = stack.ranks[j + 1];
            }
            --stack.depth;
            return;
        }
    }
}

/// Held-lock count of the calling thread (test introspection).
inline std::size_t held_count() noexcept { return held().depth; }

}  // namespace lockrank_detail

/// Rank-annotated std::mutex. Checked == true validates the hierarchy on
/// every acquisition; Checked == false is a zero-cost pass-through.
/// Meets Lockable, so std::lock_guard / std::unique_lock /
/// std::scoped_lock work unchanged.
template <bool Checked>
class BasicRankedMutex {
public:
    explicit BasicRankedMutex(LockRank rank) noexcept : rank_(rank) {}

    BasicRankedMutex(const BasicRankedMutex&) = delete;
    BasicRankedMutex& operator=(const BasicRankedMutex&) = delete;

    void lock(const std::source_location& loc =
                  std::source_location::current()) {
        if constexpr (Checked) lockrank_detail::check_order(rank_, loc);
        mutex_.lock();
        if constexpr (Checked) lockrank_detail::push(rank_, loc);
    }

    bool try_lock(const std::source_location& loc =
                      std::source_location::current()) {
        // Order discipline applies to try-acquisitions too: the codebase's
        // try-then-block pattern (DagIndex contention counting) falls back
        // to a blocking lock on failure, so an inverted try is an inverted
        // lock waiting to happen.
        if constexpr (Checked) lockrank_detail::check_order(rank_, loc);
        const bool acquired = mutex_.try_lock();
        if constexpr (Checked) {
            if (acquired) lockrank_detail::push(rank_, loc);
        }
        return acquired;
    }

    void unlock() noexcept {
        mutex_.unlock();
        if constexpr (Checked) lockrank_detail::pop(rank_);
    }

    LockRank rank() const noexcept { return rank_; }

private:
    LockRank rank_;
    std::mutex mutex_;
};

/// Rank-annotated std::shared_mutex. Shared and exclusive acquisitions
/// participate in the same hierarchy (a reader that later wants a
/// lower-rank writer deadlocks just as hard). Meets SharedLockable.
template <bool Checked>
class BasicRankedSharedMutex {
public:
    explicit BasicRankedSharedMutex(LockRank rank) noexcept : rank_(rank) {}

    BasicRankedSharedMutex(const BasicRankedSharedMutex&) = delete;
    BasicRankedSharedMutex& operator=(const BasicRankedSharedMutex&) = delete;

    void lock(const std::source_location& loc =
                  std::source_location::current()) {
        if constexpr (Checked) lockrank_detail::check_order(rank_, loc);
        mutex_.lock();
        if constexpr (Checked) lockrank_detail::push(rank_, loc);
    }

    bool try_lock(const std::source_location& loc =
                      std::source_location::current()) {
        if constexpr (Checked) lockrank_detail::check_order(rank_, loc);
        const bool acquired = mutex_.try_lock();
        if constexpr (Checked) {
            if (acquired) lockrank_detail::push(rank_, loc);
        }
        return acquired;
    }

    void unlock() noexcept {
        mutex_.unlock();
        if constexpr (Checked) lockrank_detail::pop(rank_);
    }

    void lock_shared(const std::source_location& loc =
                         std::source_location::current()) {
        if constexpr (Checked) lockrank_detail::check_order(rank_, loc);
        mutex_.lock_shared();
        if constexpr (Checked) lockrank_detail::push(rank_, loc);
    }

    bool try_lock_shared(const std::source_location& loc =
                             std::source_location::current()) {
        if constexpr (Checked) lockrank_detail::check_order(rank_, loc);
        const bool acquired = mutex_.try_lock_shared();
        if constexpr (Checked) {
            if (acquired) lockrank_detail::push(rank_, loc);
        }
        return acquired;
    }

    void unlock_shared() noexcept {
        mutex_.unlock_shared();
        if constexpr (Checked) lockrank_detail::pop(rank_);
    }

    LockRank rank() const noexcept { return rank_; }

private:
    LockRank rank_;
    std::shared_mutex mutex_;
};

inline constexpr bool kLockRankChecksEnabled = SARIADNE_LOCKRANK_CHECKS != 0;

using RankedMutex = BasicRankedMutex<kLockRankChecksEnabled>;
using RankedSharedMutex = BasicRankedSharedMutex<kLockRankChecksEnabled>;

}  // namespace sariadne::support
