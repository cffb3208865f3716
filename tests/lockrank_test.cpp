// Lock-rank checker tests — prove the debug-build deadlock checker
// detects hierarchy inversions deterministically, and pin the structured
// ContractViolation fields the checker reports. Uses BasicRankedMutex<true>
// directly so the tests exercise the checking path in every build type
// (RankedMutex compiles the checks out under NDEBUG).
#include <gtest/gtest.h>

#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>

#include "support/lock_rank.hpp"

namespace sariadne::support {
namespace {

using CheckedMutex = BasicRankedMutex<true>;
using CheckedSharedMutex = BasicRankedSharedMutex<true>;

TEST(LockRank, AscendingAcquisitionSucceeds) {
    CheckedMutex summary(LockRank::kDirectorySummary);
    CheckedMutex services(LockRank::kDirectoryServices);
    CheckedMutex metrics(LockRank::kMetricsRegistry);

    std::lock_guard a(summary);
    std::lock_guard b(services);
    std::lock_guard c(metrics);
    EXPECT_EQ(lockrank_detail::held_count(), 3u);
}

TEST(LockRank, InversionThrowsWithStructuredFields) {
    CheckedMutex summary(LockRank::kDirectorySummary);
    CheckedMutex services(LockRank::kDirectoryServices);

    // A→B is the sanctioned order (a summary rebuild holds summary, then
    // services); B→A must be rejected at the A acquisition site with a
    // precise diagnosis.
    std::lock_guard outer(services);
    try {
        summary.lock();
        FAIL() << "lock-order inversion was not detected";
    } catch (const ContractViolation& violation) {
        EXPECT_EQ(violation.kind(), ContractKind::kLockRank);
        EXPECT_EQ(violation.expression(),
                  "acquire directory-summary while holding "
                  "directory-services (ranks must be strictly ascending)");
        EXPECT_NE(std::string(violation.file()).find("lockrank_test.cpp"),
                  std::string::npos);
        EXPECT_GT(violation.line(), 0);
        EXPECT_NE(std::string(violation.what()).find("lock-rank"),
                  std::string::npos);
    }
    // The failed acquisition must not leave a phantom entry behind.
    EXPECT_EQ(lockrank_detail::held_count(), 1u);
}

TEST(LockRank, ReverseOrderOnFreshThreadStillCaught) {
    // The held stack is thread-local: a different thread performing the
    // same inversion is caught independently.
    CheckedMutex dag(LockRank::kDagShard);
    CheckedMutex kb(LockRank::kKnowledgeBaseTables);

    bool caught = false;
    std::thread worker([&] {
        std::lock_guard outer(kb);
        try {
            dag.lock();
        } catch (const ContractViolation& violation) {
            caught = violation.kind() == ContractKind::kLockRank;
        }
    });
    worker.join();
    EXPECT_TRUE(caught);
}

TEST(LockRank, SameRankNestingForbidden) {
    // DagIndex locks one shard at a time; two kDagShard locks nested on
    // one thread would deadlock against the opposite nesting.
    CheckedSharedMutex shard_a(LockRank::kDagShard);
    CheckedSharedMutex shard_b(LockRank::kDagShard);

    std::shared_lock outer(shard_a);
    EXPECT_THROW(shard_b.lock_shared(), ContractViolation);
}

TEST(LockRank, TryLockParticipatesInHierarchy) {
    CheckedMutex summary(LockRank::kDirectorySummary);
    CheckedMutex services(LockRank::kDirectoryServices);

    std::lock_guard outer(services);
    // An inverted try_lock is an inverted blocking lock waiting to
    // happen (the try-then-block pattern), so it is rejected too.
    EXPECT_THROW((void)summary.try_lock(), ContractViolation);
}

TEST(LockRank, SharedAndExclusiveShareOneHierarchy) {
    CheckedSharedMutex kb(LockRank::kKnowledgeBaseTables);
    CheckedMutex summary(LockRank::kDirectorySummary);

    std::shared_lock reader(kb);
    EXPECT_THROW(summary.lock(), ContractViolation);
}

TEST(LockRank, OutOfLifoReleaseTolerated) {
    CheckedMutex summary(LockRank::kDirectorySummary);
    CheckedMutex services(LockRank::kDirectoryServices);
    CheckedMutex metrics(LockRank::kMetricsRegistry);

    std::unique_lock a(summary);
    std::unique_lock b(services);
    a.unlock();  // release the outer lock first (unique_lock juggling)
    EXPECT_EQ(lockrank_detail::held_count(), 1u);

    // The innermost *held* rank still governs: metrics (70) > services
    // (30) is fine, summary (20) is not.
    std::lock_guard c(metrics);
    EXPECT_THROW(summary.lock(), ContractViolation);
}

TEST(LockRank, RecoveryAfterViolation) {
    CheckedMutex summary(LockRank::kDirectorySummary);
    CheckedMutex services(LockRank::kDirectoryServices);

    {
        std::lock_guard outer(services);
        EXPECT_THROW(summary.lock(), ContractViolation);
    }
    // All locks released; the sanctioned order works again.
    std::lock_guard a(summary);
    std::lock_guard b(services);
    EXPECT_EQ(lockrank_detail::held_count(), 2u);
}

TEST(LockRank, ReleaseBuildAliasIsConfiguredConsistently) {
    // RankedMutex's checking mode follows SARIADNE_LOCKRANK_CHECKS; this
    // pins that the alias and the flag agree in whatever build runs the
    // suite (the TSan CI job forces checks on via -DSARIADNE_LOCKRANK=ON).
    constexpr bool alias_checked =
        std::is_same_v<RankedMutex, BasicRankedMutex<true>>;
    EXPECT_EQ(alias_checked, kLockRankChecksEnabled);

    RankedMutex mutex(LockRank::kDirectoryServices);
    std::lock_guard lock(mutex);
    EXPECT_EQ(mutex.rank(), LockRank::kDirectoryServices);
}

}  // namespace
}  // namespace sariadne::support
