/**
 * @file
 * Hermes RMWs (paper §3.6): CAS semantics, conflict aborts, the
 * write-always-beats-RMW rule, and at-most-one-of-concurrent-RMWs-commits.
 */

#include <gtest/gtest.h>

#include "app/cluster.hh"
#include "support/cluster_fixture.hh"
#include "support/str_cat.hh"
#include "hermes/key_state.hh"

namespace hermes
{
namespace
{

using app::ClusterConfig;
using app::Protocol;
using app::SimCluster;

using test::hermesConfig;

TEST(HermesRmw, CasOnFreshKeySucceeds)
{
    SimCluster cluster(hermesConfig(3));
    cluster.start();
    auto applied = cluster.casSync(0, 1, "", "locked");
    ASSERT_TRUE(applied.has_value());
    EXPECT_TRUE(*applied);
    EXPECT_EQ(cluster.readSync(1, 1).value_or("?"), "locked");
}

TEST(HermesRmw, CasWithWrongExpectedFails)
{
    SimCluster cluster(hermesConfig(3));
    cluster.start();
    ASSERT_TRUE(cluster.writeSync(0, 2, "actual"));
    bool done = false, applied = true;
    Value observed;
    cluster.cas(1, 2, "not-actual", "new", [&](bool ok, const Value &seen) {
        done = true;
        applied = ok;
        observed = seen;
    });
    cluster.runFor(5_ms);
    ASSERT_TRUE(done);
    EXPECT_FALSE(applied);
    EXPECT_EQ(observed, "actual");
    EXPECT_EQ(cluster.readSync(2, 2).value_or("?"), "actual");
}

TEST(HermesRmw, CasChainBuildsCounter)
{
    // Sequential CASes emulating a replicated counter.
    SimCluster cluster(hermesConfig(3));
    cluster.start();
    Value current = "";
    for (int i = 1; i <= 10; ++i) {
        Value next = std::to_string(i);
        auto applied = cluster.casSync(i % 3, 5, current, next);
        ASSERT_TRUE(applied.has_value());
        EXPECT_TRUE(*applied) << "iteration " << i;
        current = next;
    }
    EXPECT_EQ(cluster.readSync(0, 5).value_or("?"), "10");
    EXPECT_TRUE(cluster.converged(5));
}

TEST(HermesRmw, ConcurrentCasAtMostOneWins)
{
    // All nodes CAS the same fresh key concurrently; §3.6 guarantees at
    // most one concurrent RMW commits — and with no other updates racing,
    // exactly one (the highest cid) must.
    SimCluster cluster(hermesConfig(5));
    cluster.start();
    int wins = 0, losses = 0;
    for (NodeId n = 0; n < 5; ++n) {
        cluster.cas(n, 7, "", test::strCat("winner-", n),
                    [&](bool ok, const Value &) { ok ? ++wins : ++losses; });
    }
    cluster.runFor(50_ms);
    EXPECT_EQ(wins, 1);
    EXPECT_EQ(losses, 4);
    EXPECT_TRUE(cluster.converged(7));
    // The committed value must be one of the attempted ones.
    Value final = cluster.readSync(0, 7).value_or("?");
    EXPECT_EQ(final.rfind("winner-", 0), 0u);
}

TEST(HermesRmw, WriteBeatsConcurrentRmw)
{
    // A write racing an RMW always gets the higher timestamp (version+2
    // vs +1), so the write's value must be the final one and the RMW must
    // observe either pre- or post-write state, never clobber it.
    SimCluster cluster(hermesConfig(3));
    cluster.start();
    bool write_done = false, cas_done = false;
    cluster.write(0, 8, "the-write", [&] { write_done = true; });
    cluster.cas(2, 8, "", "the-rmw",
                [&](bool, const Value &) { cas_done = true; });
    cluster.runFor(50_ms);
    EXPECT_TRUE(write_done);
    EXPECT_TRUE(cas_done);
    EXPECT_EQ(cluster.readSync(1, 8).value_or("?"), "the-write");
    EXPECT_TRUE(cluster.converged(8));
}

TEST(HermesRmw, AbortedRmwIsRetriedInternally)
{
    SimCluster cluster(hermesConfig(3));
    cluster.start();
    // Force an abort: two concurrent CASes on a fresh key; the loser's
    // protocol RMW aborts and the retry re-checks expected (now stale).
    int completions = 0;
    cluster.cas(0, 9, "", "a", [&](bool, const Value &) { ++completions; });
    cluster.cas(2, 9, "", "b", [&](bool, const Value &) { ++completions; });
    cluster.runFor(50_ms);
    EXPECT_EQ(completions, 2) << "aborts must resolve, not hang";
    uint64_t aborts = 0;
    for (NodeId n = 0; n < 3; ++n)
        aborts += cluster.replica(n).hermes()->stats().rmwsAborted;
    EXPECT_GE(aborts, 1u);
}

TEST(HermesRmw, RmwFlagPropagatedInInv)
{
    // A follower invalidated by an RMW INV must store the RMW flag so a
    // replay of that update stays an RMW (update replays, §3.6).
    SimCluster cluster(hermesConfig(3));
    cluster.start();
    bool drop_vals = true;
    cluster.runtime().network().setDropFilter(
        [&drop_vals](NodeId, NodeId, const net::MessagePtr &msg) {
            return drop_vals && msg->type() == net::MsgType::HermesVal;
        });
    auto applied = cluster.casSync(0, 11, "", "rmw-value");
    ASSERT_TRUE(applied.has_value());
    EXPECT_TRUE(*applied);
    // Follower replays the RMW (VAL lost) when a read stalls.
    EXPECT_EQ(cluster.readSync(1, 11, 50_ms).value_or("?"), "rmw-value");
    drop_vals = false;
    cluster.runFor(5_ms);
    EXPECT_TRUE(cluster.converged(11));
}

TEST(HermesRmw, LockServicePattern)
{
    // The paper motivates Hermes for lock services (§2.1): acquire via
    // CAS("", owner), release via CAS(owner, "").
    SimCluster cluster(hermesConfig(3));
    cluster.start();
    constexpr Key kLock = 77;

    EXPECT_TRUE(cluster.casSync(0, kLock, "", "owner-0").value_or(false));
    // Someone else cannot acquire.
    EXPECT_FALSE(cluster.casSync(1, kLock, "", "owner-1").value_or(true));
    // Wrong releaser cannot release.
    EXPECT_FALSE(cluster.casSync(2, kLock, "owner-2", "").value_or(true));
    // Owner releases; next acquirer succeeds.
    EXPECT_TRUE(
        cluster.casSync(0, kLock, "owner-0", "").value_or(false));
    EXPECT_TRUE(cluster.casSync(1, kLock, "", "owner-1").value_or(false));
    EXPECT_EQ(cluster.readSync(2, kLock).value_or("?"), "owner-1");
}

TEST(HermesRmw, StatsDistinguishCommitsAndAborts)
{
    SimCluster cluster(hermesConfig(3));
    cluster.start();
    ASSERT_TRUE(cluster.casSync(0, 1, "", "v").value_or(false));
    ASSERT_FALSE(cluster.casSync(1, 1, "wrong", "w").value_or(true));
    const proto::HermesStats &stats0 = cluster.replica(0).hermes()->stats();
    const proto::HermesStats &stats1 = cluster.replica(1).hermes()->stats();
    EXPECT_EQ(stats0.rmwsCommitted, 1u);
    EXPECT_EQ(stats1.casFailedCompare, 1u);
    EXPECT_EQ(stats1.rmwsIssued, 0u) << "failed compare issues no protocol RMW";
}

} // namespace
} // namespace hermes
