/**
 * @file
 * The massive-client session layer end-to-end: pipelined KvSessionClient
 * sessions (per-session sequence numbers, completion by reqId, reroute
 * per in-flight op) against the epoll-multiplexed replicas, per-session
 * credit windows negotiated at HELLO and ENFORCED server-side (an
 * over-limit session's socket stops being read until replies drain),
 * dead-end WrongShard rejections, the poll-boundary peer-credit flush,
 * session routing (a session serves each shard at the replica it already
 * holds a socket to, failing over in address order), the send-coalescing
 * contract under readiness-only polling, and a 1000-session
 * deployment-wide run — mixed ops, one shard crashed
 * mid-run — whose shard-tagged history passes the linearizability
 * checker.
 */

#include <gtest/gtest.h>

#include <poll.h>

#include <chrono>
#include <deque>
#include <optional>
#include <thread>
#include <vector>

#include "app/cluster.hh"
#include "app/lin_checker.hh"
#include "app/tcp_service.hh"
#include "common/random.hh"
#include "support/str_cat.hh"

namespace hermes
{
namespace
{

using app::KvClient;
using app::KvSessionClient;
using app::Protocol;
using app::ReplicaOptions;
using app::ShardedTcpDeployment;
using app::TcpKvService;

// Port lane: clear of test_tcp (21xxx), test_tcp_recovery (22xxx) and
// test_sharded_tcp (23xxx).
constexpr uint16_t kBasePort = 24000;

ReplicaOptions
tcpOptions()
{
    ReplicaOptions options;
    options.storeCapacity = 1 << 12;
    options.maxValueSize = 256;
    options.hermesConfig.mlt = 50_ms; // wall-clock timers
    return options;
}

TimeNs
wallNowNs()
{
    using namespace std::chrono;
    return duration_cast<nanoseconds>(
               steady_clock::now().time_since_epoch())
        .count();
}

TEST(Sessions, PipelinedOpsCompleteByToken)
{
    net::TcpConfig config;
    config.basePort = kBasePort;
    TcpKvService service(Protocol::Hermes, 3, tcpOptions(), config);
    service.start();

    KvSessionClient session(service.portOf(0));
    ASSERT_TRUE(session.connected());

    // A burst of writes issued before anything is waited on: the whole
    // point of a session is that these ride the socket together.
    constexpr int kOps = 100;
    std::vector<uint64_t> writes;
    for (int i = 0; i < kOps; ++i)
        writes.push_back(
            session.writeAsync(1 + i % 10, test::strCat("w", i)));
    EXPECT_EQ(session.inflight(), static_cast<size_t>(kOps));
    for (uint64_t token : writes) {
        auto result = session.wait(token);
        ASSERT_TRUE(result.has_value());
        EXPECT_TRUE(result->completed);
        EXPECT_EQ(result->status, net::ClientReplyMsg::Status::Ok);
    }

    // Reads pipelined the same way complete by token, out of one reply
    // stream, each with the right value (keys 1..10 last written by
    // ops 90..99).
    std::vector<uint64_t> reads;
    for (int i = 0; i < 10; ++i)
        reads.push_back(session.readAsync(1 + i));
    for (int i = 0; i < 10; ++i) {
        auto result = session.wait(reads[i]);
        ASSERT_TRUE(result.has_value());
        EXPECT_TRUE(result->completed);
        EXPECT_EQ(result->value, test::strCat("w", 90 + i));
    }

    // CAS through the session: a winning and a losing one, the loser
    // reporting the value it observed.
    uint64_t win = session.casAsync(1, "w90", "cas-won");
    uint64_t lose = session.casAsync(2, "never-this", "cas-lost");
    auto won = session.wait(win);
    ASSERT_TRUE(won.has_value() && won->completed);
    EXPECT_TRUE(won->casApplied);
    auto lost = session.wait(lose);
    ASSERT_TRUE(lost.has_value() && lost->completed);
    EXPECT_FALSE(lost->casApplied);
    EXPECT_EQ(lost->value, "w91");

    // The HELLO negotiation answered with the server's default window.
    EXPECT_EQ(session.grantedCredits(),
              net::TcpConfig{}.clientSessionCredits);
    EXPECT_EQ(session.inflight(), 0u);
}

TEST(Sessions, DeadEndWrongShardSurfacesAsWrongShard)
{
    // A standalone shard-0 group of a 4-way deployment advertises only
    // its own address. An op on a key another shard owns re-resolves to
    // a shard with no address: that is a dead end, and the session must
    // complete it as WrongShard at once — not burn its reroute budget
    // against the same rejecting group and report RetriesExhausted.
    net::TcpConfig config;
    config.basePort = kBasePort + 16;
    const size_t kShards = 4;
    Key owned = 0, foreign = 0;
    for (Key k = 1; !owned || !foreign; ++k) {
        if (app::shardOfKey(k, kShards) == 0)
            owned = owned ? owned : k;
        else
            foreign = foreign ? foreign : k;
    }
    TcpKvService service(Protocol::Hermes, 3, tcpOptions(), config,
                         kShards, /*shard_id=*/0);
    service.start();

    KvSessionClient session(service.portOf(0));
    ASSERT_TRUE(session.connected());
    uint64_t served = session.writeAsync(owned, "home");
    std::vector<uint64_t> rejected = {
        session.writeAsync(foreign, "lost"),
        session.readAsync(foreign),
        session.casAsync(foreign, "", "x"),
    };
    for (uint64_t token : rejected) {
        auto result = session.wait(token);
        ASSERT_TRUE(result.has_value());
        EXPECT_TRUE(result->completed);
        EXPECT_EQ(result->status, net::ClientReplyMsg::Status::WrongShard);
    }
    auto home = session.wait(served);
    ASSERT_TRUE(home.has_value() && home->completed);
    EXPECT_EQ(home->status, net::ClientReplyMsg::Status::Ok);
    EXPECT_EQ(session.numShards(), kShards);
}

TEST(Sessions, OpsQueuedAcrossHelloAdoptionReroute)
{
    // A fresh session routes its first ops under the unsharded default
    // (everything to the seed). With an 8-credit window most of them
    // wait in the seed's send queue and are stamped only after the
    // HELLO reply has taught the real map: the stamp is current, but
    // the socket was chosen under the old one. Their WrongShard must
    // reroute them, not count as a dead end ("nothing adopted since the
    // stamp") — every op completes Ok.
    net::TcpConfig config;
    config.basePort = kBasePort + 160;
    const size_t kShards = 2;
    ShardedTcpDeployment deployment(Protocol::Hermes, kShards, 3,
                                    tcpOptions(), config);
    deployment.start();

    KvSessionClient session(deployment.portOf(0, 0), /*credits=*/8);
    ASSERT_TRUE(session.connected());
    constexpr int kOps = 40;
    std::vector<uint64_t> tokens;
    for (Key key = 1; key <= kOps; ++key)
        tokens.push_back(session.writeAsync(key, test::strCat("q", key)));
    for (size_t i = 0; i < tokens.size(); ++i) {
        auto result = session.wait(tokens[i]);
        ASSERT_TRUE(result.has_value());
        EXPECT_TRUE(result->completed) << "key " << i + 1;
        EXPECT_EQ(result->status, net::ClientReplyMsg::Status::Ok)
            << "key " << i + 1 << " (shard "
            << app::shardOfKey(i + 1, kShards) << ")";
    }
    EXPECT_EQ(session.numShards(), kShards);
}

TEST(Sessions, ServerStopsReadingOverLimitSession)
{
    // Credit enforcement is the SERVER's: grant a tiny window (8), then
    // have a deliberately misbehaving client believe a huge one and
    // flood 500 writes. The server must pause the session's socket at
    // the limit — the in-flight high-water mark stays at the window,
    // the overflow waits in kernel buffers — and resume as replies
    // drain until every op completed.
    net::TcpConfig config;
    config.basePort = kBasePort + 32;
    config.clientSessionCredits = 8;
    TcpKvService service(Protocol::Hermes, 3, tcpOptions(), config);
    service.start();
    net::TcpCluster::resetSessionStats();

    KvSessionClient flood(service.portOf(0));
    ASSERT_TRUE(flood.connected());
    flood.overrideWindow(100000);

    constexpr int kOps = 500;
    for (int i = 0; i < kOps; ++i)
        flood.writeAsync(1 + i % 16, test::strCat("f", i), 60_s);
    EXPECT_EQ(flood.waitAll(), static_cast<size_t>(kOps))
        << "a paused session must resume once replies drain";

    EXPECT_GT(net::TcpCluster::sessionPauses(), 0u)
        << "the flood never tripped the window";
    EXPECT_LE(net::TcpCluster::maxSessionInflight(), 8u)
        << "the server admitted more in-flight requests than the "
           "granted window";

    KvClient check(service.portOf(2));
    EXPECT_EQ(check.read(1 + (kOps - 16) % 16).value_or("?"),
              test::strCat("f", kOps - 16));
}

TEST(Sessions, CreditReturnsFlushOnQuietLinks)
{
    // Regression for the credit-return starvation fix: with a 2-credit
    // peer window and a return batch (1000) that low-rate traffic never
    // reaches, the old code returned credits only on bursts — after two
    // messages a link was starved for good. The poll-boundary flush
    // must keep sequential writes (one replication round at a time)
    // flowing indefinitely.
    net::TcpConfig config;
    config.basePort = kBasePort + 48;
    config.creditsPerLink = 2;
    config.creditReturnBatch = 1000;
    TcpKvService service(Protocol::Hermes, 3, tcpOptions(), config);
    service.start();
    net::TcpCluster::resetSessionStats();

    KvClient client(service.portOf(0));
    ASSERT_TRUE(client.connected());
    for (int i = 0; i < 20; ++i) {
        ASSERT_TRUE(client.write(1 + i % 5, test::strCat("q", i), 5_s))
            << "write " << i << " starved: credits never came back";
    }
    EXPECT_EQ(client.read(1).value_or("?"), "q15");
    EXPECT_GT(net::TcpCluster::creditReturnsFlushed(), 0u)
        << "quiet links returned credits some other way than the "
           "poll-boundary flush this test pins down";
}

TEST(Sessions, EachSessionServesAtItsSeedReplica)
{
    // Hermes reads are local at every replica, so a session seeded at
    // replica r must serve its shard at r rather than dial the shard's
    // first address: three sessions seeded one at each replica of an
    // S=1x3 group spread their reads over all three. Then one seed
    // replica crashes, and its session must fail over to another
    // replica of the shard and keep completing ops there.
    net::TcpConfig config;
    config.basePort = kBasePort + 96;
    TcpKvService service(Protocol::Hermes, 3, tcpOptions(), config);
    service.start();

    constexpr int kReads = 200;
    std::vector<std::unique_ptr<KvSessionClient>> sessions;
    for (NodeId r = 0; r < 3; ++r) {
        sessions.push_back(
            std::make_unique<KvSessionClient>(service.portOf(r)));
        ASSERT_TRUE(sessions.back()->connected());
    }
    auto wrote = sessions[0]->wait(sessions[0]->writeAsync(3, "before"));
    ASSERT_TRUE(wrote.has_value() && wrote->completed);
    for (auto &session : sessions) {
        for (int i = 0; i < kReads; ++i) {
            auto result = session->wait(session->readAsync(1 + i % 16));
            ASSERT_TRUE(result.has_value() && result->completed);
        }
    }
    for (auto &session : sessions)
        EXPECT_EQ(session->fds().size(), 1u)
            << "a session dialed a second replica of its only shard";

    // Crash replica 2. The crash closes its sockets, so the session
    // seeded there sees EOF and drops the connection. Not replica 0: a
    // crashed replica keeps its listener bound (for restart), so a
    // fail-over that dials the shard's addresses in order connects to a
    // crashed replica 0 first and its reads hang until their deadline.
    // DISABLED_FailOverPastACrashedFirstReplica below pins that defect.
    service.crash(2);
    KvSessionClient &orphan = *sessions[2];
    TimeNs deadline = wallNowNs() + 5_s;
    while (orphan.connected() && wallNowNs() < deadline) {
        std::vector<pollfd> pfds;
        for (int fd : orphan.fds())
            pfds.push_back(pollfd{fd, POLLIN, 0});
        poll(pfds.data(), pfds.size(), 10);
        orphan.progress();
    }
    ASSERT_FALSE(orphan.connected()) << "the crashed seed never hung up";

    // With no live socket to the shard, the next ops dial its addresses
    // in order and complete at a survivor. (Reads only: without the RM
    // agent no view change excludes the crashed replica, so a write
    // would wait for its ACK.)
    for (int i = 0; i < kReads; ++i) {
        Key key = 1 + i % 16;
        auto result = orphan.wait(orphan.readAsync(key));
        ASSERT_TRUE(result.has_value() && result->completed)
            << "read " << i << " after the fail-over did not complete";
        EXPECT_EQ(result->value, key == 3 ? "before" : "");
    }
    EXPECT_EQ(orphan.fds().size(), 1u);

    service.stop();
    uint64_t reads[3];
    for (NodeId r = 0; r < 3; ++r) {
        reads[r] = service.replica(r).hermes()->stats().readsCompleted;
        EXPECT_GE(reads[r], static_cast<uint64_t>(kReads))
            << "replica " << r << " served too few of its session's reads";
    }
    EXPECT_GE(reads[0] + reads[1], static_cast<uint64_t>(3 * kReads))
        << "the fail-over reads did not land on a survivor";
}

TEST(Sessions, CoalescedSendsNeverStrandUnderReadinessPolling)
{
    // The send-coalescing contract: an op on an idle connection leaves
    // at once; one on a busy connection waits in the session's buffer
    // for the next progress() or fds(). A caller that polls fds() for
    // POLLIN and calls progress() only on readiness must therefore never
    // wait on a byte that was never sent.
    net::TcpConfig config;
    config.basePort = kBasePort + 112;
    TcpKvService service(Protocol::Hermes, 3, tcpOptions(), config);
    service.start();

    KvSessionClient session(service.portOf(1));
    ASSERT_TRUE(session.connected());
    // Settle the HELLO: its reply precedes this write's on the socket.
    auto first = session.wait(session.writeAsync(1, "v1"));
    ASSERT_TRUE(first.has_value() && first->completed);

    auto pollReadable = [&](int timeout_ms) {
        std::vector<pollfd> pfds;
        for (int fd : session.fds())
            pfds.push_back(pollfd{fd, POLLIN, 0});
        return poll(pfds.data(), pfds.size(), timeout_ms);
    };

    // Idle session: the op is on the wire before readAsync returns, so
    // its reply makes the socket readable with no progress() call.
    uint64_t token = session.readAsync(1);
    ASSERT_GT(pollReadable(1000), 0)
        << "an op on an idle session was not sent";
    auto got = session.wait(token);
    ASSERT_TRUE(got.has_value() && got->completed);
    EXPECT_EQ(got->value, "v1");

    // Depth-16 closed loop driven only by readiness, refilling after
    // each harvest the way bench_sessions does.
    constexpr int kDepth = 16;
    constexpr int kOps = 10000;
    Rng rng(0x5E55);
    std::deque<uint64_t> outstanding;
    int issued = 0, completed = 0, timeouts = 0;
    auto refill = [&] {
        while (issued < kOps && outstanding.size() < kDepth) {
            Key key = 1 + rng.next() % 64;
            outstanding.push_back(
                rng.nextBool(0.05)
                    ? session.writeAsync(key, std::to_string(issued))
                    : session.readAsync(key));
            ++issued;
        }
    };
    refill();
    while (completed < kOps) {
        if (pollReadable(1000) <= 0) {
            ++timeouts;
            break; // an op is stranded: nothing will ever wake us
        }
        session.progress();
        for (auto it = outstanding.begin(); it != outstanding.end();) {
            auto result = session.take(*it);
            if (!result) {
                ++it;
                continue;
            }
            EXPECT_TRUE(result->completed);
            ++completed;
            it = outstanding.erase(it);
        }
        refill();
    }
    EXPECT_EQ(timeouts, 0) << "poll timed out with ops outstanding";
    EXPECT_EQ(completed, kOps);
}

TEST(Sessions, ReadBehindAStalledWriteIsNotStranded)
{
    // A write whose reply never comes must not strand the ops issued
    // after it on the same connection. Without the RM agent no view
    // change excludes a crashed replica, so a Hermes write waits for its
    // ACK for good; a read of another key, issued behind it on the busy
    // connection, must still reach the wire before a readiness-only
    // poller blocks, and complete locally.
    net::TcpConfig config;
    config.basePort = kBasePort + 128;
    TcpKvService service(Protocol::Hermes, 3, tcpOptions(), config);
    service.start();

    KvSessionClient session(service.portOf(1));
    ASSERT_TRUE(session.connected());
    auto first = session.wait(session.writeAsync(1, "v1"));
    ASSERT_TRUE(first.has_value() && first->completed);

    service.crash(2);
    uint64_t stalled = session.writeAsync(2, "stalled", 30_s);
    uint64_t read = session.readAsync(1);

    // Poll first: progress() would send the buffered read itself.
    std::optional<KvSessionClient::OpResult> got;
    for (int round = 0; round < 20 && !got; ++round) {
        std::vector<pollfd> pfds;
        for (int fd : session.fds())
            pfds.push_back(pollfd{fd, POLLIN, 0});
        ASSERT_GT(poll(pfds.data(), pfds.size(), 1000), 0)
            << "poll timed out: the read behind the stalled write was "
               "never sent";
        session.progress();
        got = session.take(read);
    }
    ASSERT_TRUE(got.has_value() && got->completed);
    EXPECT_EQ(got->value, "v1");
    EXPECT_FALSE(session.done(stalled))
        << "the write was expected to stall on the crashed replica";
    service.stop();
}

TEST(Sessions, DISABLED_FailOverPastACrashedFirstReplica)
{
    // Known defect, kept visible until it is fixed: TcpCluster::crash
    // keeps the crashed replica's listener bound so restart() can reuse
    // it, so connect() to a crashed replica still succeeds. Failing over
    // dials the shard's addresses in order — the one place that order
    // lives is KvSessionClient::connFor, which KvClient shares — and
    // with replica 0 crashed that dial lands on the dead listener, so
    // the session's ops hang until their deadline instead of reaching
    // replica 1. Closing the listener on crash is not a fix on its own:
    // a restarting replica's full-mesh re-dial gives up (fatal) after
    // 2 s of refused connects while another replica is still down.
    net::TcpConfig config;
    config.basePort = kBasePort + 144;
    TcpKvService service(Protocol::Hermes, 3, tcpOptions(), config);
    service.start();

    KvSessionClient session(service.portOf(0));
    ASSERT_TRUE(session.connected());
    auto wrote = session.wait(session.writeAsync(3, "before"));
    ASSERT_TRUE(wrote.has_value() && wrote->completed);

    service.crash(0);
    TimeNs deadline = wallNowNs() + 5_s;
    while (session.connected() && wallNowNs() < deadline) {
        std::vector<pollfd> pfds;
        for (int fd : session.fds())
            pfds.push_back(pollfd{fd, POLLIN, 0});
        poll(pfds.data(), pfds.size(), 10);
        session.progress();
    }
    ASSERT_FALSE(session.connected()) << "the crashed seed never hung up";

    for (int i = 0; i < 3; ++i) {
        auto result = session.wait(session.readAsync(3, 1_s));
        ASSERT_TRUE(result.has_value() && result->completed)
            << "read " << i << " after the fail-over did not complete";
        EXPECT_EQ(result->value, "before");
    }
    service.stop();
}

TEST(Sessions, ThousandSessionsSurviveCrashLinChecked)
{
    // The tentpole at scale: 1000 pipelined sessions multiplexed onto a
    // 4-shard x 3-replica deployment (every session holds a socket to
    // every shard — thousands of connections per replica loop), mixed
    // reads/writes/CAS, then one shard crashed with ops still flowing.
    // Ops on dead sockets fail fast and are dropped from the history;
    // everything recorded must linearize shard by shard.
    net::TcpConfig config;
    config.basePort = kBasePort + 64;
    const size_t kShards = 4;
    constexpr int kSessions = 1000;
    constexpr int kPhase1Rounds = 12;
    // Wide enough that per-key concurrency stays around 2: the checker
    // is exponential in simultaneous overlap, and 1000 sessions on a
    // handful of keys is a state-budget bomb, not a better test. The
    // high-contention lin check lives in test_sharded_tcp with 4
    // clients; this one proves the SESSION layer keeps histories
    // straight at scale.
    constexpr Key kKeySpace = 512;
    ShardedTcpDeployment deployment(Protocol::Hermes, kShards, 3,
                                    tcpOptions(), config);
    deployment.start();

    std::vector<std::unique_ptr<KvSessionClient>> sessions;
    for (int c = 0; c < kSessions; ++c) {
        // Seed at replica 0 of a rotating shard: connFor() then reuses
        // the seed socket for that shard, so each session runs exactly
        // one socket per shard.
        sessions.push_back(std::make_unique<KvSessionClient>(
            deployment.portOf(c % kShards, 0)));
        ASSERT_TRUE(sessions.back()->connected());
    }

    struct Tracked
    {
        uint64_t token;
        app::HistOp op;
    };
    std::vector<std::deque<Tracked>> outstanding(kSessions);
    app::History merged;
    size_t failures = 0;

    // 5_s per-op deadline: generous for live shards on a loaded box, and
    // it bounds the drain after the crash — a stopped shard's sockets
    // stay open (no RST), so ops sent its way resolve only by expiry.
    auto issueOne = [&](int c, Key key, Rng &rng) {
        KvSessionClient &s = *sessions[c];
        app::HistOp op;
        op.key = key;
        op.shard = app::shardOfKey(key, kShards);
        op.invoke = wallNowNs();
        double dice = rng.nextDouble();
        uint64_t token;
        if (dice < 0.5) {
            op.kind = app::HistOp::Kind::Read;
            token = s.readAsync(key, 5_s);
        } else if (dice < 0.9) {
            op.kind = app::HistOp::Kind::Write;
            op.arg = test::strCat("s", c, "-", rng.next());
            token = s.writeAsync(key, op.arg, 5_s);
        } else {
            op.kind = app::HistOp::Kind::Cas;
            op.arg = test::strCat("s", c, "-", rng.next());
            if (rng.nextBool(0.5))
                op.expected = Value{};
            else
                op.expected = test::strCat("alien-", rng.next());
            token = s.casAsync(key, op.expected, op.arg, 5_s);
        }
        outstanding[c].push_back(Tracked{token, std::move(op)});
    };

    auto harvest = [&]() {
        size_t left = 0;
        for (int c = 0; c < kSessions; ++c) {
            sessions[c]->progress();
            auto &queue = outstanding[c];
            for (auto it = queue.begin(); it != queue.end();) {
                auto result = sessions[c]->take(it->token);
                if (!result) {
                    ++it;
                    continue;
                }
                app::HistOp op = std::move(it->op);
                op.response = wallNowNs();
                if (result->completed
                        && result->status
                               == net::ClientReplyMsg::Status::Ok) {
                    if (op.kind == app::HistOp::Kind::Read)
                        op.result = result->value;
                    if (op.kind == app::HistOp::Kind::Cas) {
                        op.casApplied = result->casApplied;
                        op.result = result->value;
                    }
                    merged.add(std::move(op));
                } else {
                    ++failures;
                }
                it = queue.erase(it);
            }
            left += queue.size();
        }
        return left;
    };

    // Block on every live session socket between harvest passes: this
    // box may be a single core, and a spinning driver starves the 12
    // replica loops of the very CPU that completes the ops. poll()
    // wakes the driver exactly when replies exist, and one harvest
    // pass drains everything that arrived.
    auto blockOnSessions = [&]() {
        std::vector<pollfd> pfds;
        for (const auto &session : sessions)
            for (int fd : session->fds())
                pfds.push_back(pollfd{fd, POLLIN, 0});
        if (!pfds.empty())
            poll(pfds.data(), pfds.size(), 20);
    };
    auto drain = [&]() {
        while (harvest() > 0)
            blockOnSessions();
    };

    // Phase 1: the healthy deployment under full pipelined load.
    std::vector<Rng> rngs;
    for (int c = 0; c < kSessions; ++c)
        rngs.emplace_back(0xC0FFEE + c);
    for (int round = 0; round < kPhase1Rounds; ++round) {
        for (int c = 0; c < kSessions; ++c)
            issueOne(c, 1 + rngs[c].next() % kKeySpace, rngs[c]);
        harvest();
    }
    drain();
    EXPECT_EQ(failures, 0u) << "no op may fail while all shards live";

    // Phase 2: kill a whole shard, then every session issues one op per
    // shard — dead-shard ops fail (fast, via the closed socket), live
    // shards keep serving every session. Keys come UNIFORMLY from each
    // shard's pool (a "first owned key >= random start" scan would pile
    // the mass of every gap onto the key ending it — tens of mutually
    // concurrent ops on one register is a checker state bomb, not a
    // better history), and issuing is chunked with harvests in between
    // so completion windows stay narrow.
    std::vector<std::vector<Key>> keysOf(kShards);
    for (Key k = 1; k <= kKeySpace; ++k)
        keysOf[app::shardOfKey(k, kShards)].push_back(k);
    const uint32_t kDead = 3;
    deployment.crashShard(kDead);
    for (int c = 0; c < kSessions; ++c) {
        for (uint32_t s = 0; s < kShards; ++s) {
            Key key = keysOf[s][rngs[c].next() % keysOf[s].size()];
            issueOne(c, key, rngs[c]);
        }
        if (c % 100 == 99)
            harvest();
    }
    drain();

    // Only dead-shard ops may have failed, and live-shard ops from
    // every session completed.
    EXPECT_LE(failures, static_cast<size_t>(kSessions) + 64)
        << "live-shard ops failed under the crash";
    ASSERT_GE(merged.size(),
              static_cast<size_t>(kSessions) * kPhase1Rounds);

    app::LinReport report = app::checkShardedHistory(merged);
    EXPECT_TRUE(report.ok())
        << "shard " << app::shardOfKey(report.offendingKey, kShards)
        << ": " << report.detail;
}

} // namespace
} // namespace hermes
