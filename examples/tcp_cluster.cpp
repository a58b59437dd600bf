/**
 * @file
 * A real-network deployment: 3 Hermes replicas on localhost TCP (Wings
 * framing with opportunistic batching + credit flow control), serving
 * external blocking clients — the library as an adoptable KV service.
 * Part two shards the key space: a ShardedTcpDeployment of 2×3 replicas
 * behind an address map negotiated at client HELLO, with a deliberately
 * stale client healing itself through the WrongShard reroute loop.
 *
 * Exits non-zero when a read-back is wrong: bob's read of alice's
 * write, carol's key-7 read, or the stale client's healed read.
 */

#include <chrono>
#include <cstdio>
#include <string>

#include "app/cluster.hh"
#include "app/tcp_service.hh"

using namespace hermes;

namespace
{

/** Print @p what and whether @p got matches @p want. @return match. */
bool
check(const char *what, const std::string &got, const std::string &want)
{
    if (got == want) {
        std::printf("%s: '%s'\n", what, got.c_str());
        return true;
    }
    std::printf("%s: '%s' -- WRONG, expected '%s'\n", what, got.c_str(),
                want.c_str());
    return false;
}

} // namespace

int
main()
{
    bool ok = true;
    net::TcpConfig tcp;
    tcp.basePort = 19750;
    app::ReplicaOptions options;
    options.maxValueSize = 256;
    options.hermesConfig.mlt = 50_ms;
    app::TcpKvService service(app::Protocol::Hermes, 3, options, tcp);
    service.start();
    std::printf("3 Hermes replicas listening on ports %u, %u, %u\n",
                service.portOf(0), service.portOf(1), service.portOf(2));

    app::KvClient alice(service.portOf(0));
    app::KvClient bob(service.portOf(2));
    if (!alice.connected() || !bob.connected()) {
        std::printf("clients failed to connect\n");
        return 1;
    }

    alice.write(1, "written-via-node-0");
    std::printf("alice wrote key 1 at replica 0\n");
    ok &= check("bob reads key 1 at replica 2", bob.read(1).value_or("?"),
                "written-via-node-0");

    bool locked = bob.cas(50, "", "bob").value_or(false);
    bool contended = alice.cas(50, "", "alice").value_or(true);
    std::printf("bob acquires lock: %s; alice's contending CAS: %s\n",
                locked ? "yes" : "no", contended ? "yes?!" : "rejected");

    // A quick closed-loop throughput probe over real sockets.
    constexpr int kOps = 2000;
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kOps; ++i)
        alice.write(100 + i % 50, "payload-" + std::to_string(i));
    auto elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    std::printf("%d sequential writes over TCP: %.0f ops/s "
                "(%.0f us/op round trip)\n",
                kOps, kOps / elapsed, elapsed / kOps * 1e6);
    std::printf("final read-back: '%s'\n",
                bob.read(100 + (kOps - 1) % 50).value_or("?").c_str());
    service.stop();
    std::printf("service stopped.\n");

    // ---- Sharded deployment: 2 shards x 3 replicas, one process ----
    std::printf("\nstarting a 2-shard deployment (3 replicas each)...\n");
    tcp.basePort = 19800;
    app::ShardedTcpDeployment deployment(app::Protocol::Hermes, 2, 3,
                                         options, tcp);
    deployment.start();
    for (uint32_t s = 0; s < 2; ++s)
        std::printf("  shard %u on ports %u-%u\n", s,
                    deployment.portOf(s, 0), deployment.portOf(s, 2));

    // A fresh client learns the full shard -> address map at HELLO and
    // routes every op to the group owning its key.
    app::KvClient carol(deployment.portOf(0, 0));
    uint32_t owner = app::shardOfKey(7, deployment.numShards());
    std::string routed = "routed-to-shard-" + std::to_string(owner);
    carol.write(7, routed);
    std::printf("carol wrote key 7 (owner: shard %u)\n", owner);
    ok &= check("carol reads key 7", carol.read(7).value_or("?"), routed);

    // A stale client that still believes the key space is unsharded: its
    // first op lands on the wrong group, is rejected with WrongShard plus
    // the authoritative map, and the client reconnects to the real owner
    // and retries -- the reroute loop in action.
    app::KvClient stale(deployment.portOf(1, 0), /*num_shards=*/1);
    ok &= check("stale client (thinks S=1) reads key 7",
                stale.read(7).value_or("?"), routed);
    std::printf("stale client healed to S=%zu\n", stale.numShards());
    deployment.stop();
    std::printf("deployment stopped.\n");
    if (!ok) {
        std::printf("FAILED: a read-back was wrong\n");
        return 1;
    }
    return 0;
}
