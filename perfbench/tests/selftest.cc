/**
 * @file
 * Self-test of the benchmark's own arithmetic (perfbench/src/metrics.hh):
 * percentiles under the ten-samples-beyond rule, span self time,
 * open-loop due-time latency and generator lag, and the base of every
 * ratio metric. Exits non-zero on the first wrong number.
 *
 *   python3 perfbench/run.py --selftest
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "metrics.hh"

namespace
{

int failures = 0;

void
check(bool ok, const char *what, double got, double want)
{
    if (ok)
        return;
    ++failures;
    std::fprintf(stderr, "FAIL %s: got %.10g want %.10g\n", what, got,
                 want);
}

void
near(double got, double want, const char *what)
{
    check(std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want)),
          what, got, want);
}

using namespace perfbench;

void
testPercentile()
{
    // 1..100 in reverse: nearest rank, so p50 = 50 and p90 = 90.
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    near(percentile(v, 0.50).value_or(-1), 50, "p50 of 1..100");
    near(percentile(v, 0.90).value_or(-1), 90, "p90 of 1..100");
    // p90 leaves exactly 10 samples beyond: allowed. p91 leaves 9: not.
    check(percentile(v, 0.90).has_value(), "p90 has 10 beyond", 0, 1);
    check(!percentile(v, 0.91).has_value(), "p91 has 9 beyond", 1, 0);
    check(!percentile(v, 0.99).has_value(), "p99 of 100 samples", 1, 0);
    // 1000 samples: p99 has exactly 10 beyond.
    std::vector<double> k;
    for (int i = 1; i <= 1000; ++i)
        k.push_back(i);
    near(percentile(k, 0.99).value_or(-1), 990, "p99 of 1..1000");
    check(!percentile(k, 0.995).has_value(), "p99.5 of 1000", 1, 0);
    check(!percentile({}, 0.5).has_value(), "empty", 1, 0);
    // An infinite (failed) sample sits beyond every finite percentile.
    std::vector<double> f(999, 1.0);
    f.push_back(HUGE_VAL);
    near(percentile(f, 0.99).value_or(-1), 1.0, "inf stays in the tail");
    near(median({3, 1, 2}), 2, "median odd");
    near(median({4, 1, 3, 2}), 2.5, "median even");
    // 16 slices: the mean of ranks 5..12; an outlier falls out.
    std::vector<double> slices;
    for (int i = 16; i >= 1; --i)
        slices.push_back(i);
    near(interquartileMean(slices), 8.5, "interquartile mean of 1..16");
    slices[0] = 1e9;
    near(interquartileMean(slices), 8.5, "outlier trimmed");
    near(interquartileMean({5}), 5, "one slice");
    near(interquartileMean({1, 2, 3}), 2, "three slices, none trimmed");
    // Two levels: the figure follows the share of each.
    near(interquartileMean({1, 1, 1, 1, 1, 2, 2, 2}), 1.25, "two levels");
}

void
testSelfTime()
{
    // root [0,100) with children [10,30), [20,50) overlapping and
    // [90,120) clipped to the root; grandchild [12,15) under child 1.
    std::vector<Span> s(5);
    s[0].start = 0, s[0].end = 100, s[0].parent = -1;
    s[1].start = 10, s[1].end = 30, s[1].parent = 0;
    s[2].start = 20, s[2].end = 50, s[2].parent = 0;
    s[3].start = 90, s[3].end = 120, s[3].parent = 0;
    s[4].start = 12, s[4].end = 15, s[4].parent = 1;
    auto self = selfTimes(s);
    // root covered: [10,50) + [90,100) = 50 -> self 50.
    near(self[0], 50, "root self time");
    near(self[1], 17, "child self minus grandchild");
    near(self[2], 30, "leaf self = duration");
    near(self[3], 30, "clipped child keeps own duration");
    near(self[4], 3, "grandchild");
}

void
testOpenLoop()
{
    // 1000 ops/s from t0 = 5 s: op 3 is due 3 ms later.
    const uint64_t t0 = 5'000'000'000ull;
    near(dueTimeNs(t0, 0, 1000), t0, "op 0 due at t0");
    near(dueTimeNs(t0, 3, 1000), t0 + 3'000'000, "op 3 due at t0+3ms");
    // Issued 200 µs late, completed 500 µs after issue: latency counts
    // from the due time (700 µs), the lag is the 200 µs.
    const uint64_t due = dueTimeNs(t0, 3, 1000);
    near(openLoopLatencyNs(due, due + 700'000), 700'000,
         "latency from due time");
    near(generatorLagNs(due, due + 200'000), 200'000, "generator lag");
    near(generatorLagNs(due, due), 0, "on-time send has no lag");
}

void
testRatioBases()
{
    LayerCounts c;
    c.readsByReplica = {{600, 300, 100}, {50, 50, 0}};
    c.readsStalled = 11;
    c.writesIssued = 1500;
    c.writesCommitted = 1400;
    c.rmwsIssued = 500;
    c.rmwsCommitted = 100;
    c.rmwsAborted = 25;
    c.invRetransmits = 30;
    c.valsSkipped = 150;
    c.batchStaged = 4000;
    c.batchesFlushed = 250;
    c.messagesBatched = 3000;
    c.walAppends = 600;
    c.walBytes = 60000;
    c.walFlushes = 40;
    c.walFsyncs = 20;
    c.sessionPauses = 8;
    c.partialWriteTails = 3;
    c.clientOps = 4000;
    c.clientWrites = 200;
    auto m = layerRatios(c);
    near(m["hermes.read_share_max"], 0.6, "busiest replica / its shard");
    near(m["hermes.read_stall_frac"], 11.0 / 1100, "stalls / all reads");
    near(m["hermes.rmw_abort_ratio"], 25.0 / 500, "aborts / rmws issued");
    near(m["hermes.inv_retransmits_per_kwrite"], 30.0 / 2.0,
         "retransmits per 1k writes+rmws issued");
    near(m["hermes.val_skip_frac"], 150.0 / 1500,
         "skips / writes+rmws committed");
    near(m["net.msgs_per_batch"], 12, "batched msgs / batches");
    near(m["net.batched_frac"], 0.75, "batched msgs / staged msgs");
    near(m["net.session_pauses_per_kop"], 2, "pauses per 1k client ops");
    near(m["net.partial_write_tails"], 3, "raw count");
    near(m["wal.appends_per_flush"], 15, "appends / flushes");
    near(m["wal.bytes_per_write"], 300, "wal bytes / client writes");
    near(m["wal.fsyncs_per_kop"], 5, "fsyncs per 1k client ops");
    // Empty bases read 0, never NaN.
    auto z = layerRatios(LayerCounts{});
    for (const auto &[name, value] : z)
        check(value == 0.0, name.c_str(), value, 0);
}

} // namespace

int
main()
{
    testPercentile();
    testSelfTime();
    testOpenLoop();
    testRatioBases();
    if (failures) {
        std::fprintf(stderr, "perfbench selftest: %d failure(s)\n",
                     failures);
        return 1;
    }
    std::printf("perfbench selftest: ok\n");
    return 0;
}
