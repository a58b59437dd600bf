/**
 * @file
 * google-benchmark microbenchmarks of the substrates: KVS operations,
 * timestamp comparisons, Zipfian sampling, histogram recording, event
 * queue throughput, message serialization, WAL record checksums and WAL
 * appends. These establish that the simulation substrate itself is not
 * the bottleneck of the figure benchmarks and give per-operation costs
 * for re-calibrating the cost model on new hardware.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "common/histogram.hh"
#include "common/random.hh"
#include "common/timestamp.hh"
#include "hermes/messages.hh"
#include "sim/event_queue.hh"
#include "store/kvs.hh"
#include "store/wal.hh"
#include "support/temp_dir.hh"

namespace
{

using namespace hermes;

void
BM_KvsRead(benchmark::State &state)
{
    store::KvStore kvs(1 << 16, 64);
    for (Key k = 0; k < 10000; ++k)
        kvs.withKey(k, [](store::KeyRecord &rec) { rec.setValue("value"); });
    Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(kvs.read(rng.nextBounded(10000)));
    }
}
BENCHMARK(BM_KvsRead);

void
BM_KvsWrite(benchmark::State &state)
{
    store::KvStore kvs(1 << 16, 64);
    Rng rng(2);
    std::string value(32, 'x');
    for (auto _ : state) {
        kvs.withKey(rng.nextBounded(10000), [&](store::KeyRecord &rec) {
            rec.meta().ts.version += 1;
            rec.setValue(value);
        });
    }
}
BENCHMARK(BM_KvsWrite);

void
BM_KvsReadUnderContention(benchmark::State &state)
{
    static store::KvStore kvs(1 << 12, 64);
    if (state.thread_index() == 0) {
        for (Key k = 0; k < 64; ++k)
            kvs.withKey(k, [](store::KeyRecord &rec) { rec.setValue("v"); });
    }
    Rng rng(3 + state.thread_index());
    for (auto _ : state) {
        Key k = rng.nextBounded(64);
        if (state.thread_index() % 4 == 0) {
            kvs.withKey(k, [](store::KeyRecord &rec) {
                rec.meta().ts.version += 1;
            });
        } else {
            benchmark::DoNotOptimize(kvs.read(k));
        }
    }
}
BENCHMARK(BM_KvsReadUnderContention)->Threads(4);

void
BM_TimestampCompare(benchmark::State &state)
{
    Rng rng(4);
    Timestamp a{static_cast<uint32_t>(rng.next()), 1};
    Timestamp b{static_cast<uint32_t>(rng.next()), 2};
    for (auto _ : state) {
        benchmark::DoNotOptimize(a < b);
        a.version += 1;
    }
}
BENCHMARK(BM_TimestampCompare);

void
BM_ZipfianSample(benchmark::State &state)
{
    ZipfianGenerator zipf(1000000, 0.99);
    Rng rng(5);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.next(rng));
}
BENCHMARK(BM_ZipfianSample);

void
BM_HistogramRecord(benchmark::State &state)
{
    Histogram histogram;
    Rng rng(6);
    for (auto _ : state)
        histogram.record(rng.nextBounded(1000000));
}
BENCHMARK(BM_HistogramRecord);

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    sim::EventQueue queue;
    uint64_t counter = 0;
    TimeNs t = 0;
    for (auto _ : state) {
        queue.scheduleAt(++t, [&counter] { ++counter; });
        queue.runOne();
    }
    benchmark::DoNotOptimize(counter);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_InvEncodeDecode(benchmark::State &state)
{
    proto::registerHermesCodecs();
    proto::InvMsg inv;
    inv.key = 42;
    inv.ts = {7, 3};
    inv.value = std::string(state.range(0), 'v');
    std::vector<uint8_t> bytes;
    for (auto _ : state) {
        bytes.clear();
        net::encodeMessage(inv, bytes);
        benchmark::DoNotOptimize(
            net::decodeMessage(bytes.data(), bytes.size()));
    }
}
BENCHMARK(BM_InvEncodeDecode)->Arg(32)->Arg(1024);

using Crc32Kernel = uint32_t (*)(uint32_t, const void *, size_t);

void
BM_Crc32(benchmark::State &state, Crc32Kernel kernel)
{
    std::vector<uint8_t> data(static_cast<size_t>(state.range(0)));
    Rng rng(7);
    for (uint8_t &b : data)
        b = static_cast<uint8_t>(rng.next());
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            kernel(store::crc32Init(), data.data(), data.size()));
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations())
                            * state.range(0));
}
BENCHMARK_CAPTURE(BM_Crc32, dispatched, store::crc32Update)
    ->Arg(32)->Arg(512)->Arg(4096);
BENCHMARK_CAPTURE(BM_Crc32, portable, store::crc32UpdatePortable)
    ->Arg(32)->Arg(512)->Arg(4096);

/**
 * Wal::append alone: encode, checksum and queue one record. The queue is
 * drained untimed — the log is closed (flushing it) and reopened empty
 * every kAppendsPerLog appends — so the file and the queue stay small.
 */
void
BM_WalAppend(benchmark::State &state)
{
    constexpr int kAppendsPerLog = 4096;
    test::TempDir dir("hermes-bench-wal");
    const std::string path = dir.file("bench.wal");
    auto open = [&path] {
        std::remove(path.c_str());
        store::WalConfig config;
        config.path = path;
        config.fsync = store::FsyncPolicy::Never;
        return std::make_unique<store::Wal>(config);
    };
    std::unique_ptr<store::Wal> wal = open();
    const ValueRef value = ValueRef::copyOf(
        std::string(static_cast<size_t>(state.range(0)), 'v'));
    Key key = 0;
    int queued = 0;
    for (auto _ : state) {
        ++key;
        wal->append(key, Timestamp{static_cast<uint32_t>(key), 1}, 0, value);
        if (++queued == kAppendsPerLog) {
            state.PauseTiming();
            wal.reset();
            wal = open();
            queued = 0;
            state.ResumeTiming();
        }
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations())
                            * state.range(0));
}
BENCHMARK(BM_WalAppend)->Arg(32)->Arg(512);

} // namespace

BENCHMARK_MAIN();
