/**
 * @file
 * The benchmark's own arithmetic, kept free of any hermes-kv type so the
 * self-test can check it in isolation: percentiles under the
 * ten-samples-beyond rule, span self time, open-loop due-time latency and
 * generator lag, and the per-layer ratio metrics with their bases.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench
{

/** A percentile is reported only with at least this many samples
 *  ranked strictly above it; fewer and the tail is a guess. */
constexpr size_t kMinSamplesBeyond = 10;

/**
 * Nearest-rank percentile of @p samples (any order) at fraction @p p in
 * (0, 1]: the value of rank ceil(p * n). nullopt when fewer than
 * kMinSamplesBeyond samples rank above it.
 */
inline std::optional<double>
percentile(std::vector<double> samples, double p)
{
    const size_t n = samples.size();
    if (n == 0 || !(p > 0.0) || p > 1.0)
        return std::nullopt;
    // The epsilon keeps p * n from rounding up past an exact rank
    // (0.99 * 1000 must be rank 990, not 991).
    size_t rank = static_cast<size_t>(
        std::ceil(p * static_cast<double>(n) - 1e-9));
    rank = std::clamp<size_t>(rank, 1, n);
    if (n - rank < kMinSamplesBeyond)
        return std::nullopt;
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return samples[rank - 1];
}

/** Median of @p values (mean of the middle pair for an even count);
 *  0 for an empty set. No tail rule: used for repeated measurements. */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/**
 * Interquartile mean of repeated slice measurements @p values: the mean
 * of what is left after dropping the lowest and the highest quarter
 * (floor(n/4) from each end; 0 for an empty set). A stalled slice falls
 * out with the tail it lands in, and where the slices split between two
 * levels (a write's p50 moves by one loop wake-up), the figure moves
 * smoothly with the share of each instead of jumping from one to the
 * other as an order statistic would.
 */
inline double
interquartileMean(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t k = values.size() / 4;
    double sum = 0;
    for (size_t i = k; i < values.size() - k; ++i)
        sum += values[i];
    return sum / static_cast<double>(values.size() - 2 * k);
}

/** @p num / @p den, 0 when the base is empty. */
inline double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** One timed interval recorded at a layer boundary. */
struct Span
{
    uint32_t name = 0;    ///< index into the tracer's name table
    uint64_t start = 0;   ///< steady-clock ns
    uint64_t end = 0;
    int64_t parent = -1;  ///< index of the enclosing span, -1 = root
    uint64_t token = 0;   ///< request token the span serves (0 = none)
    uint32_t count = 1;   ///< calls covered (batched micro timings)

    uint64_t duration() const { return end > start ? end - start : 0; }
};

/**
 * Self time of every span: its duration minus the part of its interval
 * covered by its direct children (overlapping children counted once,
 * children clipped to the parent's interval).
 */
inline std::vector<uint64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(
        spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size())
            kids[static_cast<size_t>(s.parent)].emplace_back(s.start,
                                                             s.end);
    std::vector<uint64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
        bool open = false;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, p.start);
            hi = std::min(hi, p.end);
            if (hi <= lo)
                continue;
            if (open && lo <= cur_hi) {
                cur_hi = std::max(cur_hi, hi);
                continue;
            }
            if (open)
                covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            open = true;
        }
        if (open)
            covered += cur_hi - cur_lo;
        self[i] = p.duration() > covered ? p.duration() - covered : 0;
    }
    return self;
}

/** Open-loop schedule: op @p i of a run starting at @p t0 at @p rate
 *  ops/s is due at t0 + i / rate. */
inline uint64_t
dueTimeNs(uint64_t t0, uint64_t i, double rate)
{
    return t0 + static_cast<uint64_t>(static_cast<double>(i) * 1e9 / rate);
}

/** Open-loop latency: from when the op was DUE, so a stall that delays
 *  later sends is charged to them. */
inline uint64_t
openLoopLatencyNs(uint64_t due, uint64_t completed)
{
    return completed > due ? completed - due : 0;
}

/** How late the generator sent an op relative to its schedule. */
inline uint64_t
generatorLagNs(uint64_t due, uint64_t issued)
{
    return issued > due ? issued - due : 0;
}

/**
 * Counters read from the replicas after stop(), summed over the whole
 * life of the measured deployment (prefill included), plus the client
 * op totals of the same span.
 */
struct LayerCounts
{
    /** Reads served per replica, grouped by shard. */
    std::vector<std::vector<uint64_t>> readsByReplica;
    uint64_t readsStalled = 0;
    uint64_t writesIssued = 0;
    uint64_t writesCommitted = 0;
    uint64_t rmwsIssued = 0;
    uint64_t rmwsCommitted = 0;
    uint64_t rmwsAborted = 0;
    uint64_t invRetransmits = 0;
    uint64_t valsSkipped = 0;

    uint64_t batchStaged = 0;
    uint64_t batchesFlushed = 0;
    uint64_t messagesBatched = 0;

    uint64_t walAppends = 0;
    uint64_t walBytes = 0;
    uint64_t walFlushes = 0;
    uint64_t walFsyncs = 0;

    uint64_t sessionPauses = 0;
    uint64_t partialWriteTails = 0;

    uint64_t clientOps = 0;    ///< ops the bench issued on this deployment
    uint64_t clientWrites = 0; ///< of which writes + CAS
};

/** The ratio metrics derived from LayerCounts; each base is named in
 *  perfbench/README.md and pinned by the self-test. */
inline std::map<std::string, double>
layerRatios(const LayerCounts &c)
{
    std::map<std::string, double> m;
    double share_max = 0.0;
    uint64_t reads = 0;
    for (const auto &shard : c.readsByReplica) {
        uint64_t total = 0, busiest = 0;
        for (uint64_t r : shard) {
            total += r;
            busiest = std::max(busiest, r);
        }
        reads += total;
        share_max = std::max(share_max, ratio(busiest, total));
    }
    const double writes = static_cast<double>(c.writesIssued + c.rmwsIssued);
    const double commits =
        static_cast<double>(c.writesCommitted + c.rmwsCommitted);
    const double kops = c.clientOps / 1e3;
    m["hermes.read_share_max"] = share_max;
    m["hermes.read_stall_frac"] = ratio(c.readsStalled, reads);
    m["hermes.rmw_abort_ratio"] = ratio(c.rmwsAborted, c.rmwsIssued);
    m["hermes.inv_retransmits_per_kwrite"] =
        ratio(c.invRetransmits, writes / 1e3);
    m["hermes.val_skip_frac"] = ratio(c.valsSkipped, commits);
    m["net.msgs_per_batch"] = ratio(c.messagesBatched, c.batchesFlushed);
    m["net.batched_frac"] = ratio(c.messagesBatched, c.batchStaged);
    m["net.session_pauses_per_kop"] = ratio(c.sessionPauses, kops);
    m["net.partial_write_tails"] = static_cast<double>(c.partialWriteTails);
    m["wal.appends_per_flush"] = ratio(c.walAppends, c.walFlushes);
    m["wal.bytes_per_write"] = ratio(c.walBytes, c.clientWrites);
    m["wal.fsyncs_per_kop"] = ratio(c.walFsyncs, kops);
    return m;
}

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
