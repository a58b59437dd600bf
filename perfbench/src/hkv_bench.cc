/**
 * @file
 * hkv_bench: the repository benchmark. Runs one named workload against an
 * in-process app::ShardedTcpDeployment (Hermes) over loopback TCP, loads
 * it from this one thread through KvSessionClient, lin-checks the whole
 * recorded history, and prints one JSON line of metrics.
 *
 *   hkv_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--out <dir>]
 *
 * An untraced run measures kSetupReps fresh deployments in turn. Each
 * gets a set-up (start, dial, prefill every key), a warm-up, a
 * closed-loop phase of a fixed op count at a fixed in-flight count, an
 * open-loop phase at a fixed rate timed from each op's due time, stop,
 * and the replicas' stats; then every history is lin-checked (never
 * timed into an end-to-end metric). --trace 1 measures one deployment,
 * adds a traced closed-loop phase, a depth-1 probe and standalone
 * per-layer timings, and reports the per-layer metrics instead of the
 * end-to-end ones. perfbench/README.md is the glossary.
 */

#include <dirent.h>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/lin_checker.hh"
#include "app/slot_map.hh"
#include "app/tcp_service.hh"
#include "common/random.hh"
#include "hermes/messages.hh"
#include "metrics.hh"
#include "net/client_msgs.hh"
#include "net/message.hh"
#include "store/kvs.hh"
#include "store/wal.hh"
#include "trace.hh"

namespace perfbench
{
namespace
{

using hermes::Key;
using hermes::Rng;
using hermes::Value;
using hermes::ValueRef;
using hermes::app::HistOp;
using hermes::app::History;
using hermes::app::KvSessionClient;
using hermes::net::ClientReplyMsg;

constexpr size_t kReplicas = 3;
/** Port lanes of 32 from here, one per deployment: clear of the tests
 *  (21xxx/23xxx/24xxx), fig7c (24000) and bench_sessions (26xxx). */
constexpr uint16_t kBasePort = 28000;
constexpr size_t kSetupReps = 5;      // deployments per untraced run
constexpr uint64_t kOpTimeoutNs = 30'000'000'000ull;
constexpr size_t kPrefillDepth = 512; // per session, set-up only
constexpr size_t kProbeOps = 2000;    // depth-1 probe, half reads
constexpr size_t kChunks = 16; // slices per deployment, see interquartileMean()
/** Checker states per key before Inconclusive (the library default). */
constexpr size_t kLinStateBudget = size_t{1} << 22;
/**
 * WAL fsync policy of the durable workload and the standalone WAL
 * timings. The log lives under the run directory, inside the checkout;
 * fsync latency on a shared virtual disk swings run to run by more than
 * any bound worth gating, so records are framed, CRC'd and written with
 * one writev per flush window but not fsynced — the same work as a
 * group-commit log on tmpfs, where fsync is a no-op.
 */
constexpr auto kWalPolicy = hermes::store::FsyncPolicy::Never;

/** One named traffic mix; perfbench/README.md says why each exists. */
struct Workload
{
    const char *name;
    size_t shards;
    size_t keys;
    size_t valueBytes;
    double writeFrac; ///< share of ops that are blind writes
    double casFrac;   ///< share of ops that are CAS
    double zipfTheta; ///< 0 = uniform key choice
    bool wal;         ///< kWalPolicy WAL under the run directory
    size_t sessions;  ///< KvSessionClients, seeded round-robin at shard
                      ///< 0's replicas
    size_t inflight;  ///< closed-loop ops in flight, all sessions; also
                      ///< the open loop's in-flight cap
    double closedOpsPerSec; ///< sizes the fixed closed-loop op count
    double openRate;        ///< open-loop offered rate, ops/s
};

const Workload kWorkloads[] = {
    {"read-mostly", 1, 100000, 32, 0.05, 0.0, 0.0, false, 3, 24,
     125000, 15000},
    {"write-heavy-durable", 1, 100000, 512, 0.5, 0.0, 0.0, true, 3, 96,
     95000, 8000},
    {"sharded-skew", 4, 250000, 32, 0.20, 0.05, 0.99, false, 1, 16,
     60000, 8000},
};

struct Options
{
    const Workload *workload = nullptr;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string out = ".bench_out";
};

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "hkv_bench: %s\n", msg.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            die("missing value for " + flag);
        std::string val = argv[++i];
        if (flag == "--workload") {
            for (const Workload &w : kWorkloads)
                if (val == w.name)
                    o.workload = &w;
            if (!o.workload)
                die("unknown workload " + val);
        } else if (flag == "--seed") {
            o.seed = std::strtoull(val.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(val.c_str(), nullptr);
            if (!(o.seconds >= 1 && o.seconds <= 60))
                die("--seconds must be in [1, 60], got " + val);
        } else if (flag == "--trace") {
            o.trace = val == "1";
        } else if (flag == "--out") {
            o.out = val;
        } else {
            die("unknown flag " + flag);
        }
    }
    if (!o.workload)
        die("--workload is required");
    return o;
}

// ---- Values ---------------------------------------------------------
// Every write carries a unique id: the value is the id as 16 hex digits
// followed by a filler byte derived from it, padded to the workload's
// value size. The history records only the compact id, so a 512 B value
// costs the checker no more than a 32 B one; compact() verifies the
// whole value first, so the mapping is injective and a torn or foreign
// value can never pass for a written one.

Value
makeValue(uint64_t id, size_t len)
{
    Value v(len, static_cast<char>('a' + id % 26));
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, id);
    std::memcpy(v.data(), hex, 16);
    return v;
}

/** Compact id of @p v ("" for the genesis value), or "!" + v when v is
 *  not a value this benchmark wrote. */
Value
compact(const Value &v, size_t len, uint64_t *id_out = nullptr)
{
    if (v.empty()) {
        if (id_out)
            *id_out = 0;
        return {};
    }
    if (v.size() == len) {
        char *end = nullptr;
        std::string head = v.substr(0, 16);
        uint64_t id = std::strtoull(head.c_str(), &end, 16);
        bool ok = end == head.c_str() + 16 && id != 0;
        const char fill = static_cast<char>('a' + id % 26);
        for (size_t i = 16; ok && i < len; ++i)
            ok = v[i] == fill;
        if (ok) {
            if (id_out)
                *id_out = id;
            char buf[17];
            std::snprintf(buf, sizeof(buf), "%" PRIx64, id);
            return buf;
        }
    }
    if (id_out)
        *id_out = 0;
    return "!" + v;
}

// ---- CPU accounting -------------------------------------------------

uint64_t
tvNs(const timeval &tv)
{
    return static_cast<uint64_t>(tv.tv_sec) * 1000000000ull
           + static_cast<uint64_t>(tv.tv_usec) * 1000ull;
}

/** Run time (ns) of every thread of this process, from schedstat. */
std::map<int, uint64_t>
taskRunNs()
{
    std::map<int, uint64_t> out;
    DIR *dir = opendir("/proc/self/task");
    if (!dir)
        return out;
    while (dirent *e = readdir(dir)) {
        if (e->d_name[0] == '.')
            continue;
        std::string path =
            std::string("/proc/self/task/") + e->d_name + "/schedstat";
        FILE *f = std::fopen(path.c_str(), "r");
        if (!f)
            continue;
        unsigned long long ns = 0;
        if (std::fscanf(f, "%llu", &ns) == 1)
            out[std::atoi(e->d_name)] = ns;
        std::fclose(f);
    }
    closedir(dir);
    return out;
}

struct CpuSnap
{
    uint64_t wall = 0;
    rusage self{};
    rusage thread{};
    std::map<int, uint64_t> tasks;

    static CpuSnap
    take()
    {
        CpuSnap s;
        s.tasks = taskRunNs();
        getrusage(RUSAGE_SELF, &s.self);
        getrusage(RUSAGE_THREAD, &s.thread);
        s.wall = nowNs();
        return s;
    }
};

/** CPU split of one phase: the bench thread vs everything else (the
 *  replica event loops). */
struct CpuDelta
{
    double wallNs = 0;
    double procUserNs = 0, procSysNs = 0;
    double benchUserNs = 0, benchSysNs = 0;
    double ctxSwitches = 0;
    double loopBusyMax = 0, loopBusyMean = 0;

    CpuDelta(const CpuSnap &a, const CpuSnap &b)
    {
        wallNs = static_cast<double>(b.wall - a.wall);
        procUserNs = tvNs(b.self.ru_utime) - tvNs(a.self.ru_utime);
        procSysNs = tvNs(b.self.ru_stime) - tvNs(a.self.ru_stime);
        benchUserNs = tvNs(b.thread.ru_utime) - tvNs(a.thread.ru_utime);
        benchSysNs = tvNs(b.thread.ru_stime) - tvNs(a.thread.ru_stime);
        ctxSwitches = static_cast<double>(
            (b.self.ru_nvcsw + b.self.ru_nivcsw)
            - (a.self.ru_nvcsw + a.self.ru_nivcsw));
        const int me = static_cast<int>(gettid());
        double sum = 0;
        size_t n = 0;
        for (const auto &[tid, ns] : b.tasks) {
            auto it = a.tasks.find(tid);
            if (tid == me || it == a.tasks.end())
                continue;
            double busy = ratio(static_cast<double>(ns - it->second),
                                wallNs);
            loopBusyMax = std::max(loopBusyMax, busy);
            sum += busy;
            ++n;
        }
        loopBusyMean = ratio(sum, static_cast<double>(n));
    }

    double procNs() const { return procUserNs + procSysNs; }
    double benchNs() const { return benchUserNs + benchSysNs; }
    double serverNs() const { return std::max(0.0, procNs() - benchNs()); }
    double
    serverSysNs() const
    {
        return std::max(0.0, procSysNs - benchSysNs);
    }
};

// ---- The deployment under test --------------------------------------

/** The CPUs this process may run on, read once at start-up (before the
 *  bench thread pins itself). */
const std::vector<int> &
allowedCpus()
{
    static const std::vector<int> cpus = [] {
        std::vector<int> out;
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set))
                    out.push_back(c);
        return out;
    }();
    return cpus;
}

void
pinTo(int tid, int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(tid, sizeof(set), &set);
}

/** A started deployment, its sessions, and its WAL directory (removed
 *  with the rig: a leftover log would be replayed by the next start and
 *  break the checker's genesis assumption). */
struct Rig
{
    std::string walDir;
    std::unique_ptr<hermes::app::ShardedTcpDeployment> deployment;
    std::vector<std::unique_ptr<KvSessionClient>> sessions;
    std::vector<int> loops; ///< the deployment's loop threads, tid order

    Rig(const Workload &w, uint16_t port, std::string wal_dir)
        : walDir(std::move(wal_dir))
    {
        hermes::app::ReplicaOptions options;
        options.storeCapacity = w.keys / w.shards;
        options.maxValueSize = w.valueBytes;
        options.hermesConfig.mlt = 50'000'000; // 50 ms: wall-clock timers
        if (w.wal) {
            std::filesystem::remove_all(walDir);
            options.wal.path = walDir;
            options.wal.fsync = kWalPolicy;
        }
        hermes::net::TcpConfig config;
        config.basePort = port;
        deployment = std::make_unique<hermes::app::ShardedTcpDeployment>(
            hermes::app::Protocol::Hermes, w.shards, kReplicas, options,
            config);
        const std::map<int, uint64_t> before = taskRunNs();
        deployment->start();
        for (const auto &[tid, ns] : taskRunNs())
            if (!before.count(tid))
                loops.push_back(tid);
        spreadLoops();
        for (size_t s = 0; s < w.sessions; ++s) {
            sessions.push_back(std::make_unique<KvSessionClient>(
                deployment->portOf(0, static_cast<hermes::NodeId>(
                                          s % kReplicas))));
            if (!sessions.back()->connected())
                die("session " + std::to_string(s) + " failed to connect");
        }
    }

    ~Rig()
    {
        sessions.clear();
        if (deployment)
            deployment->stop();
        deployment.reset();
        if (!walDir.empty())
            std::filesystem::remove_all(walDir);
    }

    /**
     * Throughput layout (set-up and closed loop): the bench thread on the
     * first allowed CPU, the loop threads round-robin over the others.
     * Left to the scheduler, the placement of the bench thread and the
     * hot replica loop changed from deployment to deployment and minute
     * to minute, and read-mostly's ops_s jumped between discrete levels
     * (about 135k, 155k, 170k and 205k); pinned, it holds one. Pins
     * nothing on a single CPU.
     */
    void
    spreadLoops() const
    {
        const std::vector<int> &cpus = allowedCpus();
        if (cpus.size() < 2)
            return;
        pinTo(0, cpus[0]);
        for (size_t i = 0; i < loops.size(); ++i)
            pinTo(loops[i], cpus[1 + i % (cpus.size() - 1)]);
    }

    /**
     * Latency layout (open loop and probe): every loop thread on the
     * second allowed CPU, the bench thread alone on the first. This VM
     * halts an idle vCPU, and waking it costs tens of µs that swing with
     * the host's load; with a shard's replicas on separate CPUs a write
     * paid that several times (INV, ACK, VAL, reply) and its p50 moved
     * by 3.4x between runs. Packed, a shard's messages hand off on
     * one run queue, and with the bench spinning (openLoop) an op pays
     * one wake-up. @return false, pinning nothing, on a single CPU.
     */
    bool
    packLoops() const
    {
        const std::vector<int> &cpus = allowedCpus();
        if (cpus.size() < 2)
            return false;
        for (int tid : loops)
            pinTo(tid, cpus[1]);
        return true;
    }

    Rig(const Rig &) = delete;
    Rig &operator=(const Rig &) = delete;
};

enum class Kind : uint8_t { Read, Write, Cas };

/** A completed op as the open-loop and probe statistics see it. */
struct Sample
{
    Kind kind;
    bool ok;
    uint64_t due, issued, done;
};

/**
 * Issues the workload's op mix over a Rig's sessions from this thread,
 * records every op into the lin-check history, and pumps completions.
 */
class Load
{
  public:
    Load(Rig &rig, const Workload &w, uint64_t seed, Tracer &tracer)
        : rig_(rig), w_(w), rng_(seed * 0x9E3779B97F4A7C15ull + 1),
          slots_(hermes::app::SlotMap::uniform(
              static_cast<uint32_t>(w.shards))),
          lastId_(w.keys + 1, 0), out_(rig.sessions.size()),
          tracer_(tracer)
    {
        if (w.zipfTheta > 0)
            zipf_.emplace(w.keys, w.zipfTheta);
        issueId_ = tracer.nameId("issue");
        progressId_ = tracer.nameId("progress");
        takeId_ = tracer.nameId("take");
        pollId_ = tracer.nameId("poll");
    }

    /** The recorded ops. A deque, not a History: appending never moves
     *  the millions already recorded, which would stall the bench thread
     *  for tens of ms in the middle of a measured phase. */
    std::deque<HistOp> ops;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t writesIssued = 0; ///< writes + CAS
    std::vector<Sample> *samples = nullptr; ///< collect when set
    bool traceTakeMisses = false;           ///< the probe's depth-1 pass

    size_t sessions() const { return out_.size(); }
    size_t outstanding(size_t s) const { return out_[s].size(); }

    size_t
    outstanding() const
    {
        size_t n = 0;
        for (const auto &q : out_)
            n += q.size();
        return n;
    }

    /** Key by the workload's popularity law (Zipf ranks scattered over
     *  the key space by a multiplicative permutation). */
    Key
    nextKey()
    {
        if (!zipf_)
            return 1 + rng_.nextBounded(w_.keys);
        uint64_t rank = zipf_->next(rng_);
        return 1 + (rank * 0x9E3779B1ull) % w_.keys;
    }

    Kind
    nextKind()
    {
        double dice = rng_.nextDouble();
        if (dice < w_.writeFrac)
            return Kind::Write;
        if (dice < w_.writeFrac + w_.casFrac)
            return Kind::Cas;
        return Kind::Read;
    }

    Key nextUniformKey() { return 1 + rng_.nextBounded(w_.keys); }

    /** Issue one op on session @p s; @p due is its scheduled time. */
    void
    issue(size_t s, Kind kind, Key key, uint64_t due)
    {
        KvSessionClient &sess = *rig_.sessions[s];
        Pending p;
        p.op.key = key;
        p.op.shard = slots_.ownerOf(key);
        p.kind = kind;
        p.due = due;
        Value value, expected;
        if (kind != Kind::Read) {
            uint64_t id = nextId_++;
            value = makeValue(id, w_.valueBytes);
            p.op.arg = compact(value, w_.valueBytes);
            if (kind == Kind::Cas) {
                uint64_t seen = lastId_[key];
                expected = seen ? makeValue(seen, w_.valueBytes) : Value{};
                p.op.expected = compact(expected, w_.valueBytes);
            }
            ++writesIssued;
        }
        int64_t span = tracer_.begin(issueId_);
        p.issued = nowNs();
        p.op.invoke = p.issued;
        switch (kind) {
        case Kind::Read:
            p.op.kind = HistOp::Kind::Read;
            p.token = sess.readAsync(key, kOpTimeoutNs);
            break;
        case Kind::Write:
            p.op.kind = HistOp::Kind::Write;
            p.token = sess.writeAsync(key, std::move(value), kOpTimeoutNs);
            break;
        case Kind::Cas:
            p.op.kind = HistOp::Kind::Cas;
            p.token = sess.casAsync(key, std::move(expected),
                                    std::move(value), kOpTimeoutNs);
            break;
        }
        tracer_.end(span);
        ++attempted;
        out_[s].push_back(std::move(p));
    }

    /** Pump every session once and redeem what completed. @return the
     *  number of ops completed (ok or failed). */
    size_t
    pump()
    {
        size_t got = 0;
        for (size_t s = 0; s < out_.size(); ++s) {
            KvSessionClient &sess = *rig_.sessions[s];
            {
                Scope span(tracer_, progressId_);
                sess.progress();
            }
            auto &q = out_[s];
            for (auto it = q.begin(); it != q.end();) {
                const uint64_t t0 = tracer_.on() ? nowNs() : 0;
                auto result = sess.take(it->token);
                if (!result) {
                    if (traceTakeMisses)
                        tracer_.add(takeId_, t0, nowNs(), it->token);
                    ++it;
                    continue;
                }
                const uint64_t done = nowNs();
                tracer_.add(takeId_, t0, done, it->token);
                finish(*it, *result, done);
                ++got;
                it = q.erase(it);
            }
        }
        return got;
    }

    /** Block until some session socket is readable or @p timeout_ns
     *  passes. */
    void
    waitReadable(uint64_t timeout_ns)
    {
        pfds_.clear();
        for (size_t s = 0; s < out_.size(); ++s) {
            if (out_[s].empty())
                continue;
            for (int fd : rig_.sessions[s]->fds())
                pfds_.push_back({fd, POLLIN, 0});
        }
        Scope span(tracer_, pollId_);
        timespec ts{static_cast<time_t>(timeout_ns / 1000000000ull),
                    static_cast<long>(timeout_ns % 1000000000ull)};
        ::ppoll(pfds_.data(), pfds_.size(), &ts, nullptr);
    }

    /** Drive until nothing is outstanding. */
    void
    drain()
    {
        while (outstanding() > 0)
            if (pump() == 0)
                waitReadable(2'000'000);
    }

  private:
    struct Pending
    {
        uint64_t token = 0;
        Kind kind = Kind::Read;
        uint64_t due = 0;
        uint64_t issued = 0;
        HistOp op;
    };

    void
    finish(Pending &p, const KvSessionClient::OpResult &r, uint64_t done)
    {
        const bool ok =
            r.completed && r.status == ClientReplyMsg::Status::Ok;
        if (samples)
            samples->push_back({p.kind, ok, p.due, p.issued, done});
        if (!ok) {
            ++failed;
            if (p.kind == Kind::Read)
                return;
            // A failed write may still have taken effect: record it as
            // pending so the checker may place it anywhere or drop it.
            p.op.response = hermes::app::kPendingResponse;
            ops.push_back(std::move(p.op));
            return;
        }
        p.op.response = done;
        uint64_t id = 0;
        switch (p.kind) {
        case Kind::Read:
            p.op.result = compact(r.value, w_.valueBytes, &id);
            break;
        case Kind::Write:
            std::sscanf(p.op.arg.c_str(), "%" SCNx64, &id);
            break;
        case Kind::Cas:
            p.op.casApplied = r.casApplied;
            p.op.result = compact(r.value, w_.valueBytes, &id);
            if (r.casApplied)
                std::sscanf(p.op.arg.c_str(), "%" SCNx64, &id);
            break;
        }
        if (id)
            lastId_[p.op.key] = id;
        ops.push_back(std::move(p.op));
    }

    Rig &rig_;
    const Workload &w_;
    Rng rng_;
    std::optional<hermes::ZipfianGenerator> zipf_;
    hermes::app::SlotMap slots_;
    std::vector<uint64_t> lastId_; ///< newest value id seen per key
    uint64_t nextId_ = 1;
    std::vector<std::deque<Pending>> out_;
    std::vector<pollfd> pfds_;
    Tracer &tracer_;
    uint32_t issueId_, progressId_, takeId_, pollId_;
};

/** Prefill every key once, pipelined over all sessions. */
void
prefill(Load &load, const Workload &w)
{
    Key next = 1;
    while (next <= w.keys || load.outstanding() > 0) {
        for (size_t s = 0; s < load.sessions(); ++s)
            while (next <= w.keys && load.outstanding(s) < kPrefillDepth)
                load.issue(s, Kind::Write, next++, nowNs());
        if (load.pump() == 0)
            load.waitReadable(2'000'000);
    }
}

/** Per-chunk figures of a closed-loop phase. */
struct ClosedRun
{
    double wallS = 0;
    std::vector<double> opsPerS;  ///< ops completed OK per s, per chunk
    std::vector<double> cpuUsPerOp; ///< process CPU per op, per chunk
};

/** Process user+sys CPU so far, ns. */
uint64_t
processCpuNs()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return tvNs(ru.ru_utime) + tvNs(ru.ru_stime);
}

/**
 * Closed loop: @p ops ops at the workload's in-flight count, measured in
 * @p chunks equal slices without draining between them, so a transient
 * stall (a descheduled vCPU) spoils one slice rather than the figure:
 * callers report interquartileMean() of the slices.
 */
ClosedRun
closedLoop(Load &load, const Workload &w, uint64_t ops, size_t chunks = 1)
{
    const size_t depth = std::max<size_t>(1, w.inflight / load.sessions());
    ClosedRun out;
    uint64_t issued = 0, done = 0;
    size_t chunk = 0;
    const uint64_t t0 = nowNs();
    uint64_t chunk_t = t0, chunk_cpu = processCpuNs(), chunk_done = 0;
    uint64_t chunk_failed = load.failed;
    while (done < ops) {
        for (size_t s = 0; s < load.sessions(); ++s)
            while (issued < ops && load.outstanding(s) < depth) {
                load.issue(s, load.nextKind(), load.nextKey(), nowNs());
                ++issued;
            }
        size_t got = load.pump();
        done += got;
        if (got == 0)
            load.waitReadable(2'000'000);
        while (chunk < chunks && done >= ops * (chunk + 1) / chunks) {
            const uint64_t t = nowNs(), cpu = processCpuNs();
            const double n = static_cast<double>(done - chunk_done);
            const double ok = n - static_cast<double>(load.failed
                                                      - chunk_failed);
            out.opsPerS.push_back(ok / ((t - chunk_t) / 1e9));
            out.cpuUsPerOp.push_back((cpu - chunk_cpu) / 1e3 / n);
            chunk_t = t;
            chunk_cpu = cpu;
            chunk_done = done;
            chunk_failed = load.failed;
            ++chunk;
        }
    }
    out.wallS = static_cast<double>(nowNs() - t0) / 1e9;
    return out;
}

/**
 * Open loop: @p ops ops due at a fixed @p rate, round-robin over the
 * sessions; completions land in load.samples. At most @p cap ops are in
 * flight: a stall then delays later sends (charged to them, since
 * latency counts from the due time, and shown as generator lag) instead
 * of piling unbounded concurrency onto the hot keys, which the lin
 * checker's state space is exponential in. With @p spin the bench polls
 * its sessions instead of sleeping between due times, so neither a send
 * nor a reply waits for its CPU to wake.
 */
void
openLoop(Load &load, uint64_t ops, double rate, size_t cap, bool spin)
{
    const uint64_t t0 = nowNs() + 1'000'000;
    uint64_t i = 0;
    while (i < ops || load.outstanding() > 0) {
        const uint64_t now = nowNs();
        while (i < ops && dueTimeNs(t0, i, rate) <= now
               && load.outstanding() < cap) {
            load.issue(i % load.sessions(), load.nextKind(), load.nextKey(),
                       dueTimeNs(t0, i, rate));
            ++i;
        }
        if (load.pump() > 0)
            continue;
        const uint64_t now2 = nowNs();
        uint64_t wait = 2'000'000;
        if (i < ops && load.outstanding() < cap) {
            const uint64_t due = dueTimeNs(t0, i, rate);
            wait = due > now2 ? std::min(wait, due - now2) : 0;
        }
        if (wait > 0 && !spin)
            load.waitReadable(wait);
    }
}

// ---- Result assembly ------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Latency percentile in µs over the @p samples of one kind (CAS counts
 *  as a write) due in [@p lo, @p hi); failed ops count as missing every
 *  limit (+inf). */
std::optional<double>
latencyUs(const std::vector<Sample> &samples, bool writes, double p,
          size_t *n_out, uint64_t lo = 0, uint64_t hi = UINT64_MAX)
{
    std::vector<double> lat;
    for (const Sample &s : samples) {
        if ((s.kind != Kind::Read) != writes || s.due < lo || s.due >= hi)
            continue;
        lat.push_back(s.ok ? openLoopLatencyNs(s.due, s.done) / 1e3
                           : HUGE_VAL);
    }
    *n_out = lat.size();
    return percentile(std::move(lat), p);
}

/** The latency p50 of each of kChunks equal due-time slices of one
 *  deployment's open loop; nullopt if a slice is too thin for a p50. */
std::optional<std::vector<double>>
sliceP50sUs(const std::vector<Sample> &samples, bool writes)
{
    uint64_t lo = UINT64_MAX, hi = 0;
    for (const Sample &s : samples) {
        lo = std::min(lo, s.due);
        hi = std::max(hi, s.due + 1);
    }
    std::vector<double> p50s;
    for (size_t c = 0; c < kChunks && lo < hi; ++c) {
        size_t n = 0;
        auto p50 = latencyUs(samples, writes, 0.5, &n,
                             lo + (hi - lo) * c / kChunks,
                             lo + (hi - lo) * (c + 1) / kChunks);
        if (!p50)
            return std::nullopt;
        p50s.push_back(*p50);
    }
    if (p50s.empty())
        return std::nullopt;
    return p50s;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

const char *
fsTypeName(const std::string &path)
{
    struct statfs sf{};
    if (statfs(path.c_str(), &sf) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(sf.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: return "other";
    }
}

/** Time @p fn over @p batches batches of @p per calls as spans named
 *  @p name. @return median ns per call. */
template <typename F>
double
timeBatches(Tracer &tracer, const char *name, int batches, uint32_t per,
            F &&fn)
{
    const uint32_t id = tracer.nameId(name);
    std::vector<double> per_call;
    for (int b = 0; b < batches; ++b) {
        const uint64_t t0 = nowNs();
        for (uint32_t i = 0; i < per; ++i)
            fn(i);
        const uint64_t t1 = nowNs();
        tracer.add(id, t0, t1, 0, per);
        per_call.push_back(static_cast<double>(t1 - t0) / per);
    }
    return median(std::move(per_call));
}

volatile uint64_t g_sink; // keeps timed results observable

/** Standalone per-layer timings at the workload's key count and value
 *  size: codec, KVS, WAL (same filesystem as the run), routing. */
void
microTimings(Tracer &tracer, const Workload &w, uint64_t seed,
             const std::string &dir, std::vector<Metric> &m)
{
    using namespace hermes;
    Rng rng(seed ^ 0xC0DECull);
    const Value value = makeValue(7, w.valueBytes);

    net::registerClientCodecs();
    proto::registerHermesCodecs();
    net::ClientRequestMsg req;
    req.op = net::ClientRequestMsg::Op::Write;
    req.reqId = 42;
    req.key = 12345;
    req.numShards = static_cast<uint32_t>(w.shards);
    req.value = value;
    net::ClientReplyMsg reply;
    reply.reqId = 42;
    reply.mapShards = static_cast<uint32_t>(w.shards);
    reply.value = value;
    proto::InvMsg inv;
    inv.key = 12345;
    inv.ts = Timestamp{3, 1};
    inv.value = value;
    proto::AckMsg ack;
    ack.key = 12345;
    ack.ts = Timestamp{3, 1};
    proto::ValMsg val;
    val.key = 12345;
    val.ts = Timestamp{3, 1};
    const std::pair<const char *, const net::Message *> msgs[] = {
        {"client_req", &req}, {"client_reply", &reply}, {"inv", &inv},
        {"ack", &ack},        {"val", &val},
    };
    for (const auto &[label, msg] : msgs) {
        std::vector<uint8_t> buf;
        const std::string enc = std::string("encode.") + label;
        m.push_back({"net.encode_ns." + std::string(label),
                     timeBatches(tracer, enc.c_str(), 50, 1000,
                                 [&](uint32_t) {
                                     buf.clear();
                                     net::encodeMessage(*msg, buf);
                                     g_sink = buf.size();
                                 }),
                     "ns"});
        const std::string dec = std::string("decode.") + label;
        m.push_back({"net.decode_ns." + std::string(label),
                     timeBatches(tracer, dec.c_str(), 50, 1000,
                                 [&](uint32_t) {
                                     auto out = net::decodeMessage(
                                         buf.data(), buf.size());
                                     if (!out)
                                         die(std::string("decode of ")
                                             + label + " failed");
                                     g_sink = out->wireSize();
                                 }),
                     "ns"});
    }

    // One shard replica's store, populated like the run's.
    const size_t keys = w.keys / w.shards;
    store::KvStore kv(keys, w.valueBytes);
    for (Key k = 1; k <= keys; ++k)
        kv.withKey(k, [&](store::KeyRecord &rec) { rec.setValue(value); });
    std::vector<Key> probe(1000);
    for (Key &k : probe)
        k = 1 + rng.nextBounded(keys);
    m.push_back({"store.kvs_read_ns",
                 timeBatches(tracer, "kvs.read", 200, 1000,
                             [&](uint32_t i) {
                                 g_sink = kv.read(probe[i]).value.size();
                             }),
                 "ns"});
    m.push_back({"store.kvs_write_ns",
                 timeBatches(tracer, "kvs.withKey", 200, 1000,
                             [&](uint32_t i) {
                                 kv.withKey(probe[i],
                                            [&](store::KeyRecord &rec) {
                                                rec.meta().ts.version++;
                                                rec.setValue(value);
                                            });
                             }),
                 "ns"});

    // WAL append + group flush on the run directory's filesystem, 16
    // records per flush window.
    {
        const std::string path = dir + "/micro.wal";
        std::filesystem::remove(path);
        store::WalConfig config;
        config.path = path;
        config.fsync = kWalPolicy;
        store::Wal wal(config);
        const ValueRef ref(value);
        const uint32_t append_id = tracer.nameId("wal.append");
        const uint32_t flush_id = tracer.nameId("wal.flush");
        std::vector<double> append_ns, flush_us;
        for (int round = 0; round < 200; ++round) {
            const uint64_t t0 = nowNs();
            for (uint32_t i = 0; i < 16; ++i)
                wal.append(1 + i, Timestamp{static_cast<uint32_t>(round + 1),
                                            0},
                           0, ref);
            const uint64_t t1 = nowNs();
            wal.flush();
            const uint64_t t2 = nowNs();
            tracer.add(append_id, t0, t1, 0, 16);
            tracer.add(flush_id, t1, t2);
            append_ns.push_back((t1 - t0) / 16.0);
            flush_us.push_back((t2 - t1) / 1e3);
        }
        m.push_back({"wal.append_ns", median(append_ns), "ns"});
        m.push_back({"wal.flush_us", median(flush_us), "us"});
        std::filesystem::remove(path);
    }

    const app::SlotMap map =
        app::SlotMap::uniform(static_cast<uint32_t>(w.shards));
    std::vector<Key> route_keys(1000);
    for (Key &k : route_keys)
        k = rng.next();
    m.push_back({"app.route_ns",
                 timeBatches(tracer, "slotmap.ownerOf", 200, 1000,
                             [&](uint32_t i) {
                                 g_sink = map.ownerOf(route_keys[i]);
                             }),
                 "ns"});
}

/** Median self time (ns) of spans named @p name in [@p lo, @p hi). */
double
medianSelfNs(const Tracer &tracer, const std::vector<uint64_t> &self,
             const std::string &name, size_t lo, size_t hi)
{
    std::vector<double> v;
    const auto &spans = tracer.spans();
    for (size_t i = lo; i < hi; ++i)
        if (tracer.name(spans[i].name) == name)
            v.push_back(static_cast<double>(self[i]));
    return percentile(std::move(v), 0.5).value_or(0.0);
}

/** Sum of durations (ns) of spans named @p name in [@p lo, @p hi). */
double
sumNs(const Tracer &tracer, const std::string &name, size_t lo, size_t hi)
{
    double sum = 0;
    const auto &spans = tracer.spans();
    for (size_t i = lo; i < hi; ++i)
        if (tracer.name(spans[i].name) == name)
            sum += static_cast<double>(spans[i].duration());
    return sum;
}

LayerCounts
readLayerCounts(hermes::app::ShardedTcpDeployment &dep, const Load &load,
                uint64_t tails_before)
{
    LayerCounts c;
    for (uint32_t s = 0; s < dep.numShards(); ++s) {
        auto &group = dep.shard(s);
        c.readsByReplica.emplace_back();
        for (hermes::NodeId r = 0; r < group.numNodes(); ++r) {
            auto &replica = group.replica(r);
            const auto &h = replica.hermes()->stats();
            c.readsByReplica.back().push_back(h.readsCompleted);
            c.readsStalled += h.readsStalled;
            c.writesIssued += h.writesIssued;
            c.writesCommitted += h.writesCommitted;
            c.rmwsIssued += h.rmwsIssued;
            c.rmwsCommitted += h.rmwsCommitted;
            c.rmwsAborted += h.rmwsAborted;
            c.invRetransmits += h.invRetransmits;
            c.valsSkipped += h.valsSkipped;
            if (auto *b = replica.batcher()) {
                c.batchStaged += b->stats().staged;
                c.batchesFlushed += b->stats().batchesFlushed;
                c.messagesBatched += b->stats().messagesBatched;
            }
            if (auto *wal = replica.wal()) {
                c.walAppends += wal->stats().appends;
                c.walBytes += wal->stats().bytesAppended;
                c.walFlushes += wal->stats().flushes;
                c.walFsyncs += wal->stats().fsyncs;
            }
        }
    }
    c.sessionPauses = hermes::net::TcpCluster::sessionPauses();
    c.partialWriteTails =
        hermes::net::TcpCluster::partialWriteTails() - tails_before;
    c.clientOps = load.attempted;
    c.clientWrites = load.writesIssued;
    return c;
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
}

/** What one measured deployment produced. */
struct RepResult
{
    double setupS = 0;
    ClosedRun closed;
    std::optional<CpuDelta> cpu;
    ClosedRun traced; ///< traced closed loop (--trace 1 only)
    std::vector<Sample> open;
    size_t spansClosedLo = 0, spansClosedHi = 0;
    size_t spansProbeLo = 0, spansProbeHi = 0;
    LayerCounts counts;
    uint64_t attempted = 0, failed = 0;
    History history;
};

/**
 * Set up deployment number @p rep (timed), warm it up, run its share of
 * the run's ops (@p closed_ops closed-loop, @p open_ops open-loop, plus
 * the traced phases in a traced run), stop it and read its stats.
 */
RepResult
measureDeployment(const Workload &w, const Options &opt, Tracer &tracer,
                  size_t rep, uint64_t closed_ops, uint64_t open_ops,
                  const std::string &run_dir)
{
    const bool tracing = opt.trace;
    RepResult out;
    hermes::net::TcpCluster::resetSessionStats();
    const uint64_t tails_before =
        hermes::net::TcpCluster::partialWriteTails();
    const uint64_t t0 = nowNs();
    Rig rig(w, static_cast<uint16_t>(kBasePort + rep * 32),
            w.wal ? run_dir + "/wal" + std::to_string(rep) : "");
    Load load(rig, w, opt.seed, tracer);
    prefill(load, w);
    out.setupS = static_cast<double>(nowNs() - t0) / 1e9;

    // Warm-up (recorded, not timed), then the untraced closed loop.
    closedLoop(load, w, closed_ops / 10);
    const CpuSnap c0 = CpuSnap::take();
    out.closed = closedLoop(load, w, closed_ops, kChunks);
    out.cpu.emplace(c0, CpuSnap::take());

    if (tracing) {
        // The traced closed loop is shorter: its spans are all kept in
        // memory and written out. ~2 spans per op plus one per pump; the
        // probe's ops are deeper.
        const uint64_t traced_ops = closed_ops / 4;
        tracer.reserve(traced_ops * 4 + kProbeOps * 64);
        tracer.enable(true);
        out.spansClosedLo = tracer.spans().size();
        out.traced = closedLoop(load, w, traced_ops, kChunks);
        out.spansClosedHi = tracer.spans().size();
    }
    // The open loop is never traced: its latencies are end-to-end
    // figures in both modes.
    tracer.enable(false);
    const bool packed = rig.packLoops();
    load.samples = &out.open;
    openLoop(load, open_ops, w.openRate, w.inflight, packed);
    load.samples = nullptr;
    tracer.enable(tracing);

    if (tracing) {
        // Depth-1 probe on session 0: each op's root span holds its
        // issue, progress, take and poll spans.
        out.spansProbeLo = tracer.spans().size();
        load.traceTakeMisses = true;
        const uint32_t op_id = tracer.nameId("op");
        for (size_t j = 0; j < kProbeOps; ++j) {
            const int64_t root = tracer.begin(op_id, j);
            const Kind kind = j % 2 ? Kind::Write : Kind::Read;
            load.issue(0, kind, load.nextUniformKey(), nowNs());
            load.drain();
            tracer.end(root);
        }
        load.traceTakeMisses = false;
        out.spansProbeHi = tracer.spans().size();
    }

    rig.sessions.clear();
    rig.deployment->stop();
    out.counts = readLayerCounts(*rig.deployment, load, tails_before);
    out.attempted = load.attempted;
    out.failed = load.failed;
    while (!load.ops.empty()) {
        out.history.add(std::move(load.ops.front()));
        load.ops.pop_front();
    }
    return out;
}

int
run(const Options &opt)
{
    const Workload &w = *opt.workload;
    // Spans are recorded only in the traced phases of a --trace 1 run:
    // the traced closed loop, the probe, the standalone timings and the
    // lin check.
    const bool tracing = opt.trace;
    Tracer tracer(false);
    std::filesystem::create_directories(opt.out);
    const std::string run_dir =
        opt.out + "/run-" + std::to_string(getpid());
    std::filesystem::remove_all(run_dir);
    std::filesystem::create_directories(run_dir);
    const std::string wal_fs = fsTypeName(run_dir);
    // Sleep precision for the open-loop generator: the default 50 µs
    // timer slack would show up as generator lag.
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

    // The run's op counts are fixed, so both commits do the same work.
    // An untraced run spreads them over kSetupReps fresh deployments:
    // setup_s is the median set-up, and the measured slices pool over
    // deployments, so one unlucky placement of loop threads on cores
    // does not set the figure. The traced run measures one deployment.
    const size_t reps = tracing ? 1 : kSetupReps;
    const uint64_t closed_ops =
        static_cast<uint64_t>(w.closedOpsPerSec * opt.seconds / 2) / reps;
    const uint64_t open_ops =
        static_cast<uint64_t>(w.openRate * opt.seconds / 2) / reps;
    std::vector<RepResult> results;
    for (size_t rep = 0; rep < reps; ++rep)
        results.push_back(measureDeployment(w, opt, tracer, rep, closed_ops,
                                            open_ops, run_dir));
    const double rss_mb = peakRssMb();

    const uint32_t lin_id = tracer.nameId("lincheck");
    const uint64_t l0 = nowNs();
    bool lin_ok = true;
    size_t history_ops = 0;
    for (RepResult &r : results) {
        const hermes::app::LinReport lin = hermes::app::checkShardedHistory(
            r.history, kLinStateBudget, hermes::app::LinMode::Jit);
        history_ops += r.history.size();
        r.history.clear();
        if (lin.ok())
            continue;
        lin_ok = false;
        std::fprintf(stderr,
                     "hkv_bench: LIN CHECK %s on key %" PRIu64 ": %s\n",
                     lin.result == hermes::app::LinResult::Violation
                         ? "VIOLATION"
                         : "INCONCLUSIVE",
                     lin.offendingKey, lin.detail.c_str());
    }
    const uint64_t l1 = nowNs();
    tracer.add(lin_id, l0, l1);

    std::vector<double> setup_s, ops_slices, cpu_slices, r50s, w50s;
    std::vector<Sample> open;
    uint64_t attempted = 0, failed = 0;
    for (const RepResult &r : results) {
        setup_s.push_back(r.setupS);
        ops_slices.insert(ops_slices.end(), r.closed.opsPerS.begin(),
                          r.closed.opsPerS.end());
        cpu_slices.insert(cpu_slices.end(), r.closed.cpuUsPerOp.begin(),
                          r.closed.cpuUsPerOp.end());
        auto r50 = sliceP50sUs(r.open, false);
        auto w50 = sliceP50sUs(r.open, true);
        if (!r50 || !w50)
            die("too few open-loop samples in a slice for a p50; "
                "raise --seconds");
        r50s.insert(r50s.end(), r50->begin(), r50->end());
        w50s.insert(w50s.end(), w50->begin(), w50->end());
        open.insert(open.end(), r.open.begin(), r.open.end());
        attempted += r.attempted;
        failed += r.failed;
    }
    const double ops_s = interquartileMean(ops_slices);

    std::printf("# workload %s seed %" PRIu64 " seconds %g trace %d\n",
                w.name, opt.seed, opt.seconds, opt.trace ? 1 : 0);
    std::printf("# stamp-bench {\"compiler\": \"%s\", \"build_type\": "
                "\"%s\", \"wal_fs\": \"%s\", \"history_ops\": %zu, "
                "\"lin\": \"%s\"}\n",
                __VERSION__, PERFBENCH_BUILD_TYPE, wal_fs.c_str(),
                history_ops, lin_ok ? "ok" : "FAILED");

    size_t n_read, n_write;
    const auto r99 = latencyUs(open, false, 0.99, &n_read);
    const auto w99 = latencyUs(open, true, 0.99, &n_write);
    if (!r99 || !w99)
        die("too few open-loop samples for a p99");
    std::printf("# open loop at %g ops/s over %zu deployment(s): read "
                "n=%zu p99 %.1f us; write n=%zu p99 %.1f us\n",
                w.openRate, reps, n_read, *r99, n_write, *w99);
    std::printf("# closed loop: %zu x %" PRIu64 " ops, slices (ops/s):",
                reps, closed_ops);
    for (double x : ops_slices)
        std::printf(" %.0f", x);
    std::printf("\n# open loop, slice p50s (us), reads:");
    for (double x : r50s)
        std::printf(" %.1f", x);
    std::printf("\n# open loop, slice p50s (us), writes:");
    for (double x : w50s)
        std::printf(" %.1f", x);
    std::printf("\n# set-ups (s):");
    for (double x : setup_s)
        std::printf(" %.3f", x);
    std::printf("\n# failed_frac %.6g (%" PRIu64 " of %" PRIu64 ")\n",
                ratio(failed, attempted), failed, attempted);

    std::vector<Metric> m;
    if (!tracing) {
        m.push_back({"setup_s", median(setup_s), "s"});
        m.push_back({"ops_s", ops_s, "1/s"});
        m.push_back({"read_p50_us", interquartileMean(r50s), "us"});
        m.push_back({"write_p50_us", interquartileMean(w50s), "us"});
        m.push_back({"cpu_us_per_op", interquartileMean(cpu_slices),
                     "us"});
        m.push_back({"peak_rss_mb", rss_mb, "MB"});
    } else {
        const RepResult &r = results.front();
        const CpuDelta &cpu = *r.cpu;
        // The p99s repeat too poorly between runs to gate (descheduled
        // vCPUs set them), so they are reported here, ungated, with
        // their sample counts.
        m.push_back({"read_p99_us", *r99, "us"});
        m.push_back({"write_p99_us", *w99, "us"});
        m.push_back({"open.read_samples", static_cast<double>(n_read),
                     "count"});
        m.push_back({"open.write_samples", static_cast<double>(n_write),
                     "count"});
        microTimings(tracer, w, opt.seed, run_dir, m);
        const std::vector<uint64_t> self = selfTimes(tracer.spans());
        m.push_back({"client.issue_ns_p50",
                     medianSelfNs(tracer, self, "issue", r.spansClosedLo,
                                  r.spansClosedHi),
                     "ns"});
        m.push_back({"client.progress_ns_p50",
                     medianSelfNs(tracer, self, "progress",
                                  r.spansClosedLo, r.spansClosedHi),
                     "ns"});
        m.push_back({"client.poll_wait_frac",
                     ratio(sumNs(tracer, "poll", r.spansClosedLo,
                                 r.spansClosedHi),
                           r.traced.wallS * 1e9),
                     "frac"});
        m.push_back({"client.cpu_us_per_op",
                     cpu.benchNs() / 1e3 / closed_ops, "us"});
        std::vector<double> lag;
        for (const Sample &s : open)
            lag.push_back(generatorLagNs(s.due, s.issued) / 1e3);
        m.push_back({"client.gen_lag_p50_us",
                     percentile(lag, 0.5).value_or(0), "us"});
        m.push_back({"client.gen_lag_p99_us",
                     percentile(lag, 0.99).value_or(0), "us"});

        m.push_back({"server.cpu_us_per_op",
                     cpu.serverNs() / 1e3 / closed_ops, "us"});
        m.push_back({"server.sys_frac",
                     ratio(cpu.serverSysNs(), cpu.serverNs()), "frac"});
        m.push_back({"server.loop_busy_max", cpu.loopBusyMax, "frac"});
        m.push_back({"server.loop_busy_mean", cpu.loopBusyMean, "frac"});
        m.push_back({"proc.ctx_switches_per_op",
                     cpu.ctxSwitches / closed_ops, "1/op"});

        const std::map<std::string, std::string> units = {
            {"hermes.read_share_max", "frac"},
            {"hermes.read_stall_frac", "frac"},
            {"hermes.rmw_abort_ratio", "frac"},
            {"hermes.inv_retransmits_per_kwrite", "1/kwrite"},
            {"hermes.val_skip_frac", "frac"},
            {"net.msgs_per_batch", "msgs/batch"},
            {"net.batched_frac", "frac"},
            {"net.session_pauses_per_kop", "1/kop"},
            {"net.partial_write_tails", "count"},
            {"wal.appends_per_flush", "appends/flush"},
            {"wal.bytes_per_write", "B/write"},
            {"wal.fsyncs_per_kop", "1/kop"},
        };
        for (const auto &[name, value] : layerRatios(r.counts))
            m.push_back({name, value, units.at(name)});

        // Probe: RTT, and the client's own share of it (self time of the
        // issue/progress/take spans under each op's root span).
        std::vector<double> rtt_r, rtt_w, client_self, server_r, server_w;
        const auto &spans = tracer.spans();
        std::map<int64_t, double> self_by_root;
        for (size_t i = r.spansProbeLo; i < r.spansProbeHi; ++i) {
            const std::string &n = tracer.name(spans[i].name);
            if (n == "issue" || n == "progress" || n == "take")
                self_by_root[spans[i].parent] +=
                    static_cast<double>(self[i]);
        }
        size_t op_idx = 0;
        for (size_t i = r.spansProbeLo; i < r.spansProbeHi; ++i) {
            if (tracer.name(spans[i].name) != "op")
                continue;
            const double rtt = spans[i].duration() / 1e3;
            const double mine =
                self_by_root[static_cast<int64_t>(i)] / 1e3;
            client_self.push_back(mine);
            (op_idx % 2 ? rtt_w : rtt_r).push_back(rtt);
            (op_idx % 2 ? server_w : server_r).push_back(rtt - mine);
            ++op_idx;
        }
        m.push_back({"probe.read_rtt_us", median(rtt_r), "us"});
        m.push_back({"probe.write_rtt_us", median(rtt_w), "us"});
        m.push_back({"probe.client_self_us", median(client_self), "us"});
        m.push_back({"probe.server_us_read", median(server_r), "us"});
        m.push_back({"probe.server_us_write", median(server_w), "us"});

        m.push_back({"app.lincheck_s", (l1 - l0) / 1e9, "s"});
        m.push_back({"trace.overhead_frac",
                     1.0 - interquartileMean(r.traced.opsPerS) / ops_s,
                     "frac"});

        const std::string spans_path =
            opt.out + "/spans-" + w.name + ".csv";
        if (!tracer.writeCsv(spans_path))
            die("cannot write " + spans_path);
        std::printf("# spans: %zu written to %s\n", tracer.spans().size(),
                    spans_path.c_str());
    }
    std::filesystem::remove_all(run_dir);

    for (const Metric &x : m)
        std::printf("# %-36s %14.6g %s\n", x.name.c_str(), x.value,
                    x.unit.c_str());
    printResult(lin_ok, attempted, failed, m);
    return lin_ok ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(perfbench::parseArgs(argc, argv));
}
