/**
 * @file
 * Per-shard write-ahead log with crash-restart recovery.
 *
 * Hermes in the paper is in-memory; production isn't. Every value a
 * replica applies (coordinator issue, follower INV adoption, state-chunk
 * catch-up — and the analogous apply points of the baselines) is appended
 * here before the acknowledgement that makes it visible can leave the
 * node, following the replicate-and-persist-before-replying contract.
 *
 * On-disk format, frozen by the golden-bytes test (explicit
 * little-endian, same discipline as the wire format in
 * common/serialize.hh). The file opens with an 8-byte header:
 *
 *     offset  size  field
 *     0       u32   magic "HWAL" (0x4C415748 when loaded LE)
 *     4       u32   format version (kFormatVersion)
 *
 * followed by records:
 *
 *     offset  size  field
 *     0       u32   payload length (= 29 + value length)
 *     4       u32   CRC32 (IEEE 802.3, reflected) of the payload bytes
 *     8       u32   shard id                   ─┐
 *     12      u64   key                         │
 *     20      u32   timestamp.version           │
 *     24      u32   timestamp.cid               │ payload
 *     28      u8    flags (bit 0: RMW)          │
 *     29      u32   slot-map epoch at append    │
 *     33      u32   value length                │
 *     37      ...   value bytes                ─┘
 *
 * Versioning: the record payload grew from 25 to 29 bytes when the
 * slot-map epoch stamp landed (format version 2) — a version-1 scanner
 * would misparse every v2 record at the value_len check and discard the
 * whole log as a torn tail. The header makes that impossible: a log
 * written by a DIFFERENT format version is refused loudly (panic) rather
 * than silently truncated, and a headerless v1 log (the only released
 * earlier format) is recognized by its missing magic, decoded with the
 * v1 layout, and rewritten in the current format at open — pre-upgrade
 * durable data survives the upgrade instead of vanishing on restart.
 *
 * The slot-map epoch stamp is what makes recovery elastic-sharding
 * aware: a record appended before a migration cutover may describe a
 * key whose slot has since moved to another shard, and replaying it
 * here would resurrect ownership the map took away. Recovery filters
 * records against the *current* map (see ReplicaHandle::replayWal);
 * the epoch tag records which generation wrote each record.
 *
 * Appends stage into a scatter/gather WireFrame (values above
 * kZeroCopyThreshold ride as ValueRef segments — no copy between the KVS
 * and the disk queue) and group-commit at the same poll-boundary flush
 * the message batcher uses. The fsync policy spans the classic spectrum:
 *
 *  - Never: write() at flush, no fsync — the OS decides when bytes hit
 *    disk. Survives process crashes, not power loss.
 *  - Group: one fsync per poll-boundary flush window (default) — every
 *    record is durable before the reply riding the same flush leaves.
 *  - Every: write+fsync inside append() itself, before the protocol
 *    message that announces the write is even staged.
 *
 * Recovery: scan() walks the log from the start and stops at the first
 * record that is truncated, length-corrupt or CRC-failing — the torn
 * tail a crash mid-write leaves behind is discarded, never replayed and
 * never fatal. Surviving records replay into the KVS (as Invalid: a
 * logged write was not necessarily committed, so it must heal through
 * the protocol's replay/state-transfer path before serving reads).
 */

#ifndef HERMES_STORE_WAL_HH
#define HERMES_STORE_WAL_HH

#include <sys/uio.h>

#include <array>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/serialize.hh"
#include "common/timestamp.hh"
#include "common/types.hh"
#include "common/value_ref.hh"
#include "store/crc32.hh"

namespace hermes::store
{

/** When (not whether) appended records reach the platters. */
enum class FsyncPolicy : uint8_t
{
    Never, ///< write at flush, never fsync
    Group, ///< one fsync per poll-boundary flush window
    Every, ///< write + fsync inside every append
};

const char *toString(FsyncPolicy policy);

struct WalConfig
{
    /** Log file path. Construction requires a non-empty path. */
    std::string path;
    FsyncPolicy fsync = FsyncPolicy::Group;
    /** Shard id stamped into every record (recovery sanity filter). */
    uint32_t shard = 0;
    /**
     * Cost-model charges, forwarded through the charge hook when one is
     * set (the sim wires these to Env::chargeCpu; the TCP transport
     * leaves them unset and pays the real syscalls instead). Zero =
     * uncharged, so default sim histories stay byte-identical.
     */
    double appendPerByteNs = 0.0;
    DurationNs fsyncNs = 0;
};

struct WalStats
{
    uint64_t appends = 0;
    uint64_t bytesAppended = 0; ///< wire bytes queued (header + payload)
    uint64_t flushes = 0;       ///< flush() calls that wrote something
    uint64_t fsyncs = 0;
    uint64_t recordsRecovered = 0;
    uint64_t tornBytesDiscarded = 0;
};

/** One decoded log record, as recovery replays it. */
struct WalRecord
{
    uint32_t shard = 0;
    Key key = 0;
    Timestamp ts{};
    uint8_t flags = 0;
    /** Slot-map epoch the replica served under when this was appended. */
    uint32_t mapEpoch = 0;
    Value value;
};

/**
 * Striped per-key mutexes guarding the recovery-replay-vs-live-write
 * race (the zetascale key-lock pattern): while a restarted replica is
 * replaying its log, an incoming INV for the same key must not interleave
 * with the replay's read-compare-apply. The store takes these around
 * withKey() only while a recovery is in progress (a single pointer check
 * otherwise), so the steady-state write path pays nothing.
 */
class KeyLockTable
{
  public:
    std::unique_lock<std::mutex>
    lock(Key key)
    {
        return std::unique_lock<std::mutex>(
            stripes_[mix64(key) & (kStripes - 1)]);
    }

  private:
    static constexpr size_t kStripes = 256;
    std::array<std::mutex, kStripes> stripes_;
};

/**
 * The per-replica write-ahead log. Single-writer: every call (append,
 * flush) must come from the replica's event-loop/job context, exactly
 * like the KVS write path it shadows.
 */
class Wal
{
  public:
    /** File-header magic, "HWAL" loaded little-endian. */
    static constexpr uint32_t kFileMagic = 0x4C415748u;
    /** On-disk format version this build writes (and reads natively). */
    static constexpr uint32_t kFormatVersion = 2;
    /** File header size: magic word + format-version word. */
    static constexpr size_t kFileHeaderBytes = 8;
    /** Fixed payload bytes before the value (shard..valueLen fields). */
    static constexpr size_t kPayloadHeaderBytes = 29;
    /** Record framing overhead (length prefix + CRC word). */
    static constexpr size_t kFrameHeaderBytes = 8;

    /**
     * Open (creating if absent) the log at config.path, scan it for
     * surviving records — available via recovered() until
     * clearRecovered() — and truncate any torn tail so new appends
     * start from the clean prefix.
     */
    explicit Wal(WalConfig config);
    ~Wal();

    Wal(const Wal &) = delete;
    Wal &operator=(const Wal &) = delete;

    /** Queue one record; under FsyncPolicy::Every, also write+fsync it. */
    void append(Key key, Timestamp ts, uint8_t flags, const ValueRef &value);

    /**
     * Group commit: write every queued record in one gathered writev and
     * fsync per policy. Wired to the Env's poll-boundary flush hook, so
     * records persist before the replies staged in the same window leave.
     */
    void flush();

    /** Cost-model charge hook (sim: Env::chargeCpu). */
    void setChargeFn(std::function<void(DurationNs)> fn);

    /**
     * Slot-map epoch stamped into subsequent records. Updated from the
     * replica's own loop/job context at migration cutover, same
     * single-writer discipline as append().
     */
    void setMapEpoch(uint32_t epoch) { mapEpoch_ = epoch; }
    uint32_t mapEpoch() const { return mapEpoch_; }

    const WalStats &stats() const { return stats_; }
    const WalConfig &config() const { return config_; }

    /** Records recovered by the open-time scan, in append order. */
    const std::vector<WalRecord> &recovered() const { return recovered_; }

    /** Drop the recovered records once replayed (frees their values). */
    void clearRecovered();

    /** Bytes queued and not yet written (group-commit backlog). */
    size_t pendingBytes() const { return frame_.size(); }

    struct ScanResult
    {
        std::vector<WalRecord> records;
        size_t cleanBytes = 0; ///< prefix ending at the last good record
        size_t tornBytes = 0;  ///< discarded tail (0 for a clean log)
        /** Format the log was written in: kFormatVersion for a current
         *  (or missing/empty) log, 1 for a headerless legacy log whose
         *  records were decoded with the v1 layout. The constructor
         *  rewrites a version-1 log in the current format. */
        uint32_t formatVersion = kFormatVersion;
    };

    /**
     * Decode every intact record of the log at @p path, stopping at the
     * first truncated, length-corrupt or CRC-failing one. A missing file
     * scans as empty — a replica's first boot has no log. Torn tails
     * (including a file cut inside the header) are data, not bugs: they
     * are discarded, never thrown on. A file whose header announces a
     * DIFFERENT format version, or that matches no known format at all,
     * is an operator error and panics loudly — silently treating a
     * format mismatch as a torn tail would discard the entire log.
     */
    static ScanResult scan(const std::string &path);

  private:
    /** Frame one record into the group-commit queue. */
    void encodeRecord(uint32_t shard, Key key, Timestamp ts, uint8_t flags,
                      uint32_t map_epoch, const ValueRef &value);
    void writeFileHeader();
    void writeQueued();
    void fsyncNow();

    WalConfig config_;
    uint32_t mapEpoch_ = 1;
    int fd_ = -1;
    WireFrame frame_; ///< group-commit queue (staging + value segments)
    std::vector<iovec> iov_; ///< writeQueued's gather list, reused
    std::function<void(DurationNs)> chargeFn_;
    std::vector<WalRecord> recovered_;
    WalStats stats_;
};

} // namespace hermes::store

#endif // HERMES_STORE_WAL_HH
