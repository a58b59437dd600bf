#include "store/wal.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/logging.hh"

namespace hermes::store
{

const char *
toString(FsyncPolicy policy)
{
    switch (policy) {
      case FsyncPolicy::Never: return "never";
      case FsyncPolicy::Group: return "group";
      case FsyncPolicy::Every: return "every";
    }
    return "?";
}

// ---------------------------------------------------------------------
// Wal
// ---------------------------------------------------------------------

Wal::Wal(WalConfig config) : config_(std::move(config))
{
    hermes_assert(!config_.path.empty());
    ScanResult scanned = scan(config_.path);
    recovered_ = std::move(scanned.records);
    stats_.recordsRecovered = recovered_.size();
    stats_.tornBytesDiscarded = scanned.tornBytes;

    fd_ = ::open(config_.path.c_str(), O_CREAT | O_RDWR, 0644);
    if (fd_ < 0)
        panic("wal: open(%s) failed: %s", config_.path.c_str(),
              strerror(errno));
    if (scanned.formatVersion < kFormatVersion) {
        // Legacy headerless log: rewrite it in the current format so the
        // file never mixes record layouts. The decoded records go back
        // down fsync'd before this constructor returns — the upgrade
        // must not weaken their durability.
        if (::ftruncate(fd_, 0) != 0)
            panic("wal: ftruncate(%s) failed: %s", config_.path.c_str(),
                  strerror(errno));
        writeFileHeader();
        for (const WalRecord &rec : recovered_)
            encodeRecord(rec.shard, rec.key, rec.ts, rec.flags,
                         rec.mapEpoch, ValueRef::copyOf(rec.value));
        writeQueued();
        fsyncNow();
    } else {
        if (scanned.tornBytes > 0) {
            // Drop the torn tail so the next append starts a well-formed
            // record at the clean prefix instead of gluing onto garbage.
            if (::ftruncate(fd_, static_cast<off_t>(scanned.cleanBytes))
                    != 0)
                panic("wal: ftruncate(%s) failed: %s",
                      config_.path.c_str(), strerror(errno));
        }
        // A brand-new log — or one torn inside the header itself, just
        // truncated to nothing — starts with the format header.
        if (scanned.cleanBytes == 0)
            writeFileHeader();
    }
    if (::lseek(fd_, 0, SEEK_END) < 0)
        panic("wal: lseek(%s) failed: %s", config_.path.c_str(),
              strerror(errno));
}

void
Wal::writeFileHeader()
{
    uint8_t header[kFileHeaderBytes];
    leStore32(header, kFileMagic);
    leStore32(header + 4, kFormatVersion);
    size_t off = 0;
    while (off < sizeof(header)) {
        ssize_t n = ::write(fd_, header + off, sizeof(header) - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            panic("wal: write(%s) failed: %s", config_.path.c_str(),
                  strerror(errno));
        }
        off += static_cast<size_t>(n);
    }
}

Wal::~Wal()
{
    if (fd_ >= 0) {
        // Best-effort final flush: a clean shutdown should not owe the
        // next incarnation a state transfer for already-queued records.
        flush();
        ::close(fd_);
    }
}

void
Wal::setChargeFn(std::function<void(DurationNs)> fn)
{
    chargeFn_ = std::move(fn);
}

void
Wal::clearRecovered()
{
    recovered_.clear();
    recovered_.shrink_to_fit();
}

void
Wal::encodeRecord(uint32_t shard, Key key, Timestamp ts, uint8_t flags,
                  uint32_t map_epoch, const ValueRef &value)
{
    uint8_t payload_header[kPayloadHeaderBytes];
    leStore32(payload_header, shard);
    leStore64(payload_header + 4, key);
    leStore32(payload_header + 12, ts.version);
    leStore32(payload_header + 16, ts.cid);
    payload_header[20] = flags;
    leStore32(payload_header + 21, map_epoch);
    leStore32(payload_header + 25, static_cast<uint32_t>(value.size()));

    uint32_t crc = crc32Update(crc32Init(), payload_header,
                               sizeof(payload_header));
    crc = crc32Final(crc32Update(crc, value.data(), value.size()));

    size_t base = frame_.staging.size();
    frame_.staging.resize(base + kFrameHeaderBytes
                          + sizeof(payload_header));
    leStore32(frame_.staging.data() + base,
              static_cast<uint32_t>(kPayloadHeaderBytes + value.size()));
    leStore32(frame_.staging.data() + base + 4, crc);
    std::memcpy(frame_.staging.data() + base + kFrameHeaderBytes,
                payload_header, sizeof(payload_header));
    if (!value.empty()) {
        if (value.size() > kZeroCopyThreshold) {
            // The ValueRef is immutable and refcounted: holding it until
            // the group-commit writev costs a refcount, not a copy.
            frame_.segments.push_back({frame_.staging.size(), value});
        } else {
            frame_.staging.insert(frame_.staging.end(), value.data(),
                                  value.data() + value.size());
        }
    }
}

void
Wal::append(Key key, Timestamp ts, uint8_t flags, const ValueRef &value)
{
    hermes_assert(fd_ >= 0);
    encodeRecord(config_.shard, key, ts, flags, mapEpoch_, value);

    size_t record_bytes =
        kFrameHeaderBytes + kPayloadHeaderBytes + value.size();
    ++stats_.appends;
    stats_.bytesAppended += record_bytes;
    if (chargeFn_ && config_.appendPerByteNs > 0)
        chargeFn_(static_cast<DurationNs>(config_.appendPerByteNs
                                          * record_bytes));

    if (config_.fsync == FsyncPolicy::Every) {
        // Strict durability: the record is on disk before the append
        // even returns to the protocol transition that produced it.
        writeQueued();
        fsyncNow();
    }
}

void
Wal::flush()
{
    if (frame_.staging.empty() && frame_.segments.empty())
        return; // nothing new since the last window: no write, no fsync
    writeQueued();
    if (config_.fsync == FsyncPolicy::Group)
        fsyncNow();
}

void
Wal::writeQueued()
{
    if (frame_.staging.empty() && frame_.segments.empty())
        return;
    iov_.clear();
    frame_.forEachRun([this](const void *data, size_t len) {
        iov_.push_back(iovec{const_cast<void *>(data), len});
    });
    // writev caps the vector length (IOV_MAX, commonly 1024); chunk and
    // re-slice partial writes so every queued byte lands exactly once.
    constexpr size_t kMaxIovPerCall = 512;
    size_t idx = 0;
    while (idx < iov_.size()) {
        size_t count = std::min(iov_.size() - idx, kMaxIovPerCall);
        ssize_t n = ::writev(fd_, iov_.data() + idx,
                             static_cast<int>(count));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            panic("wal: writev(%s) failed: %s", config_.path.c_str(),
                  strerror(errno));
        }
        auto written = static_cast<size_t>(n);
        while (written > 0 && idx < iov_.size()) {
            if (written >= iov_[idx].iov_len) {
                written -= iov_[idx].iov_len;
                ++idx;
            } else {
                iov_[idx].iov_base =
                    static_cast<uint8_t *>(iov_[idx].iov_base) + written;
                iov_[idx].iov_len -= written;
                written = 0;
            }
        }
    }
    frame_.staging.clear();
    frame_.segments.clear();
    ++stats_.flushes;
}

void
Wal::fsyncNow()
{
    if (::fsync(fd_) != 0)
        panic("wal: fsync(%s) failed: %s", config_.path.c_str(),
              strerror(errno));
    ++stats_.fsyncs;
    if (chargeFn_ && config_.fsyncNs > 0)
        chargeFn_(config_.fsyncNs);
}

Wal::ScanResult
Wal::scan(const std::string &path)
{
    ScanResult out;
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return out; // first boot: no log yet
    std::vector<uint8_t> buf;
    {
        struct stat st{};
        if (::fstat(fd, &st) == 0 && st.st_size > 0)
            buf.reserve(static_cast<size_t>(st.st_size));
    }
    uint8_t chunk[1 << 16];
    for (;;) {
        ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break; // unreadable tail: treat everything after as torn
        }
        if (n == 0)
            break;
        buf.insert(buf.end(), chunk, chunk + n);
    }
    ::close(fd);

    const size_t total = buf.size();
    if (total == 0)
        return out; // empty log: nothing durable yet

    // Decode records of one format generation starting at @p start.
    // @p payload_header_bytes distinguishes the generations: 29 for the
    // current format, 25 for the headerless v1 layout (no slot-map
    // epoch; those records predate elastic sharding, so their epoch is
    // the initial map's, 1). Every early exit is the torn-tail exit.
    auto scanRecords = [&](size_t start, size_t payload_header_bytes,
                           uint32_t map_epoch_default) {
        size_t off = start;
        for (;;) {
            if (total - off < kFrameHeaderBytes)
                break; // truncated mid-header
            uint32_t payload_len = leLoad32(buf.data() + off);
            uint32_t crc = leLoad32(buf.data() + off + 4);
            if (payload_len < payload_header_bytes
                    || payload_len > total - off - kFrameHeaderBytes)
                break; // truncated mid-payload, or a garbage length field
            const uint8_t *payload = buf.data() + off + kFrameHeaderBytes;
            if (crc32(payload, payload_len) != crc)
                break; // bit rot or a torn multi-sector write
            uint32_t value_len =
                leLoad32(payload + payload_header_bytes - 4);
            if (value_len != payload_len - payload_header_bytes)
                break; // internally inconsistent (CRC collision land)
            WalRecord rec;
            rec.shard = leLoad32(payload);
            rec.key = leLoad64(payload + 4);
            rec.ts.version = leLoad32(payload + 12);
            rec.ts.cid = leLoad32(payload + 16);
            rec.flags = payload[20];
            rec.mapEpoch = payload_header_bytes >= kPayloadHeaderBytes
                               ? leLoad32(payload + 21)
                               : map_epoch_default;
            rec.value.assign(reinterpret_cast<const char *>(payload)
                                 + payload_header_bytes,
                             value_len);
            out.records.push_back(std::move(rec));
            off += kFrameHeaderBytes + payload_len;
        }
        out.cleanBytes = off;
        out.tornBytes = total - off;
    };

    if (total < kFileHeaderBytes) {
        // Cut inside the file header itself (a crash during creation):
        // no record fits in fewer bytes under ANY format, so the whole
        // file is a torn tail. The constructor truncates it and writes
        // a fresh header.
        out.cleanBytes = 0;
        out.tornBytes = total;
        return out;
    }

    uint32_t magic = leLoad32(buf.data());
    if (magic == kFileMagic) {
        uint32_t version = leLoad32(buf.data() + 4);
        if (version != kFormatVersion) {
            // A well-formed header from another generation of this code
            // is NOT corruption: silently scanning it as a torn tail
            // would discard the whole log. Refuse loudly instead.
            panic("wal: %s is format version %u, this build reads "
                  "version %u — refusing to discard it as garbage",
                  path.c_str(), version, kFormatVersion);
        }
        scanRecords(kFileHeaderBytes, kPayloadHeaderBytes, 0);
        return out;
    }

    // No magic: the only headerless format ever released is v1 (25-byte
    // record payload header, no slot-map epoch). If the head of the file
    // decodes as v1, it is a pre-upgrade log — hand its records up and
    // let the constructor rewrite it in the current format.
    constexpr size_t kV1PayloadHeaderBytes = 25;
    scanRecords(0, kV1PayloadHeaderBytes, 1);
    if (!out.records.empty()) {
        out.formatVersion = 1;
        return out;
    }

    // Neither a current header nor a v1 prefix: this is not a WAL this
    // build knows how to read. Truncating it to nothing would silently
    // destroy whatever it is — fail loudly and leave the file alone.
    panic("wal: %s matches no known WAL format (no header magic, no "
          "v1 record at the head) — refusing to truncate it",
          path.c_str());
}

} // namespace hermes::store
