#include "tenant/shard.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "tensor/crc32.h"
#include "tensor/pod_stream.h"
#include "testing/fault_injection.h"

namespace crisp::tenant {

namespace {

constexpr io::Format<std::uint64_t> kFormat{"CRSPSHRD", 0x4352535053485244ull,
                                            1, 1};
// Frames above this are treated as corrupt, not allocated: a flipped bit
// in a length field must end the scan, never exhaust memory.
constexpr std::uint32_t kMaxRecordBytes = 1u << 30;

constexpr const char* kCtx = "tenant::scan_shard";

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Writes all of `data` to fd, honoring an armed torn-write budget: when
/// `torn_site` fires, only fault_arg(torn_site) bytes reach the file before
/// the injected crash (a throw). EINTR-safe.
void write_all(int fd, std::string_view data, const char* torn_site) {
  std::size_t budget = data.size();
  bool torn = false;
  if (torn_site != nullptr && testing::should_fail(torn_site)) {
    const std::int64_t arg = testing::fault_arg(torn_site);
    budget = arg < 0 ? 0 : std::min(budget, static_cast<std::size_t>(arg));
    torn = true;
  }
  std::size_t off = 0;
  while (off < budget) {
    const ssize_t n = ::write(fd, data.data() + off, budget - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("tenant shard: write failed");
    }
    off += static_cast<std::size_t>(n);
  }
  if (torn) {
    ::fsync(fd);  // make the torn prefix durable, like a real crash would
    throw std::runtime_error(std::string("fault injected: ") + torn_site);
  }
}

void fsync_or_throw(int fd, const char* what) {
  if (::fsync(fd) != 0) throw_errno(what);
}

/// fsyncs the directory containing `path` so a fresh rename/creat is
/// durable, not just the file bytes.
void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.empty() ? "/" : dir.c_str(),
                        O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw_errno("tenant shard: cannot open directory " + dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) throw_errno("tenant shard: directory fsync failed for " + dir);
}

struct FdCloser {
  int fd;
  ~FdCloser() {
    if (fd >= 0) ::close(fd);
  }
};

/// Appends u32 length | u32 crc32c(body) | body to `os`, where body =
/// u64 id length | id | delta.
void write_record(std::ostream& os, const std::string& tenant_id,
                  const MaskDelta& delta) {
  std::ostringstream body(std::ios::binary);
  io::write_string(body, tenant_id);
  delta.write(body);
  const std::string_view b = body.view();
  CRISP_CHECK(b.size() < kMaxRecordBytes,
              "tenant shard: record for " << tenant_id << " implausibly large");
  io::write_pod(os, static_cast<std::uint32_t>(b.size()));
  io::write_pod(os, io::crc32c(b.data(), b.size()));
  os.write(b.data(), static_cast<std::streamsize>(b.size()));
}

}  // namespace

void write_shard(
    const std::string& path,
    const std::vector<std::pair<std::string, std::shared_ptr<const MaskDelta>>>&
        records) {
  std::ostringstream image(std::ios::binary);
  io::write_header(image, kFormat, kFormat.newest);
  for (const auto& [id, delta] : records) {
    CRISP_CHECK(delta != nullptr, "tenant::write_shard: null delta for " << id);
    write_record(image, id, *delta);
  }

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("tenant::write_shard: cannot open " + tmp);
  {
    FdCloser closer{fd};
    write_all(fd, image.view(), "shard.save.torn");
    fsync_or_throw(fd, "tenant::write_shard: fsync failed");
  }
  testing::maybe_fail("shard.save.before_rename");
  if (::rename(tmp.c_str(), path.c_str()) != 0)
    throw_errno("tenant::write_shard: rename to " + path + " failed");
  fsync_parent_dir(path);
}

void append_shard(const std::string& path, const std::string& tenant_id,
                  const MaskDelta& delta) {
  std::ostringstream frame(std::ios::binary);
  write_record(frame, tenant_id, delta);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) throw_errno("tenant::append_shard: cannot open " + path);
  FdCloser closer{fd};
  struct stat st{};
  if (::fstat(fd, &st) != 0)
    throw_errno("tenant::append_shard: fstat failed for " + path);
  if (st.st_size == 0) {
    std::ostringstream header(std::ios::binary);
    io::write_header(header, kFormat, kFormat.newest);
    write_all(fd, header.view(), nullptr);
    fsync_parent_dir(path);  // the file itself may be freshly created
  }
  write_all(fd, frame.view(), "shard.append.torn");
  fsync_or_throw(fd, "tenant::append_shard: fsync failed");
}

ShardScanResult scan_shard(const std::string& path, bool repair) {
  // One read, into a buffer sized from the file.
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  const std::int64_t size = is.tellg();
  CRISP_CHECK(is.is_open() && size >= 0, kCtx << ": cannot open " << path);
  std::string file(static_cast<std::size_t>(size), '\0');
  CRISP_CHECK(is.seekg(0).read(file.data(), size),
              kCtx << ": cannot read " << path);

  ShardScanResult out;
  if (size < kFormat.kHeaderSize) {
    // A crash before the header committed: nothing was ever recorded.
    out.report.dropped_bytes = size;
    out.good_bytes = 0;
  } else {
    io::read_header(is.seekg(0), kFormat);
    std::int64_t off = kFormat.kHeaderSize;
    out.good_bytes = off;
    while (off < size) {
      if (size - off < 8) break;  // torn frame header
      std::uint32_t len, crc;
      std::memcpy(&len, file.data() + off, sizeof(len));
      std::memcpy(&crc, file.data() + off + 4, sizeof(crc));
      if (len > kMaxRecordBytes) break;        // corrupt length field
      if (size - off - 8 < static_cast<std::int64_t>(len)) break;  // torn body
      const char* body = file.data() + off + 8;
      if (io::crc32c(body, len) != crc) {
        // A failed checksum poisons everything under this frame, including
        // the length that would locate the next one — stop, don't skip.
        out.report.crc_failures = 1;
        break;
      }
      ShardRecord rec;
      try {
        std::istringstream body_is(std::string(body, len), std::ios::binary);
        rec.tenant_id = io::read_string(body_is, kCtx);
        rec.delta = MaskDelta::read(body_is);
        CRISP_CHECK(body_is.peek() == std::char_traits<char>::eof(),
                    kCtx << ": trailing bytes inside record body");
      } catch (const std::exception&) {
        // The checksum held, so this is writer-shaped corruption, not bit
        // rot; still nothing to trust past it.
        out.report.malformed = 1;
        break;
      }
      out.records.push_back(std::move(rec));
      ++out.report.records;
      off += 8 + static_cast<std::int64_t>(len);
      out.good_bytes = off;
    }
    out.report.dropped_bytes = size - out.good_bytes;
  }

  // The report always describes what the scan *found*; repair only changes
  // what is left on disk afterwards.
  if (repair && out.report.dropped_bytes > 0) {
    if (::truncate(path.c_str(), out.good_bytes) != 0)
      throw_errno("tenant::scan_shard: repair truncate failed for " + path);
  }
  return out;
}

}  // namespace crisp::tenant
