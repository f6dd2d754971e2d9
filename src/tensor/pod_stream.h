// The byte-stream envelope every artifact frames and bounds its bytes
// through: the tensor file, CrispMatrix, QuantizedPayload, and the
// CRSPPAKD, CRSPDELT and CRSPSHRD streams (docs/persistence.md).
//
// Host-endian and byte-packed; arrays and strings carry a u64 count.
// Readers take a `context` ("CrispMatrix::read") that prefixes every error
// they throw. A versioned format is `magic | u32 version | body`, and from
// its `sealed_since` version on a u32 CRC32C of the body follows it.
//
// Bounded reads: nothing is sized from a count before its bytes arrive.
// read_array grows as they do (one 64 KiB chunk ahead, or at most twice
// the bytes read), read_string refuses 2^20 bytes or more, and readers
// reserve at most kMaxReserve elements.
#pragma once

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "tensor/check.h"
#include "tensor/crc32.h"

namespace crisp::io {

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is, const char* context) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  CRISP_CHECK(is.good(), context << ": truncated stream");
  return v;
}

template <typename T>
void write_array(std::ostream& os, const std::vector<T>& v) {
  write_pod(os, static_cast<std::uint64_t>(v.size()));
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
std::vector<T> read_array(std::istream& is, const char* context) {
  constexpr std::uint64_t kChunk = (std::uint64_t{1} << 16) / sizeof(T);
  const auto count = read_pod<std::uint64_t>(is, context);
  std::vector<T> v;
  while (v.size() < count) {
    const std::uint64_t have = v.size();
    const auto step = static_cast<std::size_t>(
        std::min(count - have, std::max(kChunk, have)));
    v.reserve(have + step);  // exact, so the final capacity is the count
    v.resize(have + step);
    is.read(reinterpret_cast<char*>(v.data() + have),
            static_cast<std::streamsize>(step * sizeof(T)));
    CRISP_CHECK(is.good(), context << ": truncated array");
  }
  return v;
}

inline void write_string(std::ostream& os, const std::string& s) {
  write_pod(os, static_cast<std::uint64_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

inline std::string read_string(std::istream& is, const char* context) {
  const auto len = read_pod<std::uint64_t>(is, context);
  CRISP_CHECK(len < (1u << 20), context << ": implausible string length");
  std::string s(static_cast<std::size_t>(len), '\0');
  is.read(s.data(), static_cast<std::streamsize>(len));
  CRISP_CHECK(is.good(), context << ": truncated string");
  return s;
}

/// Most elements a reader reserves for a count read off the stream.
constexpr std::uint64_t kMaxReserve = 64;

/// A versioned format: `magic`, then a u32 version read when it lies in
/// [oldest, newest]. Versions from `sealed_since` on (none by default)
/// end their body with a CRC32C trailer.
template <typename Magic>
struct Format {
  const char* name;
  Magic magic;
  std::uint32_t oldest, newest;
  std::uint32_t sealed_since = ~std::uint32_t{0};

  void check_version(std::uint32_t version) const {
    CRISP_CHECK(version >= oldest && version <= newest,
                name << ": unsupported version " << version);
  }
  bool sealed(std::uint32_t version) const { return version >= sealed_since; }
  static constexpr std::int64_t kHeaderSize =
      sizeof(Magic) + sizeof(std::uint32_t);
};

template <typename Magic>
void write_header(std::ostream& os, const Format<Magic>& f,
                  std::uint32_t version) {
  write_pod(os, f.magic);
  write_pod(os, version);
}

/// Reads and checks `f`'s header; returns the version.
template <typename Magic>
std::uint32_t read_header(std::istream& is, const Format<Magic>& f) {
  CRISP_CHECK(read_pod<Magic>(is, f.name) == f.magic,
              f.name << ": bad magic");
  const auto version = read_pod<std::uint32_t>(is, f.name);
  f.check_version(version);
  return version;
}

/// An envelope's body stream: it writes the format's header, if any, to
/// `os`, and finish() appends the trailer when the body is sealed.
class EnvelopeWriter : public Crc32Ostream {
 public:
  template <typename Magic>
  EnvelopeWriter(std::ostream& os, const Format<Magic>& f,
                 std::uint32_t version)
      : EnvelopeWriter(os, f.sealed(version)) {
    write_header(os, f, version);
  }
  EnvelopeWriter(std::ostream& os, bool sealed)
      : Crc32Ostream(os), os_(os), sealed_(sealed) {}

  void finish() {
    if (!good()) os_.setstate(std::ios::badbit);
    if (sealed_) write_pod(os_, crc());
  }

 private:
  std::ostream& os_;
  bool sealed_;
};

/// An envelope's body stream: it checks the format's header, if any, on
/// `is`, and finish() checks the trailer when sealed and says if it did.
class EnvelopeReader : public Crc32Istream {
 public:
  template <typename Magic>
  EnvelopeReader(std::istream& is, const Format<Magic>& f)
      : EnvelopeReader(is, f.name, f.sealed(read_header(is, f))) {}
  EnvelopeReader(std::istream& is, const char* context, bool sealed)
      : Crc32Istream(is), is_(is), context_(context), sealed_(sealed) {}

  bool sealed() const { return sealed_; }
  bool finish() {
    if (sealed_)
      CRISP_CHECK(read_pod<std::uint32_t>(is_, context_) == crc(),
                  context_ << ": checksum mismatch");
    return sealed_;
  }

 private:
  std::istream& is_;
  const char* context_;
  bool sealed_;
};

}  // namespace crisp::io
