// CRC32C (Castagnoli) for artifact integrity.
//
// Every binary stream in the repo (PackedModel, MaskDelta, QuantizedPayload,
// tenant shards — docs/persistence.md) frames or trails its payload with
// this checksum so a flipped bit or torn write is *detected* at read time
// instead of silently served. CRC32C is the iSCSI/ext4 polynomial — cheap
// in software, and hardware-accelerated everywhere if we ever need it.
//
// Chaining convention: crc32c(b, n2, crc32c(a, n1)) == crc32c(a+b) — the
// seed is the running checksum of everything already hashed, so streaming
// writers never buffer.
//
// The stream wrappers are unbuffered tees: Crc32Ostream forwards every
// byte to the wrapped stream's buffer while folding it into the running
// checksum (and vice versa for Crc32Istream). Positions stay in sync with
// the underlying stream, so the envelope (tensor/pod_stream.h) reads a
// body's trailer from the raw stream right behind it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <streambuf>

namespace crisp::io {

/// CRC32C of `len` bytes at `data`, continuing from `seed` (0 to start).
std::uint32_t crc32c(const void* data, std::size_t len, std::uint32_t seed = 0);

namespace detail {

class Crc32OutBuf final : public std::streambuf {
 public:
  explicit Crc32OutBuf(std::streambuf* sink) : sink_(sink) {}
  std::uint32_t crc() const { return crc_; }

 protected:
  int overflow(int ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof()))
      return traits_type::not_eof(ch);
    const char c = traits_type::to_char_type(ch);
    if (traits_type::eq_int_type(sink_->sputc(c), traits_type::eof()))
      return traits_type::eof();
    crc_ = crc32c(&c, 1, crc_);
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const std::streamsize put = sink_->sputn(s, n);
    if (put > 0) crc_ = crc32c(s, static_cast<std::size_t>(put), crc_);
    return put;
  }

 private:
  std::streambuf* sink_;
  std::uint32_t crc_ = 0;
};

class Crc32InBuf final : public std::streambuf {
 public:
  explicit Crc32InBuf(std::streambuf* src) : src_(src) {}
  std::uint32_t crc() const { return crc_; }

 protected:
  // Peek without consuming — the byte is hashed when actually extracted.
  int underflow() override { return src_->sgetc(); }
  int uflow() override {
    const int ch = src_->sbumpc();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      const char c = traits_type::to_char_type(ch);
      crc_ = crc32c(&c, 1, crc_);
    }
    return ch;
  }
  std::streamsize xsgetn(char* s, std::streamsize n) override {
    const std::streamsize got = src_->sgetn(s, n);
    if (got > 0) crc_ = crc32c(s, static_cast<std::size_t>(got), crc_);
    return got;
  }

 private:
  std::streambuf* src_;
  std::uint32_t crc_ = 0;
};

}  // namespace detail

/// Writes pass through to `sink` while accumulating crc() over every byte.
class Crc32Ostream : public std::ostream {
 public:
  explicit Crc32Ostream(std::ostream& sink)
      : std::ostream(nullptr), buf_(sink.rdbuf()) {
    rdbuf(&buf_);
  }
  std::uint32_t crc() const { return buf_.crc(); }

 private:
  detail::Crc32OutBuf buf_;
};

/// Reads pull from `src` while accumulating crc() over every consumed byte.
class Crc32Istream : public std::istream {
 public:
  explicit Crc32Istream(std::istream& src)
      : std::istream(nullptr), buf_(src.rdbuf()) {
    rdbuf(&buf_);
  }
  std::uint32_t crc() const { return buf_.crc(); }

 private:
  detail::Crc32InBuf buf_;
};

}  // namespace crisp::io
