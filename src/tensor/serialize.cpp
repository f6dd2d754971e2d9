#include "tensor/serialize.h"

#include <fstream>

#include "tensor/pod_stream.h"

namespace crisp {

namespace {

constexpr io::Format<std::uint32_t> kFormat{"tensor file", 0x43525350, 1, 1};

}  // namespace

void save_tensors(const TensorMap& tensors, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  CRISP_CHECK(os.good(), "cannot open for writing: " << path);
  io::write_header(os, kFormat, kFormat.newest);
  io::write_tensors(os, tensors);
  CRISP_CHECK(os.good(), "write failure on " << path);
}

TensorMap load_tensors(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  CRISP_CHECK(is.good(), "cannot open for reading: " << path);
  // No tensor holds more floats than the file holds bytes for.
  const std::int64_t max_numel = is.tellg() / std::streamoff{sizeof(float)};
  io::read_header(is.seekg(0), kFormat);
  return io::read_tensors(is, max_numel, kFormat.name);
}

bool is_tensor_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  try {
    io::read_header(is, kFormat);
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

namespace io {

void write_shape(std::ostream& os, const Shape& shape) {
  write_pod(os, static_cast<std::uint64_t>(shape.size()));
  for (const std::int64_t d : shape) write_pod(os, d);
}

Shape read_shape(std::istream& is, std::int64_t max_numel,
                 const char* context) {
  const auto rank = read_pod<std::uint64_t>(is, context);
  CRISP_CHECK(rank <= 8, context << ": implausible tensor rank");
  Shape shape(static_cast<std::size_t>(rank));
  std::int64_t numel = 1;
  for (auto& d : shape) {
    d = read_pod<std::int64_t>(is, context);
    CRISP_CHECK(d >= 0, context << ": negative dimension");
    CRISP_CHECK(numel == 0 || d <= max_numel / numel,
                context << ": tensor shape exceeds " << max_numel
                        << " elements");
    numel *= d;
  }
  return shape;
}

void write_tensors(std::ostream& os, const TensorMap& tensors) {
  write_pod(os, static_cast<std::uint64_t>(tensors.size()));
  for (const auto& [name, t] : tensors) {
    write_string(os, name);
    write_shape(os, t.shape());
    os.write(reinterpret_cast<const char*>(t.data()),
             static_cast<std::streamsize>(t.numel()) *
                 static_cast<std::streamsize>(sizeof(float)));
  }
}

TensorMap read_tensors(std::istream& is, std::int64_t max_numel,
                       const char* context) {
  const auto count = read_pod<std::uint64_t>(is, context);
  TensorMap out;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string name = read_string(is, context);
    Tensor t(read_shape(is, max_numel, context));
    is.read(reinterpret_cast<char*>(t.data()),
            static_cast<std::streamsize>(t.numel()) *
                static_cast<std::streamsize>(sizeof(float)));
    CRISP_CHECK(is.good(), context << ": truncated tensor " << name);
    out.emplace(std::move(name), std::move(t));
  }
  return out;
}

}  // namespace io
}  // namespace crisp
