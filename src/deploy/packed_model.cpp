#include "deploy/packed_model.h"

#include <fstream>
#include <utility>

#include "tensor/crc32.h"
#include "tensor/pod_stream.h"
#include "testing/fault_injection.h"

namespace crisp::deploy {

namespace {

constexpr std::uint64_t kMagic = 0x4352535050414B44ull;  // "CRSPPAKD"
// v2: CrispMatrix entries carry an optional int8 payload (and may omit the
// fp32 slots). v1 files lack the payload flag and are rejected.
// v3: a CRC32C trailer over everything after the version field, and every
// embedded QuantizedPayload carries its own trailer. v2 files still load
// (crc_verified() == false); both versions reject trailing bytes.
constexpr std::uint32_t kVersion = 3;

constexpr const char* kCtx = "PackedModel::load";

// Entry-count plausibility cap, checked before anything is sized from the
// count (tenant::MaskDelta caps its entries the same way).
constexpr std::uint64_t kMaxEntries = std::uint64_t{1} << 20;

using io::write_pod;

template <typename T>
T read_pod(std::istream& is) {
  return io::read_pod<T>(is, kCtx);
}

void write_string(std::ostream& os, const std::string& s) {
  write_pod(os, static_cast<std::uint64_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::istream& is) {
  const auto len = read_pod<std::uint64_t>(is);
  CRISP_CHECK(len < (1u << 20), "PackedModel::load: implausible string length");
  std::string s(static_cast<std::size_t>(len), '\0');
  is.read(s.data(), static_cast<std::streamsize>(len));
  CRISP_CHECK(is.good(), "PackedModel::load: truncated string");
  return s;
}

void write_shape(std::ostream& os, const Shape& shape) {
  write_pod(os, static_cast<std::uint64_t>(shape.size()));
  for (const std::int64_t d : shape) write_pod(os, d);
}

/// Reads a shape of at most `max_numel` elements. The running product is
/// checked in shape_numel's order, so it never overflows.
Shape read_shape(std::istream& is, std::int64_t max_numel) {
  const auto rank = read_pod<std::uint64_t>(is);
  CRISP_CHECK(rank <= 8, "PackedModel::load: implausible tensor rank");
  Shape shape(static_cast<std::size_t>(rank));
  std::int64_t numel = 1;
  for (auto& d : shape) {
    d = read_pod<std::int64_t>(is);
    CRISP_CHECK(d >= 0, "PackedModel::load: negative dimension");
    CRISP_CHECK(numel == 0 || d <= max_numel / numel,
                "PackedModel::load: tensor shape exceeds " << max_numel
                    << " elements");
    numel *= d;
  }
  return shape;
}

void write_tensor(std::ostream& os, const Tensor& t) {
  write_shape(os, t.shape());
  os.write(reinterpret_cast<const char*>(t.data()),
           static_cast<std::streamsize>(t.numel()) *
               static_cast<std::streamsize>(sizeof(float)));
}

Tensor read_tensor(std::istream& is, std::int64_t max_numel) {
  Tensor t(read_shape(is, max_numel));
  is.read(reinterpret_cast<char*>(t.data()),
          static_cast<std::streamsize>(t.numel()) *
              static_cast<std::streamsize>(sizeof(float)));
  CRISP_CHECK(is.good(), "PackedModel::load: truncated tensor payload");
  return t;
}

}  // namespace

PackedModel PackedModel::pack(nn::Sequential& model, std::int64_t block,
                              std::int64_t n, std::int64_t m) {
  PackedModel out;
  out.n_ = n;
  out.m_ = m;
  out.block_ = block;
  TensorMap state = model.state_dict();
  for (nn::Parameter* p : model.prunable_parameters()) {
    if (!p->has_mask()) continue;  // never pruned — carried dense
    const Tensor eff = p->effective_value();
    PackedEntry entry;
    entry.name = p->name;
    entry.shape = p->value.shape();
    entry.matrix = sparse::CrispMatrix::encode(
        as_matrix(eff, p->matrix_rows, p->matrix_cols), block, n, m);
    state.erase(p->name);
    out.entries_.push_back(std::move(entry));
  }
  out.dense_ = std::move(state);
  return out;
}

PackedModel PackedModel::assemble(std::int64_t block, std::int64_t n,
                                  std::int64_t m,
                                  std::vector<PackedEntry> entries,
                                  TensorMap dense_state) {
  PackedModel out;
  out.n_ = n;
  out.m_ = m;
  out.block_ = block;
  for (const PackedEntry& e : entries) {
    CRISP_CHECK(e.matrix.n() == n && e.matrix.m() == m &&
                    e.matrix.grid().block == block,
                "PackedModel::assemble: entry " << e.name << " is "
                    << e.matrix.n() << ":" << e.matrix.m() << "/block "
                    << e.matrix.grid().block << ", artifact is " << n << ":"
                    << m << "/block " << block);
    CRISP_CHECK(shape_numel(e.shape) == e.matrix.rows() * e.matrix.cols(),
                "PackedModel::assemble: entry " << e.name
                                                << " shape/matrix mismatch");
  }
  out.entries_ = std::move(entries);
  out.dense_ = std::move(dense_state);
  return out;
}

void PackedModel::save(const std::string& path, std::uint32_t version) const {
  testing::maybe_fail("packedmodel.save");
  CRISP_CHECK(version == 2 || version == kVersion,
              "PackedModel::save: cannot write version " << version);
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  CRISP_CHECK(os.is_open(), "PackedModel::save: cannot open " << path);
  write_pod(os, kMagic);
  write_pod(os, version);
  io::Crc32Ostream co(os);
  write_pod(co, n_);
  write_pod(co, m_);
  write_pod(co, block_);
  write_pod(co, static_cast<std::uint64_t>(entries_.size()));
  for (const PackedEntry& e : entries_) {
    write_string(co, e.name);
    write_shape(co, e.shape);
    e.matrix.write(co, /*payload_crc=*/version >= 3);
  }
  write_pod(co, static_cast<std::uint64_t>(dense_.size()));
  for (const auto& [name, tensor] : dense_) {
    write_string(co, name);
    write_tensor(co, tensor);
  }
  if (version >= 3) write_pod(os, co.crc());
  CRISP_CHECK(os.good(), "PackedModel::save: write failed for " << path);
}

PackedModel PackedModel::load(const std::string& path) {
  testing::maybe_fail("packedmodel.load");
  std::ifstream is(path, std::ios::binary);
  CRISP_CHECK(is.is_open(), "PackedModel::load: cannot open " << path);
  // A dense tensor's payload cannot outgrow the file, so its shape is
  // bounded by the file size before the tensor is allocated.
  is.seekg(0, std::ios::end);
  const auto max_dense_numel =
      static_cast<std::int64_t>(is.tellg()) /
      static_cast<std::int64_t>(sizeof(float));
  is.seekg(0, std::ios::beg);
  CRISP_CHECK(read_pod<std::uint64_t>(is) == kMagic,
              path << " is not a packed CRISP model");
  const auto version = read_pod<std::uint32_t>(is);
  CRISP_CHECK(version == 2 || version == kVersion,
              "unsupported packed-model version in " << path);
  io::Crc32Istream ci(is);
  PackedModel out;
  out.n_ = io::read_pod<std::int64_t>(ci, kCtx);
  out.m_ = io::read_pod<std::int64_t>(ci, kCtx);
  out.block_ = io::read_pod<std::int64_t>(ci, kCtx);
  const auto entry_count = io::read_pod<std::uint64_t>(ci, kCtx);
  CRISP_CHECK(entry_count <= kMaxEntries,
              kCtx << ": implausible entry count " << entry_count);
  out.entries_.reserve(static_cast<std::size_t>(entry_count));
  for (std::uint64_t i = 0; i < entry_count; ++i) {
    PackedEntry e;
    e.name = read_string(ci);
    // A packed entry's shape must match its matrix, whose sides
    // CrispMatrix::read bounds.
    e.shape = read_shape(ci, sparse::kMaxMatrixSide * sparse::kMaxMatrixSide);
    e.matrix = sparse::CrispMatrix::read(ci, /*payload_crc=*/version >= 3);
    CRISP_CHECK(shape_numel(e.shape) ==
                    e.matrix.rows() * e.matrix.cols(),
                "PackedModel::load: entry " << e.name
                                            << " shape/matrix mismatch");
    out.entries_.push_back(std::move(e));
  }
  const auto dense_count = io::read_pod<std::uint64_t>(ci, kCtx);
  for (std::uint64_t i = 0; i < dense_count; ++i) {
    std::string name = read_string(ci);
    out.dense_.emplace(std::move(name), read_tensor(ci, max_dense_numel));
  }
  if (version >= 3) {
    const std::uint32_t want = ci.crc();
    const auto got = io::read_pod<std::uint32_t>(is, kCtx);
    CRISP_CHECK(got == want,
                kCtx << ": checksum mismatch (artifact corrupt) in " << path);
    out.crc_verified_ = true;
  }
  // Either version must end exactly here: trailing bytes mean the file is
  // not what the writer produced (appended garbage, a concatenated file).
  CRISP_CHECK(is.peek() == std::char_traits<char>::eof(),
              kCtx << ": trailing bytes after artifact in " << path);
  return out;
}

void PackedModel::unpack_into(nn::Sequential& model) const {
  TensorMap full = dense_;
  for (const PackedEntry& e : entries_)
    full.emplace(e.name, e.matrix.decode().reshaped(e.shape));
  model.load_state_dict(full);

  // Re-install masks so MAC accounting and any later fine-tuning see the
  // sparsity. A weight that trained to exactly 0.0 is indistinguishable
  // from a pruned one here — functionally identical in forward, and it
  // merely stays frozen under STE updates.
  for (nn::Parameter* p : model.prunable_parameters()) {
    const PackedEntry* e = find(p->name);
    if (e == nullptr) continue;
    p->ensure_mask();
    for (std::int64_t i = 0; i < p->value.numel(); ++i)
      p->mask[i] = p->value[i] != 0.0f ? 1.0f : 0.0f;
  }
}

void PackedModel::quantize_payloads(bool keep_fp32) {
  for (PackedEntry& e : entries_) {
    if (!e.matrix.has_quantized()) e.matrix.quantize_payload();
    if (!keep_fp32) e.matrix.release_fp32_payload();
  }
}

bool PackedModel::quantized() const {
  for (const PackedEntry& e : entries_) {
    // A fully-pruned entry has no slots — nothing to quantize, and it must
    // not pin the whole artifact's predicates to false.
    if (e.matrix.slot_count() == 0) continue;
    if (!e.matrix.has_quantized()) return false;
  }
  return !entries_.empty();
}

bool PackedModel::serves_int8() const {
  for (const PackedEntry& e : entries_) {
    if (e.matrix.slot_count() == 0) continue;
    if (!e.matrix.has_quantized() || e.matrix.has_fp32()) return false;
  }
  return !entries_.empty();
}

const PackedEntry* PackedModel::find(const std::string& name) const {
  for (const PackedEntry& e : entries_)
    if (e.name == name) return &e;
  return nullptr;
}

PackedStats PackedModel::stats() const {
  PackedStats s;
  for (const PackedEntry& e : entries_) {
    s.model_dense_bits += shape_numel(e.shape) * 32;
    s.packed_payload_bits += e.matrix.payload_bits();
    s.packed_metadata_bits += e.matrix.metadata_bits();
  }
  for (const auto& [name, tensor] : dense_) {
    s.model_dense_bits += tensor.numel() * 32;
    s.carried_dense_bits += tensor.numel() * 32;
  }
  return s;
}

}  // namespace crisp::deploy
