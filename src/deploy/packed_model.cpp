#include "deploy/packed_model.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "tensor/pod_stream.h"
#include "tensor/serialize.h"
#include "testing/fault_injection.h"

namespace crisp::deploy {

namespace {

// v2: CrispMatrix entries carry an optional int8 payload (v1 files, which
// lack its flag, are rejected). v3 is sealed, and so is every embedded
// QuantizedPayload; v2 still loads, with crc_verified() == false.
constexpr io::Format<std::uint64_t> kFormat{"CRSPPAKD", 0x4352535050414B44ull,
                                            2, 3, 3};

constexpr const char* kCtx = "PackedModel::load";

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
  kFormat.check_version(version);
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  CRISP_CHECK(os.is_open(), "PackedModel::save: cannot open " << path);
  io::EnvelopeWriter body(os, kFormat, version);
  io::write_pod(body, n_);
  io::write_pod(body, m_);
  io::write_pod(body, block_);
  io::write_pod(body, static_cast<std::uint64_t>(entries_.size()));
  for (const PackedEntry& e : entries_) {
    io::write_string(body, e.name);
    io::write_shape(body, e.shape);
    e.matrix.write(body, /*payload_crc=*/kFormat.sealed(version));
  }
  io::write_tensors(body, dense_);
  body.finish();
  CRISP_CHECK(os.good(), "PackedModel::save: write failed for " << path);
}

PackedModel PackedModel::load(const std::string& path) {
  testing::maybe_fail("packedmodel.load");
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  CRISP_CHECK(is.is_open(), "PackedModel::load: cannot open " << path);
  // A dense tensor's payload cannot outgrow the file, so its shape is
  // bounded by the file size before the tensor is allocated.
  const std::int64_t max_dense_numel =
      is.tellg() / std::streamoff{sizeof(float)};
  io::EnvelopeReader body(is.seekg(0), kFormat);
  PackedModel out;
  out.n_ = io::read_pod<std::int64_t>(body, kCtx);
  out.m_ = io::read_pod<std::int64_t>(body, kCtx);
  out.block_ = io::read_pod<std::int64_t>(body, kCtx);
  const auto entry_count = io::read_pod<std::uint64_t>(body, kCtx);
  out.entries_.reserve(std::min(entry_count, io::kMaxReserve));
  for (std::uint64_t i = 0; i < entry_count; ++i) {
    PackedEntry e;
    e.name = io::read_string(body, kCtx);
    // A packed entry's shape must match its matrix, whose sides
    // CrispMatrix::read bounds.
    e.shape = io::read_shape(
        body, sparse::kMaxMatrixSide * sparse::kMaxMatrixSide, kCtx);
    e.matrix = sparse::CrispMatrix::read(body, /*payload_crc=*/body.sealed());
    CRISP_CHECK(shape_numel(e.shape) ==
                    e.matrix.rows() * e.matrix.cols(),
                "PackedModel::load: entry " << e.name
                                            << " shape/matrix mismatch");
    out.entries_.push_back(std::move(e));
  }
  out.dense_ = io::read_tensors(body, max_dense_numel, kCtx);
  out.crc_verified_ = body.finish();
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
