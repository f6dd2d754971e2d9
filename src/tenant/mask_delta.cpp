#include "tenant/mask_delta.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <utility>

#include "sparse/block.h"
#include "tensor/pod_stream.h"
#include "testing/fault_injection.h"

namespace crisp::tenant {

namespace {

// v2 is sealed; v1 (same body, no trailer) still reads, without integrity
// cover.
constexpr io::Format<std::uint64_t> kFormat{"CRSPDELT", 0x4352535044454C54ull,
                                            1, 2, 2};

constexpr const char* kCtx = "MaskDelta::read";

bool bit_set(const std::vector<std::uint8_t>& bits, std::int64_t pos) {
  return (bits[static_cast<std::size_t>(pos >> 3)] >> (pos & 7)) & 1u;
}

void set_bit(std::vector<std::uint8_t>& bits, std::int64_t pos) {
  bits[static_cast<std::size_t>(pos >> 3)] |=
      static_cast<std::uint8_t>(1u << (pos & 7));
}

/// Structural invariants every EntryDelta must satisfy regardless of which
/// base it binds to: bitmap sized to the block list, uniform per-row
/// popcounts, trailing padding bits clear, override length fits the grid.
void check_entry(const EntryDelta& d, const char* ctx) {
  // Bounded before any arithmetic: no readable base matrix has a side past
  // kMaxMatrixSide, and within it the block count below fits in int64.
  CRISP_CHECK(d.grid_rows >= 1 && d.grid_rows <= sparse::kMaxMatrixSide &&
                  d.base_blocks_per_row >= 0 &&
                  d.base_blocks_per_row <= sparse::kMaxMatrixSide,
              ctx << ": entry " << d.name << " has degenerate grid");
  CRISP_CHECK(d.kept_per_row >= 0 && d.kept_per_row <= d.base_blocks_per_row,
              ctx << ": entry " << d.name << " keeps " << d.kept_per_row
                  << " of " << d.base_blocks_per_row << " blocks per row");
  const std::int64_t total = d.grid_rows * d.base_blocks_per_row;
  CRISP_CHECK(static_cast<std::int64_t>(d.kept_bits.size()) == (total + 7) / 8,
              ctx << ": entry " << d.name << " bitmap holds "
                  << d.kept_bits.size() * 8 << " bits for " << total
                  << " blocks");
  for (std::int64_t pos = total;
       pos < static_cast<std::int64_t>(d.kept_bits.size()) * 8; ++pos)
    CRISP_CHECK(!bit_set(d.kept_bits, pos),
                ctx << ": entry " << d.name << " has padding bits set");
  // Rows without blocks keep 0 == kept_per_row trivially; skipping them
  // keeps this walk within the bitmap's bits, not the claimed row count.
  for (std::int64_t br = 0; d.base_blocks_per_row > 0 && br < d.grid_rows;
       ++br) {
    std::int64_t kept = 0;
    for (std::int64_t i = 0; i < d.base_blocks_per_row; ++i)
      kept += bit_set(d.kept_bits, br * d.base_blocks_per_row + i) ? 1 : 0;
    CRISP_CHECK(kept == d.kept_per_row,
                ctx << ": entry " << d.name << " block-row " << br << " keeps "
                    << kept << " blocks, header says " << d.kept_per_row
                    << " (CRISP requires uniform surviving blocks per row)");
  }
  CRISP_CHECK(d.scale_overrides.empty() ||
                  static_cast<std::int64_t>(d.scale_overrides.size()) ==
                      d.grid_rows,
              ctx << ": entry " << d.name << " carries "
                  << d.scale_overrides.size() << " scale overrides for "
                  << d.grid_rows << " block-rows");
  for (const float s : d.scale_overrides)
    CRISP_CHECK(std::isfinite(s),
                ctx << ": entry " << d.name << " has a non-finite scale");
}

}  // namespace

MaskDelta MaskDelta::from_model(const BaseArtifact& base,
                                nn::Sequential& model) {
  const deploy::PackedModel& packed = base.packed();
  MaskDelta out;
  out.n_ = packed.n();
  out.m_ = packed.m();
  out.block_ = packed.block();

  for (nn::Parameter* p : model.prunable_parameters()) {
    const deploy::PackedEntry* e = packed.find(p->name);
    if (e == nullptr || !p->has_mask()) continue;
    const sparse::CrispMatrix& bm = e->matrix;
    CRISP_CHECK(bm.rows() == p->matrix_rows && bm.cols() == p->matrix_cols,
                "MaskDelta::from_model: " << p->name << " is "
                    << p->matrix_rows << "x" << p->matrix_cols
                    << ", base entry holds " << bm.rows() << "x" << bm.cols());
    const ConstMatrixView mask =
        as_matrix(p->mask, p->matrix_rows, p->matrix_cols);
    const sparse::BlockGrid& grid = bm.grid();
    const std::int64_t gr = grid.grid_rows(), gc = grid.grid_cols();
    const std::int64_t bpr = bm.blocks_per_row(), block = grid.block;

    EntryDelta d;
    d.name = p->name;
    d.grid_rows = gr;
    d.base_blocks_per_row = bpr;
    d.kept_bits.assign(static_cast<std::size_t>((gr * bpr + 7) / 8), 0);

    std::int64_t kept_per_row = -1;
    std::vector<char> occ(static_cast<std::size_t>(gc));
    for (std::int64_t br = 0; br < gr; ++br) {
      // Block occupancy of the tenant mask in this block-row.
      std::fill(occ.begin(), occ.end(), 0);
      for (std::int64_t bc = 0; bc < gc; ++bc) {
        for (std::int64_t r = br * block;
             occ[static_cast<std::size_t>(bc)] == 0 &&
             r < br * block + grid.row_extent(br);
             ++r)
          for (std::int64_t c = bc * block;
               c < bc * block + grid.col_extent(bc); ++c)
            if (mask(r, c) != 0.0f) {
              occ[static_cast<std::size_t>(bc)] = 1;
              break;
            }
      }
      // Occupied blocks must be a subset of the base's surviving list;
      // record each as a kept bit at its base list position.
      std::int64_t kept = 0;
      for (std::int64_t i = 0; i < bpr; ++i) {
        const std::int32_t bc = bm.block_cols()[static_cast<std::size_t>(
            br * bpr + i)];
        if (occ[static_cast<std::size_t>(bc)] != 1) continue;
        occ[static_cast<std::size_t>(bc)] = 2;
        set_bit(d.kept_bits, br * bpr + i);
        ++kept;
      }
      for (std::int64_t bc = 0; bc < gc; ++bc)
        CRISP_CHECK(occ[static_cast<std::size_t>(bc)] != 1,
                    "MaskDelta::from_model: " << p->name << " mask keeps "
                        "weight in block (" << br << ", " << bc << "), which "
                        "the base pruned — not representable as a restriction "
                        "of the base");
      if (kept_per_row < 0)
        kept_per_row = kept;
      else
        CRISP_CHECK(kept == kept_per_row,
                    "MaskDelta::from_model: " << p->name << " block-row " << br
                        << " keeps " << kept << " blocks, previous rows keep "
                        << kept_per_row
                        << " (CRISP requires uniform surviving blocks)");
    }
    d.kept_per_row = kept_per_row < 0 ? 0 : kept_per_row;
    out.entries_.push_back(std::move(d));
  }
  return out;
}

deploy::PackedModel MaskDelta::apply(const BaseArtifact& base) const {
  validate(base);
  const deploy::PackedModel& packed = base.packed();
  std::vector<deploy::PackedEntry> entries;
  entries.reserve(packed.entries().size());
  for (const deploy::PackedEntry& e : packed.entries()) {
    const EntryDelta* d = find(e.name);
    deploy::PackedEntry out;
    out.name = e.name;
    out.shape = e.shape;
    if (d == nullptr) {
      out.matrix = e.matrix;  // no delta — carried verbatim
    } else {
      out.matrix =
          e.matrix.restricted_to_blocks(d->kept_bits, d->kept_per_row);
      if (!d->scale_overrides.empty() && out.matrix.has_quantized())
        out.matrix.override_row_scales(d->scale_overrides);
    }
    entries.push_back(std::move(out));
  }
  return deploy::PackedModel::assemble(block_, n_, m_, std::move(entries),
                                       packed.dense_state());
}

void MaskDelta::validate(const BaseArtifact& base) const {
  const deploy::PackedModel& packed = base.packed();
  CRISP_CHECK(n_ == packed.n() && m_ == packed.m() && block_ == packed.block(),
              "MaskDelta::validate: delta is " << n_ << ":" << m_ << "/block "
                  << block_ << ", base is " << packed.n() << ":" << packed.m()
                  << "/block " << packed.block());
  for (const EntryDelta& d : entries_) {
    const deploy::PackedEntry* e = packed.find(d.name);
    CRISP_CHECK(e != nullptr,
                "MaskDelta::validate: base has no packed entry " << d.name);
    CRISP_CHECK(d.grid_rows == e->matrix.grid().grid_rows() &&
                    d.base_blocks_per_row == e->matrix.blocks_per_row(),
                "MaskDelta::validate: entry " << d.name << " binds a "
                    << d.grid_rows << "x" << d.base_blocks_per_row
                    << " block list, base stores "
                    << e->matrix.grid().grid_rows() << "x"
                    << e->matrix.blocks_per_row());
    check_entry(d, "MaskDelta::validate");
  }
}

void MaskDelta::write(std::ostream& os) const {
  testing::maybe_fail("maskdelta.write");
  io::EnvelopeWriter body(os, kFormat, kFormat.newest);
  io::write_pod(body, block_);
  io::write_pod(body, n_);
  io::write_pod(body, m_);
  io::write_pod(body, static_cast<std::uint64_t>(entries_.size()));
  for (const EntryDelta& d : entries_) {
    io::write_string(body, d.name);
    io::write_pod(body, d.grid_rows);
    io::write_pod(body, d.base_blocks_per_row);
    io::write_pod(body, d.kept_per_row);
    io::write_array(body, d.kept_bits);
    io::write_array(body, d.scale_overrides);
  }
  body.finish();
}

MaskDelta MaskDelta::read(std::istream& is) {
  testing::maybe_fail("maskdelta.read");
  io::EnvelopeReader body(is, kFormat);
  MaskDelta out;
  out.block_ = io::read_pod<std::int64_t>(body, kCtx);
  out.n_ = io::read_pod<std::int64_t>(body, kCtx);
  out.m_ = io::read_pod<std::int64_t>(body, kCtx);
  CRISP_CHECK(out.block_ >= 1 && out.m_ >= 1 && out.n_ >= 1 &&
                  out.n_ <= out.m_ && out.block_ % out.m_ == 0,
              kCtx << ": inconsistent geometry header");
  const auto count = io::read_pod<std::uint64_t>(body, kCtx);
  out.entries_.reserve(std::min(count, io::kMaxReserve));
  for (std::uint64_t i = 0; i < count; ++i) {
    EntryDelta d;
    d.name = io::read_string(body, kCtx);
    d.grid_rows = io::read_pod<std::int64_t>(body, kCtx);
    d.base_blocks_per_row = io::read_pod<std::int64_t>(body, kCtx);
    d.kept_per_row = io::read_pod<std::int64_t>(body, kCtx);
    d.kept_bits = io::read_array<std::uint8_t>(body, kCtx);
    d.scale_overrides = io::read_array<float>(body, kCtx);
    check_entry(d, kCtx);
    out.entries_.push_back(std::move(d));
  }
  body.finish();
  return out;
}

std::int64_t MaskDelta::delta_bytes() const {
  // Mirrors write(): magic + version + geometry + entry count, then each
  // entry's fields with their u64 length prefixes, then the CRC32C
  // trailer. test_tenant.cpp pins this to the actual stream size.
  std::int64_t bytes = 8 + 4 + 3 * 8 + 8;
  for (const EntryDelta& d : entries_) {
    bytes += 8 + static_cast<std::int64_t>(d.name.size());
    bytes += 3 * 8;
    bytes += 8 + static_cast<std::int64_t>(d.kept_bits.size());
    bytes += 8 + 4 * static_cast<std::int64_t>(d.scale_overrides.size());
  }
  return bytes + 4;
}

void MaskDelta::set_scale_overrides(const std::string& name,
                                    std::vector<float> scales) {
  for (EntryDelta& d : entries_) {
    if (d.name != name) continue;
    CRISP_CHECK(scales.empty() ||
                    static_cast<std::int64_t>(scales.size()) == d.grid_rows,
                "MaskDelta::set_scale_overrides: " << name << " needs "
                    << d.grid_rows << " scales, got " << scales.size());
    for (const float s : scales)
      CRISP_CHECK(std::isfinite(s),
                  "MaskDelta::set_scale_overrides: non-finite scale");
    d.scale_overrides = std::move(scales);
    return;
  }
  CRISP_CHECK(false, "MaskDelta::set_scale_overrides: no entry " << name);
}

const EntryDelta* MaskDelta::find(const std::string& name) const {
  for (const EntryDelta& d : entries_)
    if (d.name == name) return &d;
  return nullptr;
}

}  // namespace crisp::tenant
