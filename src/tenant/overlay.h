// Zero-copy tenant execution: a delta overlaid on the shared base arena.
//
// OverlayMatrix is an SpmmKernel view that executes one packed entry
// restricted to a tenant's kept blocks *in place*: its spmm is one call to
// the base CrispMatrix's spmm_restricted with the delta's bitmap (and
// optional per-block-row scales), so the base's own block walk skips the
// dropped blocks and multiplies with the base's own slots — nothing is
// copied. The shared_ptrs to the BaseArtifact and MaskDelta ride in the
// kernel, so a compiled tenant keeps exactly what it executes from alive.
//
// Equivalence contract: spmm_restricted computes bitwise what the
// standalone restriction MaskDelta::apply() builds computes, at any thread
// count (sparse/formats/crisp_format.h; tests/test_sparse_formats.cpp
// checks the kernel, tests/test_tenant.cpp whole models).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "serve/compiled_model.h"
#include "tenant/mask_delta.h"

namespace crisp::tenant {

class OverlayMatrix final : public kernels::SpmmKernel {
 public:
  /// Builds the overlay for packed entry `name`. The delta must validate
  /// against the base and carry an entry for `name` (use the base matrix
  /// directly — no overlay needed — when a parameter has no delta entry).
  OverlayMatrix(std::shared_ptr<const BaseArtifact> base,
                std::shared_ptr<const MaskDelta> delta,
                const std::string& name);

  /// CrispMatrix::spmm_restricted over the base entry with this delta:
  /// the base's fp32 slots when present, otherwise the int8 payload with
  /// the delta's scale overrides (when set) replacing the base's
  /// per-block-row scales.
  void spmm(ConstMatrixView x, MatrixView y) const override;

  std::int64_t rows() const override;
  std::int64_t cols() const override;
  const char* format_name() const override { return "crisp-overlay"; }

  std::int64_t kept_per_row() const { return edelta_->kept_per_row; }
  /// True when this kernel executes the base's payload storage itself
  /// (pointer identity with the base entry) — the masks-not-models
  /// invariant. tenant::Store sums the failures as excess_base_copies(),
  /// which bench/tenants.cpp gates at exactly zero; if overlay compilation
  /// ever regresses to copying payloads, that gate trips.
  bool aliases_base_payload() const;

 private:
  std::shared_ptr<const BaseArtifact> base_;
  std::shared_ptr<const MaskDelta> delta_;
  const deploy::PackedEntry* entry_ = nullptr;  ///< into base_'s artifact
  const EntryDelta* edelta_ = nullptr;          ///< into delta_
};

/// A compiled tenant: the serving artifact plus the overlay kernels it
/// executes through (kept so tenant::Store can audit aliasing).
struct OverlayCompile {
  std::shared_ptr<const serve::CompiledModel> model;
  std::vector<std::shared_ptr<const OverlayMatrix>> overlays;
};

/// Freezes `model` for serving tenant `delta` against `base`: every packed
/// entry with a delta entry is hooked through an OverlayMatrix, every
/// other packed entry through the base's CrispMatrix (aliased, not
/// copied). `model` must already hold the base's unpacked dense state
/// (tenant::Store feeds it from one shared template); layers that refuse
/// hooks (grouped convs) fall back to that dense state, exactly as
/// CompiledModel::compile does.
OverlayCompile compile_overlay(std::shared_ptr<nn::Sequential> model,
                               std::shared_ptr<const BaseArtifact> base,
                               std::shared_ptr<const MaskDelta> delta);

}  // namespace crisp::tenant
