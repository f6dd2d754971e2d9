#include "tenant/overlay.h"

#include <utility>

namespace crisp::tenant {

OverlayMatrix::OverlayMatrix(std::shared_ptr<const BaseArtifact> base,
                             std::shared_ptr<const MaskDelta> delta,
                             const std::string& name)
    : base_(std::move(base)), delta_(std::move(delta)) {
  CRISP_CHECK(base_ != nullptr && delta_ != nullptr,
              "OverlayMatrix: null base or delta");
  delta_->validate(*base_);
  entry_ = base_->find(name);
  CRISP_CHECK(entry_ != nullptr,
              "OverlayMatrix: base has no packed entry " << name);
  edelta_ = delta_->find(name);
  CRISP_CHECK(edelta_ != nullptr,
              "OverlayMatrix: delta has no entry " << name
                  << " — hook the base matrix directly instead");
}

std::int64_t OverlayMatrix::rows() const { return entry_->matrix.rows(); }
std::int64_t OverlayMatrix::cols() const { return entry_->matrix.cols(); }

bool OverlayMatrix::aliases_base_payload() const {
  // The kernel owns no slot storage; everything it multiplies with lives
  // in the base entry it points at. Both legs are pointer identity — if a
  // future change makes overlays copy (or rebind) payloads, this goes
  // false and the Store/bench zero-gate catches it.
  return entry_ == base_->find(entry_->name) &&
         edelta_ == delta_->find(entry_->name);
}

void OverlayMatrix::spmm(ConstMatrixView x, MatrixView y) const {
  entry_->matrix.spmm_restricted(x, y, edelta_->kept_bits,
                                 edelta_->kept_per_row,
                                 edelta_->scale_overrides);
}

OverlayCompile compile_overlay(std::shared_ptr<nn::Sequential> model,
                               std::shared_ptr<const BaseArtifact> base,
                               std::shared_ptr<const MaskDelta> delta) {
  CRISP_CHECK(model != nullptr, "compile_overlay: null model");
  CRISP_CHECK(base != nullptr && delta != nullptr,
              "compile_overlay: null base or delta");
  delta->validate(*base);

  OverlayCompile out;
  std::vector<deploy::NamedKernel> kernels;
  kernels.reserve(base->packed().entries().size());
  for (const deploy::PackedEntry& e : base->packed().entries()) {
    if (delta->find(e.name) != nullptr) {
      auto overlay = std::make_shared<const OverlayMatrix>(base, delta, e.name);
      out.overlays.push_back(overlay);
      kernels.push_back({e.name, overlay});
    } else {
      // No delta for this entry: the base matrix serves it, aliased out of
      // the shared artifact like any install_packed_hooks() compile.
      kernels.push_back({e.name, std::shared_ptr<const kernels::SpmmKernel>(
                                     base->packed_ptr(), &e.matrix)});
    }
  }
  out.model =
      serve::CompiledModel::compile_with_kernels(std::move(model), kernels);
  return out;
}

}  // namespace crisp::tenant
