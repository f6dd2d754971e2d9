// The benchmark's fleet: one bench-scale VGG-16 base pruned by the real
// CRISP planner, ~20k tenants that each restrict it per block-row, the
// user class lists personalize works through, and the standalone
// reference every served output is compared against. Everything here is
// a pure function of the seed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/saliency.h"
#include "nn/flops.h"
#include "nn/models/common.h"
#include "sparse/block.h"
#include "tenant/router.h"

namespace fleetbench {

// The paper's CIFAR-100 model at bench scale, random-init (no training).
inline constexpr std::int64_t kClasses = 100;
inline constexpr std::int64_t kImageSize = 16;
inline constexpr float kWidthMult = 0.125f;
// The base pattern: CrispPruner, magnitude criterion, κ 0.80, 2:4 inside
// 16x16 blocks, one iteration, no fine-tuning.
inline constexpr std::int64_t kBlock = 16;
inline constexpr std::int64_t kN = 2;
inline constexpr std::int64_t kM = 4;
inline constexpr double kKappa = 0.80;
inline constexpr std::int64_t kFleetTenants = 20000;
/// User class lists prepare writes; personalize takes a prefix.
inline constexpr std::int64_t kUserLists = 4000;
inline constexpr std::int64_t kUserClasses = 6;
/// Fleet tenants restrict only layers keeping at least this many base
/// blocks per block-row, dropping one or two of them per row.
inline constexpr std::int64_t kFleetDropFloor = 4;
/// Personalization's floor, from examples/personalize_edge.cpp: only
/// layers keeping at least eight blocks per row give one up.
inline constexpr std::int64_t kPersonalizeFloor = 8;

struct InputPaths {
  explicit InputPaths(const std::string& dir);
  std::string base, shard, users, manifest;
};

/// What prepare wrote, read back by the run to check what it loaded.
struct Manifest {
  std::uint64_t seed = 0;
  std::int64_t tenants = 0;
  std::int64_t base_file_bytes = 0;
  std::int64_t fleet_delta_bytes = 0;  ///< sum of MaskDelta::delta_bytes
};

crisp::nn::ModelConfig model_config(std::uint64_t seed);
crisp::tenant::ModelFactory model_factory(std::uint64_t seed);
std::string tenant_id(std::int64_t index);

/// Writes the base artifact, the fleet shard, the user class lists and
/// the manifest into `dir` (which must exist).
void prepare_inputs(std::uint64_t seed, const std::string& dir);
Manifest read_manifest(const std::string& path);
std::vector<std::vector<std::int64_t>> read_users(const std::string& path);

/// One masked parameter's block grid and the base's surviving block
/// columns in each block-row.
struct LayerBlocks {
  std::size_t param = 0;  ///< index into prunable_parameters()
  crisp::sparse::BlockGrid grid;
  std::vector<std::vector<std::int64_t>> live;
  std::int64_t min_live = 0;
};
std::vector<LayerBlocks> survey_blocks(crisp::nn::Sequential& model);

/// Drops the least-salient surviving block of every block-row (ties toward
/// the lower column) in each layer that keeps at least kPersonalizeFloor
/// blocks per row. Uniform per-row drops keep the mask a valid CRISP
/// pattern, so MaskDelta::from_model accepts it.
void drop_least_salient(crisp::nn::Sequential& model,
                        const std::vector<LayerBlocks>& layers,
                        const crisp::core::SaliencyMap& saliency);

/// Masks of every prunable parameter (empty tensors where unmasked).
std::vector<crisp::Tensor> copy_masks(crisp::nn::Sequential& model);
void restore_masks(crisp::nn::Sequential& model,
                   const std::vector<crisp::Tensor>& masks);

/// The standalone reference of a tenant: MaskDelta::apply, a fresh model
/// unpacked from it, CompiledModel::compile — plus its exact counts.
struct Standalone {
  std::shared_ptr<const crisp::serve::CompiledModel> model;
  crisp::nn::FlopsReport flops;  ///< per sample (batch 1)
  double payload_kib = 0.0;      ///< packed payload + metadata
};
Standalone standalone(const crisp::tenant::BaseArtifact& base,
                      const crisp::tenant::MaskDelta& delta,
                      const crisp::tenant::ModelFactory& factory);

}  // namespace fleetbench
