#include "fleet.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/pruner.h"
#include "data/class_pattern.h"
#include "stats.h"

namespace fleetbench {

using namespace crisp;

namespace {

/// Threads prepare spreads the fleet's mask derivations over.
constexpr int kPrepareThreads = 4;

/// Writes (src == nullptr: zeroes) block (br, bc) of a parameter's mask.
void set_block(nn::Parameter& p, const sparse::BlockGrid& g, std::int64_t br,
               std::int64_t bc, const float* src) {
  const std::int64_t r0 = br * g.block, r1 = r0 + g.row_extent(br);
  const std::int64_t c0 = bc * g.block, c1 = c0 + g.col_extent(bc);
  float* mask = p.mask.data();
  for (std::int64_t r = r0; r < r1; ++r)
    for (std::int64_t c = c0; c < c1; ++c)
      mask[r * g.cols + c] = src == nullptr ? 0.0f : src[r * g.cols + c];
}

bool block_live(const nn::Parameter& p, const sparse::BlockGrid& g,
                std::int64_t br, std::int64_t bc) {
  const std::int64_t r0 = br * g.block, r1 = r0 + g.row_extent(br);
  const std::int64_t c0 = bc * g.block, c1 = c0 + g.col_extent(bc);
  const float* mask = p.mask.data();
  for (std::int64_t r = r0; r < r1; ++r)
    for (std::int64_t c = c0; c < c1; ++c)
      if (mask[r * g.cols + c] != 0.0f) return true;
  return false;
}

data::TrainTest calibration_data(std::uint64_t seed) {
  data::ClassPatternConfig dc = data::ClassPatternConfig::cifar100_like();
  dc.num_classes = kClasses;
  dc.image_size = kImageSize;
  dc.train_per_class = 2;
  dc.test_per_class = 1;
  dc.seed = seed;
  return data::make_class_pattern_dataset(dc);
}

/// The pruned base model: random init from the seed, then the real
/// planner with a data-free criterion and no fine-tuning.
std::shared_ptr<nn::Sequential> pruned_base(std::uint64_t seed) {
  std::shared_ptr<nn::Sequential> model = model_factory(seed)();
  core::CrispConfig cfg;
  cfg.n = kN;
  cfg.m = kM;
  cfg.block = kBlock;
  cfg.target_sparsity = kKappa;
  cfg.iterations = 1;
  cfg.finetune_epochs = 0;
  cfg.recovery_epochs = 0;
  cfg.saliency.criterion = "magnitude";
  core::CrispPruner pruner(*model, cfg);
  Rng rng(seed);
  pruner.run(calibration_data(seed).train, rng);
  pruner.bake();
  return model;
}

/// Tenant `index`'s restriction: in every layer keeping at least
/// kFleetDropFloor blocks per row, drop one or two seed-chosen survivors
/// per block-row. Returns the blocks it zeroed so the caller can restore
/// them.
std::vector<std::pair<std::size_t, std::pair<std::int64_t, std::int64_t>>>
restrict_tenant(nn::Sequential& model, const std::vector<LayerBlocks>& layers,
                std::uint64_t seed, std::int64_t index) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull +
                      static_cast<std::uint64_t>(index));
  const auto params = model.prunable_parameters();
  std::vector<std::pair<std::size_t, std::pair<std::int64_t, std::int64_t>>>
      zeroed;
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const LayerBlocks& lb = layers[li];
    if (lb.min_live < kFleetDropFloor) continue;
    const std::int64_t drops = 1 + static_cast<std::int64_t>(uniform_index(rng, 2));
    for (std::int64_t br = 0; br < lb.grid.grid_rows(); ++br) {
      std::vector<std::int64_t> pool = lb.live[static_cast<std::size_t>(br)];
      for (std::int64_t d = 0; d < drops; ++d) {
        const std::size_t pick = static_cast<std::size_t>(d) +
            uniform_index(rng, pool.size() - static_cast<std::size_t>(d));
        std::swap(pool[static_cast<std::size_t>(d)], pool[pick]);
        set_block(*params[lb.param], lb.grid, br,
                  pool[static_cast<std::size_t>(d)], nullptr);
        zeroed.push_back({li, {br, pool[static_cast<std::size_t>(d)]}});
      }
    }
  }
  return zeroed;
}

}  // namespace

InputPaths::InputPaths(const std::string& dir)
    : base(dir + "/base.crisp"),
      shard(dir + "/fleet.shard"),
      users(dir + "/users.txt"),
      manifest(dir + "/manifest.txt") {}

nn::ModelConfig model_config(std::uint64_t seed) {
  nn::ModelConfig mc;
  mc.num_classes = kClasses;
  mc.input_size = kImageSize;
  mc.width_mult = kWidthMult;
  mc.seed = seed;
  mc.prune_stem = false;
  return mc;
}

tenant::ModelFactory model_factory(std::uint64_t seed) {
  const nn::ModelConfig mc = model_config(seed);
  return [mc] { return std::shared_ptr<nn::Sequential>(nn::make_vgg16(mc)); };
}

std::string tenant_id(std::int64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "t%05lld", static_cast<long long>(index));
  return buf;
}

std::vector<LayerBlocks> survey_blocks(nn::Sequential& model) {
  std::vector<LayerBlocks> out;
  const auto params = model.prunable_parameters();
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    nn::Parameter& p = *params[pi];
    if (!p.has_mask()) continue;
    LayerBlocks lb;
    lb.param = pi;
    lb.grid = sparse::BlockGrid{p.matrix_rows, p.matrix_cols, kBlock};
    lb.min_live = lb.grid.grid_cols();
    for (std::int64_t br = 0; br < lb.grid.grid_rows(); ++br) {
      std::vector<std::int64_t> live;
      for (std::int64_t bc = 0; bc < lb.grid.grid_cols(); ++bc)
        if (block_live(p, lb.grid, br, bc)) live.push_back(bc);
      lb.min_live =
          std::min(lb.min_live, static_cast<std::int64_t>(live.size()));
      lb.live.push_back(std::move(live));
    }
    out.push_back(std::move(lb));
  }
  return out;
}

void drop_least_salient(nn::Sequential& model,
                        const std::vector<LayerBlocks>& layers,
                        const core::SaliencyMap& saliency) {
  const auto params = model.prunable_parameters();
  for (const LayerBlocks& lb : layers) {
    if (lb.min_live < kPersonalizeFloor) continue;
    nn::Parameter& p = *params[lb.param];
    const Tensor scores = sparse::block_scores(
        as_matrix(saliency[lb.param], p.matrix_rows, p.matrix_cols), lb.grid);
    const float* sc = scores.data();
    const std::int64_t gc = lb.grid.grid_cols();
    for (std::int64_t br = 0; br < lb.grid.grid_rows(); ++br) {
      std::int64_t worst = -1;
      for (const std::int64_t bc : lb.live[static_cast<std::size_t>(br)])
        if (worst < 0 || sc[br * gc + bc] < sc[br * gc + worst]) worst = bc;
      set_block(p, lb.grid, br, worst, nullptr);
    }
  }
}

std::vector<Tensor> copy_masks(nn::Sequential& model) {
  std::vector<Tensor> masks;
  for (nn::Parameter* p : model.prunable_parameters()) masks.push_back(p->mask);
  return masks;
}

void restore_masks(nn::Sequential& model, const std::vector<Tensor>& masks) {
  const auto params = model.prunable_parameters();
  for (std::size_t i = 0; i < params.size(); ++i) params[i]->mask = masks[i];
}

void prepare_inputs(std::uint64_t seed, const std::string& dir) {
  const InputPaths paths(dir);
  std::shared_ptr<nn::Sequential> pruned = pruned_base(seed);
  auto packed = std::make_shared<const deploy::PackedModel>(
      deploy::PackedModel::pack(*pruned, kBlock, kN, kM));
  packed->save(paths.base);
  auto base = tenant::BaseArtifact::create(packed);

  // Every worker derives its share of the fleet on its own copy of the
  // base, zeroing a tenant's blocks and restoring them afterwards.
  std::vector<std::shared_ptr<const tenant::MaskDelta>> deltas(
      static_cast<std::size_t>(kFleetTenants));
  std::vector<std::thread> workers;
  std::vector<std::exception_ptr> errors(kPrepareThreads);
  for (int w = 0; w < kPrepareThreads; ++w) {
    workers.emplace_back([&, w] {
      try {
        std::shared_ptr<nn::Sequential> model = model_factory(seed)();
        packed->unpack_into(*model);
        const std::vector<LayerBlocks> layers = survey_blocks(*model);
        const std::vector<Tensor> masks = copy_masks(*model);
        const auto params = model->prunable_parameters();
        for (std::int64_t i = w; i < kFleetTenants; i += kPrepareThreads) {
          const auto zeroed = restrict_tenant(*model, layers, seed, i);
          deltas[static_cast<std::size_t>(i)] =
              std::make_shared<const tenant::MaskDelta>(
                  tenant::MaskDelta::from_model(*base, *model));
          for (const auto& [li, rc] : zeroed) {
            const LayerBlocks& lb = layers[li];
            set_block(*params[lb.param], lb.grid, rc.first, rc.second,
                      masks[lb.param].data());
          }
        }
      } catch (...) {
        errors[static_cast<std::size_t>(w)] = std::current_exception();
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);

  std::vector<std::pair<std::string, std::shared_ptr<const tenant::MaskDelta>>>
      records;
  Manifest m;
  m.seed = seed;
  m.tenants = kFleetTenants;
  for (std::int64_t i = 0; i < kFleetTenants; ++i) {
    m.fleet_delta_bytes += deltas[static_cast<std::size_t>(i)]->delta_bytes();
    records.emplace_back(tenant_id(i), deltas[static_cast<std::size_t>(i)]);
  }
  tenant::write_shard(paths.shard, records);

  Rng rng(seed ^ 0x05E75ull);
  std::ofstream users(paths.users);
  for (std::int64_t u = 0; u < kUserLists; ++u) {
    const auto classes = data::sample_user_classes(kClasses, kUserClasses, rng);
    for (std::size_t c = 0; c < classes.size(); ++c)
      users << (c == 0 ? "" : " ") << classes[c];
    users << '\n';
  }
  if (!users.flush()) throw std::runtime_error("cannot write " + paths.users);

  m.base_file_bytes =
      static_cast<std::int64_t>(std::filesystem::file_size(paths.base));
  std::ofstream mf(paths.manifest);
  mf << "seed " << m.seed << "\ntenants " << m.tenants << "\nbase_file_bytes "
     << m.base_file_bytes << "\nfleet_delta_bytes " << m.fleet_delta_bytes
     << "\n";
  if (!mf.flush()) throw std::runtime_error("cannot write " + paths.manifest);
}

Manifest read_manifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("missing manifest " + path);
  Manifest m;
  std::string key;
  std::int64_t seen = 0;
  while (in >> key) {
    if (key == "seed") in >> m.seed;
    else if (key == "tenants") in >> m.tenants;
    else if (key == "base_file_bytes") in >> m.base_file_bytes;
    else if (key == "fleet_delta_bytes") in >> m.fleet_delta_bytes;
    else throw std::runtime_error("unknown manifest key " + key);
    ++seen;
  }
  if (seen != 4) throw std::runtime_error("incomplete manifest " + path);
  return m;
}

std::vector<std::vector<std::int64_t>> read_users(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("missing user lists " + path);
  std::vector<std::vector<std::int64_t>> users;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::vector<std::int64_t> classes;
    std::int64_t c = 0;
    while (fields >> c) {
      if (c < 0 || c >= kClasses)
        throw std::runtime_error("user class out of range in " + path);
      classes.push_back(c);
    }
    if (static_cast<std::int64_t>(classes.size()) != kUserClasses)
      throw std::runtime_error("malformed user line in " + path);
    users.push_back(std::move(classes));
  }
  return users;
}

Standalone standalone(const tenant::BaseArtifact& base,
                      const tenant::MaskDelta& delta,
                      const tenant::ModelFactory& factory) {
  auto packed = std::make_shared<const deploy::PackedModel>(delta.apply(base));
  std::shared_ptr<nn::Sequential> model = factory();
  packed->unpack_into(*model);
  const deploy::PackedStats st = packed->stats();
  Standalone s;
  s.flops = nn::count_flops(*model, {1, 3, kImageSize, kImageSize});
  s.payload_kib =
      static_cast<double>(st.packed_payload_bits + st.packed_metadata_bits) /
      8192.0;
  s.model = serve::CompiledModel::compile(model, packed);
  return s;
}

}  // namespace fleetbench
