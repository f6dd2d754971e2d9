// Byte-stream envelope tests (docs/persistence.md): every artifact writer's
// bytes pinned, a hostile-header corpus, and a deterministic mutation
// fuzzer over every format and version.
//
// Built with -DCRISP_SANITIZE=address, this binary caps any single
// allocation at 8 MiB (the hook below; other builds ignore it). A reader
// that sizes a buffer from a claimed length, rather than from the bytes
// that actually arrived, then aborts here even when it would have thrown
// a tidy error a moment later.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "deploy/packed_model.h"
#include "nn/linear.h"
#include "sparse/formats/crisp_format.h"
#include "sparse/quantized.h"
#include "tenant/mask_delta.h"
#include "tenant/shard.h"
#include "tensor/crc32.h"
#include "tensor/pod_stream.h"
#include "tensor/serialize.h"

extern "C" const char* __asan_default_options() {
  return "max_allocation_size_mb=8";
}

namespace crisp {
namespace {

constexpr std::int64_t kBlock = 8, kN = 2, kM = 4, kSide = 32;

/// This process's scratch directory (two builds' suites may run side by
/// side), removed when the suite ends.
const std::filesystem::path& temp_dir() {
  static const std::filesystem::path dir = [] {
    const std::filesystem::path d =
        std::filesystem::path(::testing::TempDir()) /
        ("stream_fuzz_" + std::to_string(::getpid()));
    std::filesystem::create_directories(d);
    return d;
  }();
  return dir;
}

class RemoveTempDir : public ::testing::Environment {
  void TearDown() override { std::filesystem::remove_all(temp_dir()); }
};
::testing::Environment* const kRemoveTempDir =
    ::testing::AddGlobalTestEnvironment(new RemoveTempDir);

std::string temp_path(const std::string& stem) {
  return (temp_dir() / stem).string();
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buf(std::ios::binary);
  buf << is.rdbuf();
  return buf.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::int64_t mod4(std::int64_t v) { return ((v % 4) + 4) % 4; }

// ---------------------------------------------------------------------------
// Fixtures: exactly representable values, no random init, no training, so
// every build configuration writes the same bytes.

/// A kSide x kSide CRISP matrix: block-row br keeps block columns
/// (br + salt) % 4 and (br + salt + 1) % 4, and each row keeps two of every
/// four columns inside them. Values are non-zero multiples of 1/4.
Tensor hybrid_weights(std::int64_t salt) {
  Tensor w = Tensor::zeros({kSide, kSide});
  for (std::int64_t r = 0; r < kSide; ++r)
    for (std::int64_t c = 0; c < kSide; ++c) {
      const bool block_kept = mod4(c / kBlock - r / kBlock - salt) < 2;
      const bool slot_kept = mod4(c - r - salt) < 2;
      if (!block_kept || !slot_kept) continue;
      const float mag = 0.25f * static_cast<float>(1 + (r * kSide + c) % 7);
      w[r * kSide + c] = (r + c) % 2 == 0 ? mag : -mag;
    }
  return w;
}

Tensor ramp(Shape shape, float start) {
  Tensor t = Tensor::zeros(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i)
    t[i] = start + 0.5f * static_cast<float>(i);
  return t;
}

/// fc1.weight (salt 0) and fc2.weight (salt 1) packed, their biases dense.
deploy::PackedModel packed_fixture() {
  std::vector<deploy::PackedEntry> entries;
  for (const std::int64_t salt : {0, 1}) {
    deploy::PackedEntry e;
    e.name = "fc" + std::to_string(salt + 1) + ".weight";
    e.shape = {kSide, kSide};
    const Tensor w = hybrid_weights(salt);
    e.matrix = sparse::CrispMatrix::encode(as_matrix(w, kSide, kSide), kBlock,
                                           kN, kM);
    entries.push_back(std::move(e));
  }
  TensorMap dense;
  dense.emplace("fc1.bias", ramp({kSide}, -4.0f));
  dense.emplace("fc2.bias", ramp({kSide}, 2.0f));
  return deploy::PackedModel::assemble(kBlock, kN, kM, std::move(entries),
                                       std::move(dense));
}

std::shared_ptr<const tenant::BaseArtifact> base_fixture() {
  return tenant::BaseArtifact::create(
      std::make_shared<const deploy::PackedModel>(packed_fixture()));
}

/// A tenant keeping one of the base's two blocks per block-row, picked by
/// `salt`. The layers' initial weights never reach the delta: only the
/// masks written here do.
tenant::MaskDelta delta_fixture(const tenant::BaseArtifact& base,
                                std::int64_t salt) {
  Rng rng(1);
  nn::Sequential model("fixture");
  model.emplace<nn::Linear>("fc1", kSide, kSide, rng);
  model.emplace<nn::Linear>("fc2", kSide, kSide, rng);
  std::int64_t entry_salt = 0;
  for (nn::Parameter* p : model.prunable_parameters()) {
    p->ensure_mask();
    for (std::int64_t r = 0; r < kSide; ++r)
      for (std::int64_t c = 0; c < kSide; ++c) {
        const std::int64_t rel = mod4(c / kBlock - r / kBlock - entry_salt);
        p->mask[r * kSide + c] = rel == (r / kBlock + salt) % 2 ? 1.0f : 0.0f;
      }
    ++entry_salt;
  }
  tenant::MaskDelta d = tenant::MaskDelta::from_model(base, model);
  d.set_scale_overrides("fc1.weight", {0.5f, 1.5f, 2.5f, 3.5f});
  return d;
}

std::string delta_bytes(const tenant::MaskDelta& d) {
  std::ostringstream os(std::ios::binary);
  d.write(os);
  return os.str();
}

std::string packed_bytes(const deploy::PackedModel& p, std::uint32_t version) {
  const std::string path = temp_path("packed.bin");
  p.save(path, version);
  return slurp(path);
}

std::string shard_bytes(const tenant::BaseArtifact& base) {
  const std::string path = temp_path("fixture.shard");
  tenant::write_shard(
      path, {{"alpha", std::make_shared<const tenant::MaskDelta>(
                           delta_fixture(base, 0))},
             {"beta", std::make_shared<const tenant::MaskDelta>(
                          delta_fixture(base, 1))},
             {"gamma", std::make_shared<const tenant::MaskDelta>(
                           delta_fixture(base, 0))}});
  return slurp(path);
}

/// 40 slots in groups of 16 (the last group ragged).
sparse::QuantizedPayload payload_fixture() {
  const Tensor v = ramp({40}, -9.75f);
  return sparse::QuantizedPayload::quantize(v.data(), v.numel(), 16);
}

std::string payload_bytes(bool trailer) {
  std::ostringstream os(std::ios::binary);
  payload_fixture().write(os, trailer);
  return os.str();
}

/// fc1's matrix carrying both its fp32 and its int8 payload.
std::string crisp_bytes(bool trailer) {
  sparse::CrispMatrix m = packed_fixture().entries()[0].matrix;
  m.quantize_payload();
  std::ostringstream os(std::ios::binary);
  m.write(os, trailer);
  return os.str();
}

std::string tensor_file_bytes() {
  TensorMap tensors;
  tensors.emplace("alpha", ramp({3, 4}, -1.0f));
  tensors.emplace("beta.gamma", ramp({7}, 0.25f));
  tensors.emplace("empty", Tensor({0}));
  const std::string path = temp_path("tensors.bin");
  save_tensors(tensors, path);
  return slurp(path);
}

// ---------------------------------------------------------------------------
// Pins: each writer's size and CRC32C, recorded before the formats moved
// onto the shared envelope. A changed byte anywhere fails here.

struct Pin {
  std::size_t size;
  std::uint32_t crc;
};

void expect_pinned(const std::string& bytes, Pin pin) {
  EXPECT_EQ(bytes.size(), pin.size);
  EXPECT_EQ(io::crc32c(bytes.data(), bytes.size()), pin.crc)
      << "crc32c 0x" << std::hex << io::crc32c(bytes.data(), bytes.size());
}

TEST(StreamPins, MaskDeltaV2) {
  const auto base = base_fixture();
  expect_pinned(delta_bytes(delta_fixture(*base, 0)), {182, 0x1563c52c});
}

TEST(StreamPins, PackedModelV3AndV2) {
  const deploy::PackedModel fp32 = packed_fixture();
  expect_pinned(packed_bytes(fp32, 3), {3230, 0xe1035d97});
  expect_pinned(packed_bytes(fp32, 2), {3226, 0xabfca2fe});
  deploy::PackedModel int8 = packed_fixture();
  int8.quantize_payloads();
  expect_pinned(packed_bytes(int8, 3), {1782, 0xe322cbf6});
  expect_pinned(packed_bytes(int8, 2), {1770, 0x65929d56});
}

TEST(StreamPins, ThreeRecordShard) {
  const auto base = base_fixture();
  expect_pinned(shard_bytes(*base), {620, 0xc8156e56});
}

TEST(StreamPins, QuantizedPayloadWithAndWithoutTrailer) {
  expect_pinned(payload_bytes(true), {80, 0x48674bc7});
  expect_pinned(payload_bytes(false), {76, 0x1217b830});
}

TEST(StreamPins, CrispMatrixWithAndWithoutTrailer) {
  expect_pinned(crisp_bytes(true), {1685, 0xc2358225});
  expect_pinned(crisp_bytes(false), {1681, 0x9ae2d40e});
}

TEST(StreamPins, TensorFile) {
  expect_pinned(tensor_file_bytes(), {192, 0x69620650});
}

// ---------------------------------------------------------------------------
// Hostile headers: a short stream claiming a huge count must throw the
// documented std::runtime_error without first allocating what it claims.

std::string pod_bytes(std::initializer_list<std::int64_t> fields) {
  std::ostringstream os(std::ios::binary);
  for (const std::int64_t f : fields) io::write_pod(os, f);
  return os.str();
}

template <typename T>
std::string pod(T v) {
  std::ostringstream os(std::ios::binary);
  io::write_pod(os, v);
  return os.str();
}

TEST(HostileHeader, CrispMatrixClaimingSixteenMebiFloats) {
  // An 8x8 matrix with one block, then an fp32 array claiming 2^24 values.
  std::string bytes = pod_bytes({8, 8, 8, 2, 4, 1});
  bytes += pod(std::uint64_t{1}) + pod(std::int32_t{0});
  bytes += pod(std::uint64_t{1} << 24);
  ASSERT_EQ(bytes.size(), 68u);
  std::istringstream is(bytes, std::ios::binary);
  EXPECT_THROW(sparse::CrispMatrix::read(is), std::runtime_error);
}

TEST(HostileHeader, MaskDeltaEntryCountTwoToThe20MinusOne) {
  std::string bytes = pod(std::uint64_t{0x4352535044454C54}) +  // "CRSPDELT"
                      pod(std::uint32_t{2});
  bytes += pod_bytes({kBlock, kN, kM});
  bytes += pod((std::uint64_t{1} << 20) - 1);
  ASSERT_EQ(bytes.size(), 44u);
  std::istringstream is(bytes, std::ios::binary);
  EXPECT_THROW(tenant::MaskDelta::read(is), std::runtime_error);
}

TEST(HostileHeader, PackedModelEntryCountTwoToThe20) {
  std::string bytes = pod(std::uint64_t{0x4352535050414B44}) +  // "CRSPPAKD"
                      pod(std::uint32_t{3});
  bytes += pod_bytes({kN, kM, kBlock});
  bytes += pod(std::uint64_t{1} << 20);
  ASSERT_EQ(bytes.size(), 44u);
  const std::string path = temp_path("hostile.packed");
  spit(path, bytes);
  EXPECT_THROW(deploy::PackedModel::load(path), std::runtime_error);
}

/// A tensor file holding one entry, whose fields after the entry count
/// are `body`.
void expect_tensor_file_rejected(const std::string& body) {
  const std::string path = temp_path("hostile.tensors");
  spit(path, pod(std::uint32_t{0x43525350}) + pod(std::uint32_t{1}) +
                 pod(std::uint64_t{1}) + body);
  EXPECT_THROW(load_tensors(path), std::runtime_error);
}

TEST(HostileHeader, TensorFileNameLengthTwoToThe62) {
  expect_tensor_file_rejected(pod(std::uint64_t{1} << 62));
}

TEST(HostileHeader, TensorFileRankTwoToThe62) {
  expect_tensor_file_rejected(pod(std::uint64_t{1}) + "w" +
                              pod(std::uint64_t{1} << 62));
}

TEST(HostileHeader, TensorFileNameLengthTwoToThe24WithoutName) {
  expect_tensor_file_rejected(pod(std::uint64_t{1} << 24));
}

TEST(HostileHeader, TensorFileShapeWithoutPayload) {
  expect_tensor_file_rejected(pod(std::uint64_t{1}) + "w" +
                              pod(std::uint64_t{2}) +
                              pod_bytes({4096, 4096}));
}

// ---------------------------------------------------------------------------
// Mutation fuzzer. Each mutant of a valid fixture either makes its reader
// throw std::runtime_error, or reads into an object whose rewritten bytes
// read back and rewrite identically. A shard scan either refuses a bad
// header or accounts for every byte of the file.

enum class Family { kDelta, kPacked, kShard, kPayload, kTensorFile };

struct Seed {
  std::string name;
  Family family;
  std::string bytes;
  /// Start of the CRC32C-covered body whose u32 trailer ends the stream;
  /// npos when the stream carries no trailer.
  std::size_t sealed_from;
};

constexpr std::size_t kUnsealed = std::string::npos;

std::vector<Seed> fuzz_seeds() {
  const auto base = base_fixture();
  std::vector<Seed> seeds;
  const std::string delta = delta_bytes(delta_fixture(*base, 1));
  std::string v1 = delta;
  v1[8] = static_cast<char>(1);  // version u32 @8: 2 -> 1
  v1.resize(v1.size() - 4);      // and no trailer
  seeds.push_back({"CRSPDELT v1", Family::kDelta, v1, kUnsealed});
  seeds.push_back({"CRSPDELT v2", Family::kDelta, delta, 12});
  deploy::PackedModel packed = packed_fixture();
  packed.quantize_payloads(/*keep_fp32=*/true);
  seeds.push_back(
      {"CRSPPAKD v2", Family::kPacked, packed_bytes(packed, 2), kUnsealed});
  seeds.push_back(
      {"CRSPPAKD v3", Family::kPacked, packed_bytes(packed, 3), 12});
  seeds.push_back({"CRSPSHRD", Family::kShard, shard_bytes(*base), kUnsealed});
  seeds.push_back({"QuantizedPayload sealed", Family::kPayload,
                   payload_bytes(true), 0});
  seeds.push_back({"QuantizedPayload bare", Family::kPayload,
                   payload_bytes(false), kUnsealed});
  seeds.push_back(
      {"tensor file", Family::kTensorFile, tensor_file_bytes(), kUnsealed});
  return seeds;
}

/// Offsets of every `width`-byte field whose value is below 2^22: where
/// the lengths and counts (and a few small payload words) sit.
std::vector<std::size_t> small_fields(const std::string& b,
                                      std::size_t width) {
  std::vector<std::size_t> out;
  for (std::size_t off = 0; off + width <= b.size(); ++off) {
    std::uint64_t v = 0;
    if (width == 8) {
      std::memcpy(&v, b.data() + off, 8);
    } else {
      std::uint32_t v32 = 0;
      std::memcpy(&v32, b.data() + off, 4);
      v = v32;
    }
    if (v < (std::uint64_t{1} << 22)) out.push_back(off);
  }
  return out;
}

/// Recomputes the trailer CRC, and for a shard every frame's CRC, so the
/// mutant reaches the structural checks behind the checksums.
void reseal(const Seed& seed, std::string& b) {
  if (seed.family == Family::kShard) {
    std::size_t off = 12;
    while (off + 8 <= b.size()) {
      std::uint32_t len = 0;
      std::memcpy(&len, b.data() + off, 4);
      if (len > b.size() - off - 8) break;
      const std::uint32_t crc = io::crc32c(b.data() + off + 8, len);
      std::memcpy(&b[off + 4], &crc, 4);
      off += 8 + len;
    }
    return;
  }
  if (seed.sealed_from == kUnsealed || b.size() < seed.sealed_from + 4) return;
  const std::uint32_t crc = io::crc32c(b.data() + seed.sealed_from,
                                       b.size() - seed.sealed_from - 4);
  std::memcpy(&b[b.size() - 4], &crc, 4);
}

/// One mutant of `seed`. Draws straight from mt19937_64 (no
/// std::uniform_*_distribution, whose output differs across standard
/// libraries), so the corpus is the same everywhere.
std::string mutate(const std::vector<Seed>& seeds, const Seed& seed,
                   std::mt19937_64& rng) {
  std::string b = seed.bytes;
  switch (rng() % 4) {
    case 0: {  // bit flips
      const std::uint64_t flips = 1 + rng() % 4;
      for (std::uint64_t i = 0; i < flips; ++i) {
        const std::size_t at = rng() % b.size();
        b[at] = static_cast<char>(b[at] ^ (1 << (rng() % 8)));
      }
      break;
    }
    case 1:  // truncation
      b.resize(rng() % b.size());
      break;
    case 2: {  // a length or count field overwritten with up to 2^22
      const std::size_t width = rng() % 2 == 0 ? 8 : 4;
      const std::vector<std::size_t> fields = small_fields(b, width);
      const std::uint64_t value = rng() % ((std::uint64_t{1} << 22) + 1);
      if (fields.empty()) break;
      const std::size_t at = fields[rng() % fields.size()];
      if (width == 8) {
        std::memcpy(&b[at], &value, 8);
      } else {
        const auto v32 = static_cast<std::uint32_t>(value);
        std::memcpy(&b[at], &v32, 4);
      }
      break;
    }
    default: {  // splice with a fixture of the same format
      std::vector<const Seed*> mates;
      for (const Seed& s : seeds)
        if (s.family == seed.family) mates.push_back(&s);
      const Seed& mate = *mates[rng() % mates.size()];
      const std::size_t head = rng() % (b.size() + 1);
      const std::size_t tail = rng() % (mate.bytes.size() + 1);
      b = b.substr(0, head) + mate.bytes.substr(tail);
      break;
    }
  }
  if (rng() % 2 == 0) reseal(seed, b);
  return b;
}

/// Reads `bytes` in `seed`'s format and writes the result back out.
std::string rewrite(const Seed& seed, const std::string& bytes) {
  switch (seed.family) {
    case Family::kDelta: {
      std::istringstream is(bytes, std::ios::binary);
      return delta_bytes(tenant::MaskDelta::read(is));
    }
    case Family::kPacked: {
      const std::string in = temp_path("mutant.packed");
      spit(in, bytes);
      return packed_bytes(deploy::PackedModel::load(in), 3);
    }
    case Family::kPayload: {
      const bool sealed = seed.sealed_from != kUnsealed;
      std::istringstream is(bytes, std::ios::binary);
      std::ostringstream os(std::ios::binary);
      sparse::QuantizedPayload::read(is, sealed).write(os, sealed);
      return os.str();
    }
    case Family::kTensorFile: {
      const std::string in = temp_path("mutant.tensors");
      const std::string out = temp_path("rewritten.tensors");
      spit(in, bytes);
      save_tensors(load_tensors(in), out);
      return slurp(out);
    }
    case Family::kShard:
      break;
  }
  throw std::logic_error("rewrite: shards are scanned, not rewritten");
}

/// True when the shard scan accepted the mutant.
bool check_shard(const Seed& seed, const std::string& bytes) {
  const std::string path = temp_path("mutant.shard");
  spit(path, bytes);
  try {
    const tenant::ShardScanResult scan = tenant::scan_shard(path);
    EXPECT_EQ(scan.good_bytes + scan.report.dropped_bytes,
              static_cast<std::int64_t>(bytes.size()));
    EXPECT_EQ(static_cast<std::int64_t>(scan.records.size()),
              scan.report.records);
    return true;
  } catch (const std::runtime_error&) {
    // Only a complete, foreign header may be refused.
    EXPECT_GE(bytes.size(), 12u);
    EXPECT_NE(bytes.compare(0, 12, seed.bytes, 0, 12), 0);
    return false;
  }
}

/// True when the reader accepted the mutant.
bool check_reader(const Seed& seed, const std::string& bytes) {
  std::optional<std::string> once;
  try {
    once = rewrite(seed, bytes);
  } catch (const std::runtime_error&) {
    return false;
  }
  EXPECT_EQ(rewrite(seed, *once), *once) << seed.name;
  return true;
}

TEST(StreamFuzz, EveryMutantThrowsOrRoundTrips) {
  // Fixed budget: 12,000 mutants, about 4 s in the ASan+UBSan Debug build
  // on a 4-core x86 host, about 1 s in Release.
  constexpr int kMutantsPerSeed = 1500;
  const std::vector<Seed> seeds = fuzz_seeds();
  std::mt19937_64 rng(20240311);
  for (const Seed& seed : seeds) {
    int accepted = 0, rejected = 0;
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const std::string mutant = mutate(seeds, seed, rng);
      const bool ok = seed.family == Family::kShard
                          ? check_shard(seed, mutant)
                          : check_reader(seed, mutant);
      (ok ? accepted : rejected) += 1;
      if (::testing::Test::HasFailure()) {
        ADD_FAILURE() << seed.name << " mutant " << i << " of "
                      << mutant.size() << " bytes";
        return;
      }
    }
    // Both outcomes must occur, or the fuzzer is not reaching the reader.
    EXPECT_GT(accepted, 0) << seed.name;
    if (seed.family != Family::kShard) {
      EXPECT_GT(rejected, 0) << seed.name;
    }
    std::printf("%-24s accepted %4d  rejected %4d\n", seed.name.c_str(),
                accepted, rejected);
  }
}

}  // namespace
}  // namespace crisp
