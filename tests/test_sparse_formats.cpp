// Storage-format tests: encode/decode round-trips, sparse GEMM equivalence
// against the dense reference, metadata accounting, and the paper's §III-A
// formulas.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>

#include "core/block_pruning.h"
#include "kernels/simd_dispatch.h"
#include "sparse/mask.h"
#include "sparse/metadata.h"
#include "sparse/nm.h"
#include "sparse/quantized.h"
#include "sparse/spmm.h"
#include "tensor/pod_stream.h"
#include "thread_guard.h"

namespace crisp::sparse {
namespace {

/// Random matrix with the CRISP hybrid pattern: uniform per-row block
/// pruning (prune `pruned_per_row` blocks per block-row) composed with N:M.
Tensor hybrid_matrix(std::int64_t rows, std::int64_t cols, std::int64_t block,
                     std::int64_t n, std::int64_t m,
                     std::int64_t pruned_per_row, Rng& rng) {
  Tensor w = Tensor::randn({rows, cols}, rng);
  // All entries non-zero with probability 1; now impose the pattern.
  Tensor scores = Tensor::rand({rows, cols}, rng, 0.01f, 1.0f);
  Tensor nm = nm_mask(as_matrix(scores, rows, cols), n, m);

  BlockGrid grid{rows, cols, block};
  Tensor bscores = block_scores(as_matrix(scores, rows, cols), grid);
  std::vector<std::int64_t> prune(
      static_cast<std::size_t>(grid.grid_rows()), pruned_per_row);
  Tensor bmask = expand_block_mask(
      uniform_row_block_mask(bscores, grid, prune), grid);

  w.mul_(nm);
  w.mul_(bmask);
  return w;
}

// ---------------------------------------------------------------------------
// CSR and ELLPACK on arbitrary random sparsity.

struct RandomCase {
  std::int64_t rows, cols;
  double density;
};

class UnstructuredFormatTest : public ::testing::TestWithParam<RandomCase> {};

TEST_P(UnstructuredFormatTest, CsrRoundTripAndSpmm) {
  const auto [rows, cols, density] = GetParam();
  Rng rng(rows * 7 + cols);
  Tensor w = Tensor::randn({rows, cols}, rng);
  for (std::int64_t i = 0; i < w.numel(); ++i)
    if (!rng.bernoulli(density)) w[i] = 0.0f;

  const CsrMatrix csr = CsrMatrix::encode(as_matrix(w, rows, cols));
  EXPECT_EQ(csr.nnz(), w.count_nonzero());
  EXPECT_TRUE(allclose(csr.decode(), w, 0.0f, 0.0f));

  Tensor x = Tensor::randn({cols, 5}, rng);
  EXPECT_TRUE(allclose(spmm(csr, x), dense_matmul(w, x), 1e-4f, 1e-4f));
}

TEST_P(UnstructuredFormatTest, EllpackRoundTripAndSpmm) {
  const auto [rows, cols, density] = GetParam();
  Rng rng(rows * 13 + cols);
  Tensor w = Tensor::randn({rows, cols}, rng);
  for (std::int64_t i = 0; i < w.numel(); ++i)
    if (!rng.bernoulli(density)) w[i] = 0.0f;

  const EllpackMatrix ell = EllpackMatrix::encode(as_matrix(w, rows, cols));
  EXPECT_TRUE(allclose(ell.decode(), w, 0.0f, 0.0f));

  Tensor x = Tensor::randn({cols, 3}, rng);
  EXPECT_TRUE(allclose(spmm(ell, x), dense_matmul(w, x), 1e-4f, 1e-4f));

  EXPECT_GE(ell.padding_fraction(), 0.0);
  EXPECT_LE(ell.padding_fraction(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Densities, UnstructuredFormatTest,
    ::testing::Values(RandomCase{8, 16, 0.5}, RandomCase{16, 32, 0.1},
                      RandomCase{5, 7, 0.3}, RandomCase{1, 64, 0.25},
                      RandomCase{32, 8, 0.9}, RandomCase{12, 12, 0.02}));

TEST(Csr, EmptyMatrix) {
  Tensor w = Tensor::zeros({4, 8});
  const CsrMatrix csr = CsrMatrix::encode(as_matrix(w, 4, 8));
  EXPECT_EQ(csr.nnz(), 0);
  EXPECT_TRUE(allclose(csr.decode(), w, 0.0f, 0.0f));
  EXPECT_EQ(csr.payload_bits(), 0);
}

TEST(Ellpack, UnevenRowsPad) {
  Tensor w({2, 4}, {1, 2, 3, 4,   //
                    0, 0, 0, 5});
  const EllpackMatrix ell = EllpackMatrix::encode(as_matrix(w, 2, 4));
  EXPECT_EQ(ell.width(), 4);
  EXPECT_NEAR(ell.padding_fraction(), 3.0 / 8.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Blocked-ELL.

TEST(BlockedEll, RoundTripSpmmAndMetadata) {
  Rng rng(3);
  // 2 of 4 block columns pruned per row, no N:M (n = m).
  Tensor w = hybrid_matrix(8, 16, 4, 4, 4, 2, rng);
  const BlockedEllMatrix bell = BlockedEllMatrix::encode(as_matrix(w, 8, 16), 4);
  EXPECT_EQ(bell.blocks_per_row(), 2);
  EXPECT_TRUE(allclose(bell.decode(), w, 0.0f, 0.0f));

  Tensor x = Tensor::randn({16, 6}, rng);
  EXPECT_TRUE(allclose(spmm(bell, x), dense_matmul(w, x), 1e-4f, 1e-4f));

  // 2 block rows x 2 surviving blocks x ceil(log2(4)) = 2 bits.
  EXPECT_EQ(bell.metadata_bits(), 2 * 2 * 2);
}

TEST(BlockedEll, RejectsNonUniformRows) {
  Tensor w = Tensor::zeros({4, 8});
  w.at({0, 0}) = 1.0f;  // block row 0 has 1 survivor
  // block row 1 has 2 survivors.
  w.at({2, 0}) = 1.0f;
  w.at({2, 4}) = 1.0f;
  EXPECT_THROW(BlockedEllMatrix::encode(as_matrix(w, 4, 8), 2),
               std::runtime_error);
}

TEST(BlockedEll, HandlesRemainderBlocks) {
  Rng rng(4);
  Tensor w = Tensor::randn({5, 10}, rng);  // 4-blocks leave remainders
  const BlockedEllMatrix bell = BlockedEllMatrix::encode(as_matrix(w, 5, 10), 4);
  EXPECT_TRUE(allclose(bell.decode(), w, 0.0f, 0.0f));
  Tensor x = Tensor::randn({10, 2}, rng);
  EXPECT_TRUE(allclose(spmm(bell, x), dense_matmul(w, x), 1e-4f, 1e-4f));
}

// ---------------------------------------------------------------------------
// CRISP hybrid format.

struct CrispCase {
  std::int64_t rows, cols, block, n, m, pruned_per_row;
};

class CrispFormatTest : public ::testing::TestWithParam<CrispCase> {};

TEST_P(CrispFormatTest, RoundTripAndSpmm) {
  const auto [rows, cols, block, n, m, pruned] = GetParam();
  Rng rng(rows + cols + block + n);
  Tensor w = hybrid_matrix(rows, cols, block, n, m, pruned, rng);
  const CrispMatrix cm = CrispMatrix::encode(as_matrix(w, rows, cols), block, n, m);

  EXPECT_TRUE(allclose(cm.decode(), w, 0.0f, 0.0f));
  Tensor x = Tensor::randn({cols, 4}, rng);
  EXPECT_TRUE(allclose(spmm(cm, x), dense_matmul(w, x), 1e-4f, 1e-4f));

  // Slot accounting: kept blocks x block rows x groups x n.
  const std::int64_t expected_blocks_per_row =
      cm.grid().grid_cols() - pruned;
  EXPECT_EQ(cm.blocks_per_row(), expected_blocks_per_row);
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, CrispFormatTest,
    ::testing::Values(CrispCase{8, 16, 4, 2, 4, 1},
                      CrispCase{16, 32, 8, 1, 4, 2},
                      CrispCase{16, 32, 8, 3, 4, 0},
                      CrispCase{4, 64, 4, 2, 4, 10},
                      CrispCase{32, 16, 16, 2, 4, 0},
                      CrispCase{8, 24, 4, 1, 2, 3}));

TEST(CrispFormat, RejectsNmViolation) {
  Tensor w = Tensor::zeros({4, 8});
  // 3 non-zeros in the first group of 4 violates 2:4.
  w.at({0, 0}) = w.at({0, 1}) = w.at({0, 2}) = 1.0f;
  for (std::int64_t r = 1; r < 4; ++r) w.at({r, 0}) = 1.0f;
  EXPECT_THROW(CrispMatrix::encode(as_matrix(w, 4, 8), 4, 2, 4),
               std::runtime_error);
}

TEST(CrispFormat, RejectsBlockNotMultipleOfM) {
  Tensor w = Tensor::ones({4, 8});
  EXPECT_THROW(CrispMatrix::encode(as_matrix(w, 4, 8), 6, 2, 4),
               std::runtime_error);
}

TEST(CrispFormat, MetadataBeatsCsrAndEllpackOnHybridPattern) {
  // The Fig. 4 (right) comparison on a realistic layer shape.
  Rng rng(9);
  const std::int64_t rows = 64, cols = 256, block = 16;
  Tensor w = hybrid_matrix(rows, cols, block, 2, 4, 8, rng);  // half blocks gone

  const CrispMatrix cm = CrispMatrix::encode(as_matrix(w, rows, cols), block, 2, 4);
  const CsrMatrix csr = CsrMatrix::encode(as_matrix(w, rows, cols));
  const EllpackMatrix ell = EllpackMatrix::encode(as_matrix(w, rows, cols));

  EXPECT_LT(cm.metadata_bits(), csr.metadata_bits());
  EXPECT_LT(cm.metadata_bits(), ell.metadata_bits());
  // The paper reports roughly 5x / 7x; structured metadata should win by a
  // comfortable integer factor here.
  EXPECT_GT(static_cast<double>(csr.metadata_bits()) /
                static_cast<double>(cm.metadata_bits()),
            2.0);
}

// ---------------------------------------------------------------------------
// Quantized int8 payloads (sparse/quantized.h and the CrispMatrix carrier).

TEST(QuantizedPayload, RoundTripErrorBoundedPerElement) {
  Rng rng(21);
  // 257 elements straddle every group size (ragged last group included).
  const Tensor v = Tensor::randn({257}, rng);
  for (const std::int64_t group : {1LL, 7LL, 64LL, 300LL}) {
    const QuantizedPayload qp =
        QuantizedPayload::quantize(v.data(), v.numel(), group);
    ASSERT_EQ(qp.slot_count(), v.numel());
    ASSERT_EQ(static_cast<std::int64_t>(qp.scales.size()),
              (v.numel() + group - 1) / group);
    const std::vector<float> back = qp.dequantized();
    for (std::int64_t i = 0; i < v.numel(); ++i) {
      // The scheme's bound: |dequant(quant(x)) - x| <= scale / 2, with a
      // hair of slack for the float division/multiplication rounding.
      const float scale = qp.scale_for(i);
      EXPECT_LE(std::fabs(back[static_cast<std::size_t>(i)] - v[i]),
                0.5f * scale * 1.0001f)
          << "group " << group << ", element " << i;
    }
  }
}

TEST(QuantizedPayload, ZerosAndExtremesAreExact) {
  // One all-zero group (scale 0), one group whose max magnitude must land
  // exactly on ±127, and interior exact zeros that must stay exact.
  const std::int64_t group = 4;
  Tensor v({8}, {0.0f, 0.0f, 0.0f, 0.0f,  //
                 -2.0f, 0.0f, 0.5f, 2.0f});
  const QuantizedPayload qp = QuantizedPayload::quantize(v.data(), 8, group);
  EXPECT_EQ(qp.scales[0], 0.0f);
  EXPECT_EQ(qp.scales[1], 2.0f / 127.0f);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(qp.values[static_cast<std::size_t>(i)], 0);
  EXPECT_EQ(qp.values[4], -127);
  EXPECT_EQ(qp.values[5], 0);   // exact zero stays exact
  EXPECT_EQ(qp.values[7], 127);
  const std::vector<float> back = qp.dequantized();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(back[static_cast<std::size_t>(i)], 0.0f);
  EXPECT_EQ(back[5], 0.0f);
  EXPECT_FLOAT_EQ(back[4], -2.0f);
  EXPECT_FLOAT_EQ(back[7], 2.0f);
}

TEST(QuantizedPayload, DenormalGroupMaxKeepsTheErrorBound) {
  // amax / 127 underflows to 0 for denormal group maxima; the scale must
  // not collapse to the all-zero branch (which would break the
  // |err| <= scale/2 contract) — it is bumped to the smallest normal
  // float, under which every such value rounds to q = 0 within bound.
  Tensor v({4}, {1e-44f, -1.0e-43f, 0.0f, 1.5e-43f});
  const QuantizedPayload qp = QuantizedPayload::quantize(v.data(), 4, 4);
  ASSERT_EQ(qp.scales.size(), 1u);
  EXPECT_GT(qp.scales[0], 0.0f);
  const std::vector<float> back = qp.dequantized();
  for (int i = 0; i < 4; ++i)
    EXPECT_LE(std::fabs(back[static_cast<std::size_t>(i)] - v[i]),
              0.5f * qp.scales[0])
        << "element " << i;
}

TEST(QuantizedPayload, EmptyAndBadArguments) {
  const QuantizedPayload empty = QuantizedPayload::quantize(nullptr, 0, 16);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.payload_bits(), 0);
  float v = 1.0f;
  EXPECT_THROW(QuantizedPayload::quantize(&v, 1, 0), std::runtime_error);
}

/// Reads a payload from raw bytes, as a deserializer under attack would.
QuantizedPayload read_payload_bytes(const std::string& bytes) {
  std::stringstream is(std::ios::in | std::ios::out | std::ios::binary);
  is.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return QuantizedPayload::read(is);
}

TEST(QuantizedPayload, StreamRejectsTruncationAtEveryPrefix) {
  Rng rng(11);
  Tensor v = Tensor::randn({64}, rng);
  const QuantizedPayload qp = QuantizedPayload::quantize(v.data(), 64, 16);
  std::stringstream os(std::ios::in | std::ios::out | std::ios::binary);
  qp.write(os);
  const std::string bytes = os.str();

  // Sanity: the full stream round-trips bit-exactly.
  const QuantizedPayload back = read_payload_bytes(bytes);
  EXPECT_EQ(back.group_size, qp.group_size);
  EXPECT_EQ(back.values, qp.values);
  EXPECT_EQ(back.scales, qp.scales);

  // Every strict prefix must throw the documented runtime_error — no
  // crash, no silently short payload (exercised under ASan in CI).
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW(read_payload_bytes(bytes.substr(0, cut)), std::runtime_error)
        << "prefix of " << cut << " bytes parsed";
  }
}

TEST(QuantizedPayload, StreamRejectsCorruptHeaders) {
  Rng rng(12);
  Tensor v = Tensor::randn({32}, rng);
  const QuantizedPayload qp = QuantizedPayload::quantize(v.data(), 32, 8);

  const auto serialize = [](std::int64_t group_size,
                            const std::vector<std::int8_t>& values,
                            const std::vector<float>& scales) {
    std::stringstream os(std::ios::in | std::ios::out | std::ios::binary);
    io::write_pod(os, group_size);
    io::write_array(os, values);
    io::write_array(os, scales);
    return os.str();
  };

  // Corrupt scale-group count: one extra and one missing scale both break
  // the ceil(slots / group_size) invariant.
  std::vector<float> extra = qp.scales;
  extra.push_back(1.0f);
  EXPECT_THROW(read_payload_bytes(serialize(qp.group_size, qp.values, extra)),
               std::runtime_error);
  std::vector<float> missing = qp.scales;
  missing.pop_back();
  EXPECT_THROW(
      read_payload_bytes(serialize(qp.group_size, qp.values, missing)),
      std::runtime_error);

  // Non-positive group size with a non-empty payload.
  EXPECT_THROW(read_payload_bytes(serialize(0, qp.values, qp.scales)),
               std::runtime_error);
  EXPECT_THROW(read_payload_bytes(serialize(-8, qp.values, qp.scales)),
               std::runtime_error);

  // Empty payload carrying leftover header state.
  EXPECT_THROW(read_payload_bytes(serialize(8, {}, {})), std::runtime_error);
  EXPECT_THROW(read_payload_bytes(serialize(0, {}, {1.0f})),
               std::runtime_error);

  // Implausible element count: must throw the documented error instead of
  // attempting a huge allocation (length_error/bad_alloc).
  std::stringstream huge(std::ios::in | std::ios::out | std::ios::binary);
  io::write_pod(huge, std::int64_t{8});
  io::write_pod(huge, std::uint64_t{1} << 40);
  EXPECT_THROW(QuantizedPayload::read(huge), std::runtime_error);
}

class CrispQuantizedTest : public CrispFormatTest {};

TEST_P(CrispQuantizedTest, QuantizedSpmmAndDecodeWithinScaleBound) {
  const auto [rows, cols, block, n, m, pruned] = GetParam();
  Rng rng(rows + cols + block + n + 1);
  Tensor w = hybrid_matrix(rows, cols, block, n, m, pruned, rng);
  CrispMatrix cm = CrispMatrix::encode(as_matrix(w, rows, cols), block, n, m);
  cm.quantize_payload();
  ASSERT_TRUE(cm.has_quantized());
  ASSERT_TRUE(cm.has_fp32());  // "alongside" mode keeps both payloads

  // Per-element decode error obeys the per-block-row scale bound.
  CrispMatrix qcm = cm;
  qcm.release_fp32_payload();
  ASSERT_FALSE(qcm.has_fp32());
  const Tensor dec = cm.decode(), qdec = qcm.decode();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float scale =
        qcm.quantized_payload().scales[static_cast<std::size_t>(r / block)];
    for (std::int64_t c = 0; c < cols; ++c)
      EXPECT_LE(std::fabs(qdec[r * cols + c] - dec[r * cols + c]),
                0.5f * scale * 1.0001f)
          << "element (" << r << ", " << c << ")";
  }

  // The dequantize-on-the-fly spmm is exact for the quantized weights:
  // same multiplications as a dense product with the dequantized matrix.
  Rng xrng(99);
  const Tensor x = Tensor::randn({cols, 4}, xrng);
  const Tensor want = dense_matmul(qdec, x);
  Tensor got({rows, 4});
  cm.spmm_quantized(as_matrix(x, cols, 4), as_matrix(got, rows, 4));
  EXPECT_TRUE(allclose(got, want, 1e-4f, 1e-4f));
  // And the released matrix routes plain spmm() to the same path.
  EXPECT_FLOAT_EQ(max_abs_diff(spmm(qcm, x), got), 0.0f);
}

TEST_P(CrispQuantizedTest, StreamRoundTripCarriesQuantizedPayload) {
  const auto [rows, cols, block, n, m, pruned] = GetParam();
  Rng rng(rows + cols + block + n + 2);
  Tensor w = hybrid_matrix(rows, cols, block, n, m, pruned, rng);
  CrispMatrix cm = CrispMatrix::encode(as_matrix(w, rows, cols), block, n, m);
  cm.quantize_payload();

  // Alongside mode: both payloads survive the stream.
  std::stringstream both(std::ios::in | std::ios::out | std::ios::binary);
  cm.write(both);
  const CrispMatrix back = CrispMatrix::read(both);
  EXPECT_TRUE(back.has_fp32());
  EXPECT_TRUE(back.has_quantized());
  EXPECT_EQ(back.payload_bits(), cm.payload_bits());
  EXPECT_FLOAT_EQ(max_abs_diff(back.decode(), cm.decode()), 0.0f);

  // int8-only mode: the artifact shrinks and still decodes/multiplies.
  cm.release_fp32_payload();
  std::stringstream qonly(std::ios::in | std::ios::out | std::ios::binary);
  cm.write(qonly);
  const CrispMatrix qback = CrispMatrix::read(qonly);
  EXPECT_FALSE(qback.has_fp32());
  EXPECT_TRUE(qback.has_quantized());
  EXPECT_FLOAT_EQ(max_abs_diff(qback.decode(), cm.decode()), 0.0f);
  if (cm.slot_count() > 0) {
    // 8 bits per slot + one fp32 scale per block-row, vs 32 per slot.
    EXPECT_LT(qback.payload_bits(), cm.slot_count() * 32);
    EXPECT_EQ(qback.payload_bits(),
              cm.slot_count() * 8 +
                  static_cast<std::int64_t>(
                      cm.quantized_payload().scales.size()) *
                      32);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, CrispQuantizedTest,
    ::testing::Values(CrispCase{8, 16, 4, 2, 4, 1},
                      CrispCase{16, 32, 8, 1, 4, 2},
                      // Tail shapes: rows/cols not multiples of the block.
                      CrispCase{36, 32, 8, 2, 4, 1},
                      CrispCase{25, 50, 8, 1, 4, 2},
                      CrispCase{4, 64, 4, 2, 4, 10},
                      CrispCase{8, 24, 4, 1, 2, 3}));

TEST(CrispQuantized, AllZeroMatrixQuantizes) {
  // Every block pruned: no surviving blocks, no slots, no scales — the
  // degenerate "all-zero block rows" case must stay well-formed.
  Tensor w = Tensor::zeros({8, 16});
  CrispMatrix cm = CrispMatrix::encode(as_matrix(w, 8, 16), 4, 2, 4);
  EXPECT_EQ(cm.slot_count(), 0);
  cm.quantize_payload();
  EXPECT_FALSE(cm.has_quantized());  // nothing to quantize
  Rng rng(3);
  const Tensor x = Tensor::randn({16, 3}, rng);
  EXPECT_FLOAT_EQ(spmm(cm, x).abs_max(), 0.0f);
}

TEST(CrispQuantized, PerBlockRowScalesIsolateBands) {
  // A block survives with tiny values in one block-row and zeros rounded
  // in: per-block-row scales must isolate the bands (big row's scale does
  // not smear into the small row's band).
  Tensor w = Tensor::zeros({8, 8});
  w.at({0, 0}) = 100.0f;  // block-row 0, big magnitude
  w.at({4, 0}) = 0.001f;  // block-row 1, tiny magnitude
  CrispMatrix cm = CrispMatrix::encode(as_matrix(w, 8, 8), 4, 2, 4);
  cm.quantize_payload();
  ASSERT_EQ(cm.quantized_payload().scales.size(), 2u);
  EXPECT_FLOAT_EQ(cm.quantized_payload().scales[0], 100.0f / 127.0f);
  EXPECT_FLOAT_EQ(cm.quantized_payload().scales[1], 0.001f / 127.0f);
  cm.release_fp32_payload();
  const Tensor dec = cm.decode();
  EXPECT_NEAR(dec[0], 100.0f, 100.0f / 127.0f / 2.0f);
  EXPECT_NEAR(dec[4 * 8], 0.001f, 0.001f / 127.0f / 2.0f);
}

TEST(CrispQuantized, ReleaseWithoutQuantizeThrows) {
  Rng rng(5);
  Tensor w = hybrid_matrix(8, 16, 4, 2, 4, 1, rng);
  CrispMatrix cm = CrispMatrix::encode(as_matrix(w, 8, 16), 4, 2, 4);
  EXPECT_THROW(cm.release_fp32_payload(), std::runtime_error);
  cm.quantize_payload();
  cm.release_fp32_payload();
  EXPECT_THROW(cm.quantize_payload(), std::runtime_error);
}

TEST(CrispFormat, ReadRejectsOversizedSidesBeforeGridArithmetic) {
  // cols = INT64_MAX would overflow BlockGrid::grid_cols() (cols + block -
  // 1); the header must be refused before any grid arithmetic runs.
  std::stringstream is(std::ios::in | std::ios::out | std::ios::binary);
  io::write_pod(is, std::int64_t{8});                           // rows
  io::write_pod(is, std::numeric_limits<std::int64_t>::max());  // cols
  io::write_pod(is, std::int64_t{4});                           // block
  io::write_pod(is, std::int64_t{2});                           // n
  io::write_pod(is, std::int64_t{4});                           // m
  io::write_pod(is, std::int64_t{0});                           // blocks/row
  EXPECT_THROW(CrispMatrix::read(is), std::runtime_error);
}

// ---------------------------------------------------------------------------
// spmm_restricted: the in-place restriction the tenant overlay serves
// through must compute bitwise what the materialized restriction computes.

enum class Payload { kFp32, kInt8, kBoth };

CrispMatrix with_payload(CrispMatrix cm, Payload payload) {
  if (payload != Payload::kFp32) cm.quantize_payload();
  if (payload == Payload::kInt8) cm.release_fp32_payload();
  return cm;
}

/// Keeps `keep` seed-chosen stored blocks in every block-row.
std::vector<std::uint8_t> kept_bitmap(const CrispMatrix& cm, std::int64_t keep,
                                      Rng& rng) {
  const std::int64_t bpr = cm.blocks_per_row();
  const std::int64_t total = cm.grid().grid_rows() * bpr;
  std::vector<std::uint8_t> bits(static_cast<std::size_t>((total + 7) / 8), 0);
  for (std::int64_t br = 0; br < cm.grid().grid_rows(); ++br)
    for (const std::int64_t i : rng.sample_without_replacement(bpr, keep)) {
      const std::int64_t pos = br * bpr + i;
      bits[static_cast<std::size_t>(pos >> 3)] |=
          static_cast<std::uint8_t>(1u << (pos & 7));
    }
  return bits;
}

class CrispRestrictedTest : public CrispFormatTest {};

TEST_P(CrispRestrictedTest, BitwiseEqualToMaterializedRestriction) {
  const auto [rows, cols, block, n, m, pruned] = GetParam();
  Rng rng(rows * 3 + cols + block);
  const CrispMatrix encoded = CrispMatrix::encode(
      as_matrix(hybrid_matrix(rows, cols, block, n, m, pruned, rng), rows,
                cols),
      block, n, m);
  const std::int64_t bpr = encoded.blocks_per_row();
  ASSERT_GT(bpr, 1) << "fixture must leave a proper subset to keep";
  const std::int64_t gr = encoded.grid().grid_rows();
  std::vector<float> scales;
  for (std::int64_t br = 0; br < gr; ++br)
    scales.push_back(0.01f * static_cast<float>(br + 1));

  crisp::testing::ThreadGuard guard;
  for (const Payload payload : {Payload::kFp32, Payload::kInt8, Payload::kBoth})
    for (const std::int64_t keep : {std::int64_t{0}, std::int64_t{1}, bpr})
      for (const bool scaled : {false, true})
        for (const std::int64_t p : {std::int64_t{1}, std::int64_t{8}}) {
          const CrispMatrix cm = with_payload(encoded, payload);
          const std::vector<std::uint8_t> kept = kept_bitmap(cm, keep, rng);
          const std::vector<float> row_scales =
              scaled ? scales : std::vector<float>{};
          CrispMatrix ref = cm.restricted_to_blocks(kept, keep);
          if (scaled && ref.has_quantized()) ref.override_row_scales(scales);
          const Tensor x = Tensor::randn({cols, p}, rng);
          Tensor want({rows, p});
          ref.spmm(as_matrix(x, cols, p), as_matrix(want, rows, p));

          const auto run = [&] {
            Tensor got = Tensor::full({rows, p}, 7.0f);  // spmm overwrites
            cm.spmm_restricted(as_matrix(x, cols, p), as_matrix(got, rows, p),
                               kept, keep, row_scales);
            return got;
          };
          const auto bitwise_equal = [&](const Tensor& got) {
            return std::memcmp(got.data(), want.data(),
                               static_cast<std::size_t>(want.numel()) *
                                   sizeof(float)) == 0;
          };
          const auto where = [&] {
            std::ostringstream os;
            os << "payload " << static_cast<int>(payload) << ", keep " << keep
               << "/" << bpr << ", scaled " << scaled << ", p " << p;
            return os.str();
          };
          for (const int threads : {1, 2, 8}) {
            kernels::set_num_threads(threads);
            EXPECT_TRUE(bitwise_equal(run()))
                << where() << ", " << threads << " threads";
          }
          kernels::simd::TierScope scalar(kernels::simd::Tier::kScalar);
          Tensor scalar_want({rows, p});
          ref.spmm(as_matrix(x, cols, p), as_matrix(scalar_want, rows, p));
          want = scalar_want;
          EXPECT_TRUE(bitwise_equal(run())) << where() << ", scalar tier";
        }
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, CrispRestrictedTest,
    ::testing::Values(CrispCase{16, 32, 8, 2, 4, 1},
                      // Ragged: rows and cols not multiples of the block.
                      CrispCase{36, 50, 8, 2, 4, 2},
                      CrispCase{25, 30, 4, 1, 4, 3},
                      // Enough work per block-row to split across threads.
                      CrispCase{100, 198, 8, 2, 4, 5}));

TEST(CrispRestricted, RejectsMisshapenArguments) {
  Rng rng(21);
  const CrispMatrix cm = CrispMatrix::encode(
      as_matrix(hybrid_matrix(16, 32, 8, 2, 4, 1, rng), 16, 32), 8, 2, 4);
  const std::vector<std::uint8_t> kept = kept_bitmap(cm, 1, rng);
  const Tensor x = Tensor::randn({32, 2}, rng);
  Tensor y({16, 2});
  const auto call = [&](const std::vector<std::uint8_t>& bits,
                        std::int64_t keep, const std::vector<float>& scales) {
    cm.spmm_restricted(as_matrix(x, 32, 2), as_matrix(y, 16, 2), bits, keep,
                       scales);
  };
  EXPECT_NO_THROW(call(kept, 1, {}));
  EXPECT_THROW(call({}, 1, {}), std::runtime_error);           // bitmap size
  EXPECT_THROW(call(kept, cm.blocks_per_row() + 1, {}),        // keep > bpr
               std::runtime_error);
  EXPECT_THROW(call(kept, 1, {1.0f}), std::runtime_error);     // scale count
}

// ---------------------------------------------------------------------------
// Metadata formulas (§III-A).

TEST(Metadata, BitsForIndex) {
  EXPECT_EQ(bits_for_index(1), 1);
  EXPECT_EQ(bits_for_index(2), 1);
  EXPECT_EQ(bits_for_index(3), 2);
  EXPECT_EQ(bits_for_index(4), 2);
  EXPECT_EQ(bits_for_index(5), 3);
  EXPECT_EQ(bits_for_index(1024), 10);
  EXPECT_THROW(bits_for_index(0), std::runtime_error);
}

TEST(Metadata, PaperFormulas) {
  // S=64, K'=128, B=16: (64 * 128 * floor(log2(8))) / 256 = 96 bits.
  EXPECT_EQ(paper_block_metadata_bits(64, 128, 16), 64 * 128 * 3 / 256);
  // S=64, K'=128, 2:4: 64 * 128 * (2/4) * floor(log2 4) = 8192 bits.
  EXPECT_EQ(paper_nm_metadata_bits(64, 128, 2, 4), 8192);
  EXPECT_DOUBLE_EQ(paper_average_sparsity(256, 128, 2, 4), 0.75);
  EXPECT_DOUBLE_EQ(paper_average_sparsity(256, 256, 4, 4), 0.0);
}

TEST(Metadata, KPrimeForSparsity) {
  // κ = 0.875 at 1:4 -> keep half the columns.
  const std::int64_t kp = k_prime_for_sparsity(256, 16, 1, 4, 0.875);
  EXPECT_EQ(kp, 128);
  EXPECT_EQ(kp % 16, 0);
  EXPECT_GE(paper_average_sparsity(256, kp, 1, 4), 0.875);

  // Unreachable κ below the N:M floor keeps everything.
  EXPECT_EQ(k_prime_for_sparsity(256, 16, 2, 4, 0.1), 256);
  // Extreme κ still keeps at least one block.
  EXPECT_GE(k_prime_for_sparsity(256, 16, 2, 4, 0.999), 16);
}

}  // namespace
}  // namespace crisp::sparse
