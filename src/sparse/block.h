// Coarse-grained block sparsity (paper §III-A / §III-C).
//
// The reshaped S x K weight matrix is partitioned into a grid of B x B
// blocks (trailing blocks may be smaller when S or K is not a multiple of
// B). CRISP prunes an *equal number of blocks from every block-row*, which
// is what gives the accelerator its uniform workload balance; this module
// provides the per-layer pieces (grids, scores, per-row rank pruning) that
// core/block_pruning composes across layers.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "tensor/tensor.h"

namespace crisp::sparse {

/// Largest matrix side (rows, cols or block) an artifact header may
/// declare. Block columns are stored as int32, and the bound keeps every
/// product of two grid extents inside int64, so a reader checks a header
/// against it before doing any arithmetic on the header.
constexpr std::int64_t kMaxMatrixSide =
    std::numeric_limits<std::int32_t>::max();

struct BlockGrid {
  std::int64_t rows = 0;   ///< matrix rows S
  std::int64_t cols = 0;   ///< matrix cols K
  std::int64_t block = 0;  ///< block side B

  std::int64_t grid_rows() const { return (rows + block - 1) / block; }
  std::int64_t grid_cols() const { return (cols + block - 1) / block; }
  std::int64_t row_extent(std::int64_t br) const {
    return std::min(block, rows - br * block);
  }
  std::int64_t col_extent(std::int64_t bc) const {
    return std::min(block, cols - bc * block);
  }
};

/// Per-block score: sum of |scores| over the block's elements (Alg. 1 l.5).
/// Returns a (grid_rows, grid_cols) tensor.
Tensor block_scores(ConstMatrixView scores, const BlockGrid& grid);

/// Per-row rank pruning: for block-row r, zero out the `prune_per_row[r]`
/// blocks with the lowest scores (ties toward lower column). Returns the
/// block-level mask (grid_rows, grid_cols) of survivors.
Tensor uniform_row_block_mask(const Tensor& scores, const BlockGrid& grid,
                              const std::vector<std::int64_t>& prune_per_row);

/// Expands a block-level mask to the full element-level (rows, cols) mask.
Tensor expand_block_mask(const Tensor& block_mask, const BlockGrid& grid);

/// Element mask -> per-block-row count of fully-zero blocks. A block counts
/// as pruned only when all its elements are zero.
std::vector<std::int64_t> zero_blocks_per_row(ConstMatrixView mask,
                                              const BlockGrid& grid);

/// True when every block-row has the same number of fully-zero blocks.
bool uniform_blocks_per_row(ConstMatrixView mask, const BlockGrid& grid);

}  // namespace crisp::sparse
