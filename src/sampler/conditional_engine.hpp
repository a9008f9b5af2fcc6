#pragma once

/// \file conditional_engine.hpp
/// \brief Batched incremental conditional engine for exact MADE sampling.
///
/// This is the one implementation of the incremental ancestral draw loop
/// (DESIGN.md §5k) shared by FastMadeSampler (training) and
/// serve::ModelSnapshot (inference).  For each site i it evaluates the
/// logits of the *whole* micro-batch in a single relu_dot_prefix_batch
/// kernel call over W2's row i, read in place in the parameter vector,
/// takes the Bernoulli draws in site-major / row-minor order within each
/// slice's private RNG stream, then applies the rank-1
/// A1 += column_i(W1m) update to exactly the rows that drew 1.  MADE's
/// units are in degree order, so column i is the contiguous run of units
/// [degree_end[i], h) of the caller's W1 column packing
/// (Made::pack_w1_columns): the run's head feeds the next logits and is
/// added at once, its tail is deferred to the end of a 64-site block.
/// Because the batched kernel gives each row bitwise the value of a
/// one-row call, the draw order is unchanged and every element receives
/// its adds in ascending site order, the engine reproduces the historical
/// FastMadeSampler / ModelSnapshot draw streams bit for bit.
///
/// Non-finite conditionals (NaN/inf sigmoid output from an unhealthy
/// parameter vector) are clamped to an unbiased coin p = 0.5 and counted,
/// mirroring AutoregressiveSampler's guard: the uniform is consumed either
/// way, so a healthy run's RNG stream is bit-identical whether or not the
/// guard ever fires.
///
/// All scratch lives in the caller-owned Made::Workspace (`a1_pad` is the
/// running pre-activation block, `logits` the per-site batched logits,
/// `flips` the site's flipped rows, `flip_masks` and `col_ptrs` the
/// deferred block updates), so steady-state calls perform zero
/// allocations once shapes stabilize.

#include <cstdint>
#include <span>

#include "nn/made.hpp"
#include "rng/xoshiro.hpp"
#include "tensor/matrix.hpp"

namespace vqmc {

/// One contiguous run of output rows drawing from a private RNG stream.
/// Rows within a slice consume draws in site-major / row-minor order;
/// distinct slices never touch each other's generator, so a slice's draws
/// do not depend on which other slices share the batch (the serve
/// coalescing-parity contract).  serve::ModelSnapshot::SampleSlice is an
/// alias of this type.
struct DrawSlice {
  std::size_t row_begin = 0;       ///< first output row
  std::size_t row_count = 0;       ///< number of rows
  rng::Xoshiro256* gen = nullptr;  ///< RNG stream for these rows (not owned)
};

/// Draw exact samples from `model`'s autoregressive distribution into
/// `out` (rows(out) x num_spins, filled with {0,1}).  `w1_cols` must be
/// the W1 column packing of the model's current parameters
/// (Made::pack_w1_columns; FastMadeSampler packs into its workspace on each
/// call, a serve snapshot once at construction).  Every slice must
/// reference a valid generator and lie within the batch; slices need not
/// cover every row (uncovered rows stay all-zero and consume no
/// randomness).  Returns the number of non-finite conditionals clamped to
/// the unbiased coin.
std::uint64_t sample_conditionals_batched(const Made& model,
                                          std::span<const Real> w1_cols,
                                          Matrix& out,
                                          std::span<const DrawSlice> slices,
                                          Made::Workspace& ws);

}  // namespace vqmc
