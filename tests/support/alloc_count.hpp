#pragma once

/// \file alloc_count.hpp
/// \brief Binary-wide heap-allocation counter for zero-allocation tests.
///
/// alloc_count.cpp replaces the global operator new/delete pairs (plain and
/// aligned, so AlignedBuffer tensor storage counts too) with a counting
/// shim; link it into the test target (sources list) and assert
/// `allocation_count()` does not move across a span that must stay off the
/// heap, or bound `allocated_bytes()` across a span that may build only a
/// known amount. Only one test binary may link the .cpp once — the
/// replacement is process-global.

#include <cstdint>

namespace vqmc::testing {

/// Heap allocations made by this binary since process start.
[[nodiscard]] std::uint64_t allocation_count();

/// Bytes requested by those allocations (before any alignment rounding).
[[nodiscard]] std::uint64_t allocated_bytes();

}  // namespace vqmc::testing
