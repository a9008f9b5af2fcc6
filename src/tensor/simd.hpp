#pragma once

/// \file simd.hpp
/// \brief Runtime SIMD dispatch for the tensor kernels (DESIGN.md §5g).
///
/// The hot gemm and prefix kernels are compiled three times — a generic C++
/// build, an AVX2+FMA build, and an AVX-512 build — and the public entry
/// points in kernels.hpp pick one implementation at runtime from the CPU's
/// capabilities.  The per-ISA translation units are gated at configure
/// time (CMake option `VQMC_SIMD`, x86-64 only, compiler support checked),
/// so a generic build contains exactly one implementation and no intrinsic
/// ever reaches a machine that cannot execute it.
///
/// Determinism contract: the selected level is fixed for the lifetime of
/// the process (first use latches it), every implementation uses a fixed
/// blocking and lane-combination order, and none of them consults thread
/// count or data values — so results are bitwise reproducible run-to-run
/// on the same build and machine.  Different levels (and therefore
/// different machines) may differ by the documented ULP bound; see the
/// "accumulation-order contract" note in kernels.hpp.
///
/// `VQMC_SIMD_LEVEL=generic|avx2|avx512` in the environment caps the
/// detected level (it can only lower it), and `force_simd_level()` does
/// the same in-process — the parity tests use it to run the fallback
/// implementations on hardware that would normally dispatch higher.

#include <cstdint>

namespace vqmc::simd {

/// Instruction-set tiers, ordered: a CPU at level L can run every level
/// <= L.
enum class Level : std::uint8_t {
  kGeneric = 0,  ///< portable C++ (independent scalar accumulator chains)
  kAvx2 = 1,     ///< AVX2 + FMA, 4 doubles per vector
  kAvx512 = 2,   ///< AVX-512 F/DQ/VL, 8 doubles per vector
};

/// The dispatch level in effect: min(detected CPU level, compiled-in
/// level, environment cap, forced cap).  Latched on first call.
Level active_level();

/// Highest level the running CPU supports among those compiled in.
Level detected_level();

/// Cap the active level in-process (testing hook; pass a level above the
/// detected one to restore full dispatch).  Takes effect immediately —
/// callers must not race kernel invocations against it.
void force_level(Level level);

/// Human-readable level name ("generic" / "avx2" / "avx512").
const char* level_name(Level level);

}  // namespace vqmc::simd
