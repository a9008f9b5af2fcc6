#include "tensor/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace vqmc::simd {

namespace {

Level compiled_cap() {
#if VQMC_SIMD_AVX512
  return Level::kAvx512;
#elif VQMC_SIMD_AVX2
  return Level::kAvx2;
#else
  return Level::kGeneric;
#endif
}

Level cpu_level() {
#if defined(__x86_64__) || defined(_M_X64)
#if VQMC_SIMD_AVX2 || VQMC_SIMD_AVX512
  __builtin_cpu_init();
  // Both SIMD tiers also run crc32c on SSE4.2, which every AVX2 CPU has;
  // checking it keeps a masked-off feature from reaching the instruction.
  if (!__builtin_cpu_supports("sse4.2")) return Level::kGeneric;
#if VQMC_SIMD_AVX512
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vl"))
    return Level::kAvx512;
#endif
#if VQMC_SIMD_AVX2
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return Level::kAvx2;
#endif
#endif
#endif
  return Level::kGeneric;
}

Level env_cap() {
  const char* env = std::getenv("VQMC_SIMD_LEVEL");
  if (env == nullptr) return compiled_cap();
  if (std::strcmp(env, "generic") == 0) return Level::kGeneric;
  if (std::strcmp(env, "avx2") == 0) return Level::kAvx2;
  if (std::strcmp(env, "avx512") == 0) return Level::kAvx512;
  return compiled_cap();  // unknown value: ignore rather than fail
}

Level min_level(Level a, Level b) { return a < b ? a : b; }

Level detect_once() {
  return min_level(min_level(cpu_level(), compiled_cap()), env_cap());
}

std::atomic<Level>& forced_cap() {
  static std::atomic<Level> cap{Level::kAvx512};  // i.e. "no cap"
  return cap;
}

}  // namespace

Level detected_level() {
  static const Level level = detect_once();
  return level;
}

Level active_level() {
  return min_level(detected_level(), forced_cap().load(std::memory_order_relaxed));
}

void force_level(Level level) {
  forced_cap().store(level, std::memory_order_relaxed);
}

const char* level_name(Level level) {
  switch (level) {
    case Level::kAvx2:
      return "avx2";
    case Level::kAvx512:
      return "avx512";
    default:
      return "generic";
  }
}

}  // namespace vqmc::simd
