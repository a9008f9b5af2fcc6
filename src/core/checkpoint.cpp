#include "core/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/error.hpp"
#include "tensor/kernels.hpp"

namespace vqmc {

bool fsync_parent_directory(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, std::max<std::size_t>(slash, 1));
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  return synced;
#else
  (void)path;
  return true;  // no portable directory sync; the data fsync already ran
#endif
}

namespace {

/// CRC-32C, MADE's hidden units in ascending degree order.
constexpr std::uint64_t kParamMagic = 0x56514d43'43503033ULL;  // "VQMCCP03"
/// The parameter format before CRC-32C (FNV-1a over the parameters only).
constexpr std::uint64_t kParamMagicFnv = 0x56514d43'43503031ULL;  // "VQMCCP01"
/// "VQMCCP02": CRC-32C, MADE's hidden units in cyclic degree order.
constexpr std::uint64_t kParamMagicCyclic = 0x56514d43'43503032ULL;
constexpr std::uint64_t kTrainMagic = 0x56514d43'54533031ULL;  // "VQMCTS01"
/// 3: MADE's hidden units in ascending degree order; version 2 stored them
/// in cyclic order, version 1 carried an FNV-1a trailer.
constexpr std::uint64_t kTrainVersion = 3;

struct Header {
  std::uint64_t magic = kParamMagic;
  std::uint64_t num_spins = 0;
  std::uint64_t num_parameters = 0;
  std::uint64_t name_length = 0;
};

/// Write `bytes` of `data` to `path` crash-safely: serialize to
/// `<path>.tmp`, flush to stable storage, then atomically rename over
/// `path` and fsync the parent directory. A crash at any point leaves
/// either the old file or the new one — never a torn mix — and the rename
/// itself is durable: without the directory fsync, a power loss right after
/// rename() can roll the directory entry back to the old file (or to
/// nothing, for a first-ever checkpoint) on journaled filesystems.
void write_file_atomic(const std::string& path, const void* data,
                       std::size_t bytes) {
  const std::string tmp = path + ".tmp";
#if defined(__unix__) || defined(__APPLE__)
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  VQMC_REQUIRE(fd >= 0, "checkpoint: cannot open '" + tmp + "' for writing");
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t written = 0;
  while (written < bytes) {
    const ::ssize_t w = ::write(fd, p + written, bytes - written);
    if (w <= 0) {
      ::close(fd);
      std::remove(tmp.c_str());
      throw Error("checkpoint: short write to '" + tmp + "' (" +
                  std::to_string(written) + " of " + std::to_string(bytes) +
                  " bytes)");
    }
    written += std::size_t(w);
  }
  const bool synced = ::fsync(fd) == 0;
  const bool closed = ::close(fd) == 0;
  if (!synced || !closed) {
    std::remove(tmp.c_str());
    throw Error("checkpoint: flushing '" + tmp + "' failed");
  }
#else
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    VQMC_REQUIRE(out.good(), "checkpoint: cannot open '" + tmp + "'");
    out.write(static_cast<const char*>(data), std::streamsize(bytes));
    out.flush();
    if (!out.good()) {
      out.close();
      std::remove(tmp.c_str());
      throw Error("checkpoint: short write to '" + tmp + "'");
    }
  }
#endif
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("checkpoint: cannot rename '" + tmp + "' to '" + path + "'");
  }
  VQMC_REQUIRE(fsync_parent_directory(path),
               "checkpoint: cannot fsync the directory of '" + path + "'");
}

/// Read all of `path` into a byte buffer; throws on a missing file.
std::vector<unsigned char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  VQMC_REQUIRE(in.good(), "checkpoint: cannot open '" + path + "'");
  const std::streamsize size = in.tellg();
  in.seekg(0, std::ios::beg);
  std::vector<unsigned char> buffer(static_cast<std::size_t>(size));
  if (size > 0) {
    in.read(reinterpret_cast<char*>(buffer.data()), size);
    VQMC_REQUIRE(in.gcount() == size,
                 "checkpoint: '" + path + "' could not be read completely");
  }
  return buffer;
}

/// Append-only byte sink for building a record in memory before the single
/// atomic write.
struct ByteWriter {
  std::vector<unsigned char> bytes;

  void raw(const void* data, std::size_t n) {
    if (n == 0) return;  // empty vectors hand over data() == nullptr
    const auto* p = static_cast<const unsigned char*>(data);
    bytes.insert(bytes.end(), p, p + n);
  }
  void u64(std::uint64_t value) { raw(&value, sizeof(value)); }
  /// Close the record: its CRC-32C over every byte written so far.
  void checksum() {
    const std::uint32_t crc = crc32c(0, bytes.data(), bytes.size());
    raw(&crc, sizeof(crc));
  }
  void string(const std::string& s) {
    u64(s.size());
    raw(s.data(), s.size());
  }
  void reals(const std::vector<Real>& v) {
    u64(v.size());
    raw(v.data(), v.size() * sizeof(Real));
  }
  void words(const std::vector<std::uint64_t>& v) {
    u64(v.size());
    raw(v.data(), v.size() * sizeof(std::uint64_t));
  }
};

/// Bounds-checked cursor over a loaded record. Every read that would run
/// past the end throws a *truncation* error — structurally, before any
/// checksum is consulted — so a file cut mid-payload is reported as what it
/// is instead of as generic corruption.
struct ByteReader {
  const std::vector<unsigned char>& bytes;
  const std::string& path;
  std::size_t pos = 0;

  [[nodiscard]] std::size_t remaining() const { return bytes.size() - pos; }

  void raw(void* out, std::size_t n) {
    VQMC_REQUIRE(remaining() >= n,
                 "checkpoint: '" + path + "' is truncated (needed " +
                     std::to_string(n) + " more bytes, " +
                     std::to_string(remaining()) + " left)");
    if (n == 0) return;  // empty vectors hand over data() == nullptr
    std::memcpy(out, bytes.data() + pos, n);
    pos += n;
  }
  std::uint64_t u64() {
    std::uint64_t value = 0;
    raw(&value, sizeof(value));
    return value;
  }
  /// Verify the record's CRC-32C trailer, which must end the file.
  /// Truncation has been ruled out structurally by the reads before it.
  void checksum() {
    VQMC_REQUIRE(remaining() >= sizeof(std::uint32_t),
                 "checkpoint: '" + path + "' is truncated (checksum missing)");
    VQMC_REQUIRE(remaining() == sizeof(std::uint32_t),
                 "checkpoint: '" + path + "' has bytes after its checksum");
    const std::uint32_t expected = crc32c(0, bytes.data(), pos);
    std::uint32_t stored = 0;
    raw(&stored, sizeof(stored));
    VQMC_REQUIRE(stored == expected,
                 "checkpoint: checksum mismatch (corrupt file)");
  }
  std::string string(std::size_t max_length = 255) {
    const std::uint64_t length = u64();
    VQMC_REQUIRE(length <= max_length,
                 "checkpoint: '" + path + "' has a corrupt string field");
    std::string s(length, '\0');
    raw(s.data(), length);
    return s;
  }
  std::vector<Real> reals(std::size_t max_count) {
    const std::uint64_t count = u64();
    VQMC_REQUIRE(count <= max_count && count * sizeof(Real) <= remaining(),
                 "checkpoint: '" + path + "' is truncated inside a payload");
    std::vector<Real> v(count);
    raw(v.data(), count * sizeof(Real));
    return v;
  }
  std::vector<std::uint64_t> words(std::size_t max_count) {
    const std::uint64_t count = u64();
    VQMC_REQUIRE(
        count <= max_count && count * sizeof(std::uint64_t) <= remaining(),
        "checkpoint: '" + path + "' is truncated inside a payload");
    std::vector<std::uint64_t> v(count);
    raw(v.data(), count * sizeof(std::uint64_t));
    return v;
  }
};

/// Generous per-payload sanity bound: rejects absurd counts coming from a
/// corrupted length field before any allocation is attempted.
constexpr std::size_t kMaxPayload = std::size_t(1) << 32;

/// The training record, CRC-32C trailer included, ready to write.
std::vector<unsigned char> serialize_training(
    const TrainingSnapshot& snapshot) {
  ByteWriter out;
  out.u64(kTrainMagic);
  out.u64(kTrainVersion);
  out.string(snapshot.model_name);
  out.string(snapshot.optimizer_name);
  out.string(snapshot.sampler_name);
  out.u64(snapshot.num_spins);
  out.u64(snapshot.num_parameters);
  out.u64(std::uint64_t(snapshot.iteration));
  out.reals(snapshot.parameters);
  out.reals(snapshot.optimizer_state);
  out.words(snapshot.sampler_state);
  out.reals(snapshot.trainer_state);
  out.checksum();
  return std::move(out.bytes);
}

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void save_checkpoint(const std::string& path, const WavefunctionModel& model) {
  const std::string name = model.name();
  Header header;
  header.num_spins = model.num_spins();
  header.num_parameters = model.num_parameters();
  header.name_length = name.size();

  ByteWriter out;
  out.raw(&header, sizeof(header));
  out.raw(name.data(), name.size());
  const std::span<const Real> params = model.parameters();
  out.raw(params.data(), params.size() * sizeof(Real));
  out.checksum();
  write_file_atomic(path, out.bytes.data(), out.bytes.size());
}

void load_checkpoint(const std::string& path, WavefunctionModel& model) {
  const std::vector<unsigned char> bytes = read_file(path);
  ByteReader in{bytes, path};

  Header header;
  in.raw(&header, sizeof(header));
  VQMC_REQUIRE(header.magic != kParamMagicFnv,
               "checkpoint: '" + path +
                   "' is a VQMCCP01 checkpoint (FNV-1a checksum), a format "
                   "this build no longer reads");
  VQMC_REQUIRE(header.magic != kParamMagicCyclic,
               "checkpoint: '" + path +
                   "' is a VQMCCP02 checkpoint (MADE hidden units in cyclic "
                   "degree order), a format this build no longer reads");
  VQMC_REQUIRE(header.magic == kParamMagic,
               "checkpoint: '" + path + "' is not a vqmc checkpoint");
  VQMC_REQUIRE(header.num_spins == model.num_spins(),
               "checkpoint: spin count mismatch");
  VQMC_REQUIRE(header.num_parameters == model.num_parameters(),
               "checkpoint: parameter count mismatch");
  VQMC_REQUIRE(header.name_length < 256, "checkpoint: corrupt name field");

  std::string name(header.name_length, '\0');
  in.raw(name.data(), name.size());
  VQMC_REQUIRE(name == model.name(), "checkpoint: model kind mismatch ('" +
                                         name + "' vs '" + model.name() +
                                         "')");

  std::vector<Real> params(header.num_parameters);
  in.raw(params.data(), params.size() * sizeof(Real));
  in.checksum();

  std::span<Real> target = model.parameters();
  std::copy(params.begin(), params.end(), target.begin());
}

void save_training_checkpoint(const std::string& path,
                              const TrainingSnapshot& snapshot) {
  const std::vector<unsigned char> bytes = serialize_training(snapshot);
  write_file_atomic(path, bytes.data(), bytes.size());
}

TrainingSnapshot load_training_checkpoint(const std::string& path) {
  const std::vector<unsigned char> bytes = read_file(path);
  ByteReader in{bytes, path};

  VQMC_REQUIRE(in.u64() == kTrainMagic,
               "checkpoint: '" + path + "' is not a vqmc training checkpoint");
  const std::uint64_t version = in.u64();
  VQMC_REQUIRE(version == kTrainVersion,
               "checkpoint: '" + path + "' has unsupported format version " +
                   std::to_string(version) + " (this build reads version " +
                   std::to_string(kTrainVersion) + ")");

  TrainingSnapshot snapshot;
  snapshot.model_name = in.string();
  snapshot.optimizer_name = in.string();
  snapshot.sampler_name = in.string();
  snapshot.num_spins = in.u64();
  snapshot.num_parameters = in.u64();
  snapshot.iteration = std::int64_t(in.u64());
  snapshot.parameters = in.reals(kMaxPayload);
  snapshot.optimizer_state = in.reals(kMaxPayload);
  snapshot.sampler_state = in.words(kMaxPayload);
  snapshot.trainer_state = in.reals(kMaxPayload);

  // Structural truncation has been ruled out above; now the trailing
  // checksum authenticates the bits.
  in.checksum();
  return snapshot;
}

CheckpointKeeper::CheckpointKeeper(std::string base_path, int keep_last)
    : base_path_(std::move(base_path)), keep_last_(keep_last) {
  VQMC_REQUIRE(!base_path_.empty(), "checkpoint keeper: empty base path");
  VQMC_REQUIRE(keep_last_ >= 1, "checkpoint keeper: keep_last must be >= 1");
}

void CheckpointKeeper::write(const TrainingSnapshot& snapshot) {
  const std::string iter_path =
      base_path_ + ".iter" + std::to_string(snapshot.iteration);
  // Serialized and checksummed once; both files get the same bytes.
  const std::vector<unsigned char> bytes = serialize_training(snapshot);
  write_file_atomic(iter_path, bytes.data(), bytes.size());
  write_file_atomic(base_path_, bytes.data(), bytes.size());
  retained_.push_back(iter_path);
  while (retained_.size() > std::size_t(keep_last_)) {
    std::remove(retained_.front().c_str());
    retained_.erase(retained_.begin());
  }
}

}  // namespace vqmc
