#include "telemetry/flight_recorder.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <mutex>

namespace vqmc::telemetry {

namespace {

// All recorder state lives here so the fatal-signal path can reach it
// through a plain pointer without touching C++ statics with non-trivial
// initialization order.
struct RecorderState {
  mutable std::mutex mutex;
  std::vector<FlightRecord> ring;  // sized to `capacity`, reused in place
  std::size_t capacity = FlightRecorder::kDefaultCapacity;
  std::size_t head = 0;  // next write slot
  std::size_t size = 0;
  std::uint64_t recorded = 0;
  // Fixed buffer (not std::string): the signal handler reads it and builds
  // the report path with snprintf only.
  char crash_dir[512] = {0};
};

RecorderState& state() {
  static RecorderState s;
  return s;
}

/// Index of the i-th oldest live entry (i in [0, size)).
std::size_t ring_index(const RecorderState& s, std::size_t i) {
  return (s.head + s.capacity - s.size + i) % s.capacity;
}

void write_all(int fd, const char* data, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const ::ssize_t n = ::write(fd, data + done, len - done);
    if (n <= 0) return;  // best effort: we are crashing
    done += std::size_t(n);
  }
}

/// Escape `reason` into `out` for embedding in a JSON string. Bounded,
/// allocation-free (signal path).
void escape_json(const char* reason, char* out, std::size_t cap) {
  std::size_t o = 0;
  for (std::size_t i = 0; reason[i] != '\0' && o + 2 < cap; ++i) {
    const char c = reason[i];
    if (c == '"' || c == '\\') out[o++] = '\\';
    out[o++] = (c >= 0x20 && c != 0x7f) ? c : ' ';
  }
  out[o] = '\0';
}

/// Serialize one ring entry as a JSONL line into `buf`; returns its length.
/// snprintf is not formally async-signal-safe but does not allocate or lock
/// for numeric conversions on the platforms we target — the same trade
/// every practical crash reporter makes.
std::size_t format_entry(char* buf, std::size_t cap, const FlightRecord& r) {
  std::size_t len = 0;
  const auto append = [&](const char* format, auto... args) {
    const int n = std::snprintf(buf + len, cap - len, format, args...);
    if (n > 0) len = std::min(cap - 1, len + std::size_t(n));
  };
  append("{\"event\":\"iteration\",\"iteration\":%lld,\"rank\":%d,"
         "\"energy\":%.17g,\"guard_trips\":%llu",
         static_cast<long long>(r.iteration), r.rank, double(r.energy),
         static_cast<unsigned long long>(r.guard_trips));
  for (const Phase& phase : kPhases)
    append(",\"%s\":%.9g", phase.key, r.phases.*phase.member);
  append(",\"live_ranks\":%d,\"wall_us\":%.3f}\n", r.live_ranks, r.wall_us);
  return len;
}

/// Write the crash report to `path_out` (filled in here). Returns true if a
/// report was written. `locked` distinguishes the normal path (caller holds
/// the mutex) from the signal path (no locking: the crashing thread may
/// already own it).
bool dump_report_unlocked(const RecorderState& s, const char* reason,
                          int rank, int signo, char* path_out,
                          std::size_t path_cap) {
  if (s.crash_dir[0] == '\0' || s.size == 0) return false;
  int report_rank = rank;
  if (report_rank < 0)
    report_rank = s.ring[ring_index(s, s.size - 1)].rank;
  const long long unix_time = static_cast<long long>(::time(nullptr));
  std::snprintf(path_out, path_cap, "%s/vqmc_crash.rank%d.pid%lld.%lld.jsonl",
                s.crash_dir, report_rank,
                static_cast<long long>(::getpid()), unix_time);
  const int fd = ::open(path_out, O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) return false;

  char reason_buf[256];
  escape_json(reason, reason_buf, sizeof(reason_buf));
  char line[1024];
  int len = std::snprintf(
      line, sizeof(line),
      "{\"event\":\"crash_report\",\"reason\":\"%s\",\"rank\":%d,"
      "\"pid\":%lld,\"unix_time\":%lld,\"recorded\":%llu,"
      "\"entries\":%llu,\"signal\":%d}\n",
      reason_buf, report_rank, static_cast<long long>(::getpid()), unix_time,
      static_cast<unsigned long long>(s.recorded),
      static_cast<unsigned long long>(s.size), signo);
  if (len > 0) write_all(fd, line, std::size_t(len));
  for (std::size_t i = 0; i < s.size; ++i)
    write_all(fd, line,
              format_entry(line, sizeof(line), s.ring[ring_index(s, i)]));
  ::close(fd);
  return true;
}

constexpr int kFatalSignals[] = {SIGSEGV, SIGABRT, SIGFPE,
                                SIGILL,  SIGBUS,  SIGTERM};

void fatal_signal_handler(int signo) {
  // No locking: the thread that crashed may hold the recorder mutex. The
  // ring vector is preallocated and only overwritten in place, so a torn
  // read yields at worst one garbled entry — acceptable in a crash report.
  RecorderState& s = state();
  char path[640];
  char reason[64];
  std::snprintf(reason, sizeof(reason), "fatal signal %d", signo);
  dump_report_unlocked(s, reason, -1, signo, path, sizeof(path));
  // SA_RESETHAND restored the default disposition; re-raise so the exit
  // status still reports death-by-signal.
  ::raise(signo);
}

}  // namespace

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::configure(std::size_t capacity) {
  RecorderState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.capacity = capacity == 0 ? 1 : capacity;
  s.ring.assign(s.capacity, FlightRecord{});
  s.head = 0;
  s.size = 0;
  s.recorded = 0;
}

void FlightRecorder::record(const FlightRecord& entry) {
  if (!enabled()) return;
  RecorderState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (s.ring.size() != s.capacity) s.ring.assign(s.capacity, FlightRecord{});
  s.ring[s.head] = entry;
  s.head = (s.head + 1) % s.capacity;
  if (s.size < s.capacity) ++s.size;
  ++s.recorded;
}

std::vector<FlightRecord> FlightRecorder::snapshot(int rank) const {
  const RecorderState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  std::vector<FlightRecord> out;
  out.reserve(s.size);
  for (std::size_t i = 0; i < s.size; ++i) {
    const FlightRecord& r = s.ring[ring_index(s, i)];
    if (rank < 0 || r.rank == rank) out.push_back(r);
  }
  return out;
}

bool FlightRecorder::latest(FlightRecord& out, int rank) const {
  const RecorderState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  for (std::size_t i = s.size; i-- > 0;) {
    const FlightRecord& r = s.ring[ring_index(s, i)];
    if (rank < 0 || r.rank == rank) {
      out = r;
      return true;
    }
  }
  return false;
}

std::uint64_t FlightRecorder::recorded() const {
  const RecorderState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.recorded;
}

double FlightRecorder::iteration_rate(int rank, std::size_t window) const {
  const RecorderState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  // Collect the newest `window` matching entries (oldest-first order).
  const FlightRecord* first = nullptr;
  const FlightRecord* last = nullptr;
  std::size_t matched = 0;
  for (std::size_t i = s.size; i-- > 0 && matched < window;) {
    const FlightRecord& r = s.ring[ring_index(s, i)];
    if (rank >= 0 && r.rank != rank) continue;
    if (last == nullptr) last = &r;
    first = &r;
    ++matched;
  }
  if (matched < 2 || first->wall_us >= last->wall_us) return 0;
  const double iterations = double(last->iteration - first->iteration);
  const double seconds = (last->wall_us - first->wall_us) * 1e-6;
  return iterations > 0 && seconds > 0 ? iterations / seconds : 0;
}

void FlightRecorder::clear() {
  RecorderState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.head = 0;
  s.size = 0;
  s.recorded = 0;
}

void FlightRecorder::set_crash_dir(const std::string& dir) {
  RecorderState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  std::snprintf(s.crash_dir, sizeof(s.crash_dir), "%s", dir.c_str());
}

std::string FlightRecorder::crash_dir() const {
  const RecorderState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.crash_dir;
}

std::string FlightRecorder::dump_crash_report(const std::string& reason,
                                              int rank) {
  RecorderState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  char path[640];
  if (!dump_report_unlocked(s, reason.c_str(), rank, 0, path, sizeof(path)))
    return "";
  return path;
}

void FlightRecorder::install_crash_signal_handler() {
  static std::once_flag once;
  std::call_once(once, [] {
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_handler = &fatal_signal_handler;
    sigemptyset(&action.sa_mask);
    // One shot: restore the default disposition before the handler runs so
    // a crash inside the handler (or the re-raise) terminates normally.
    action.sa_flags = SA_RESETHAND;
    for (const int signo : kFatalSignals) ::sigaction(signo, &action, nullptr);
  });
}

}  // namespace vqmc::telemetry
