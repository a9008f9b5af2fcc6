#include "obs/exposition.hpp"

#include "common/error.hpp"

namespace vqmc::obs {

namespace wire = parallel::wire;

namespace {

/// Largest status request: its payload is a format name ("raw", "json",
/// "table", "prom") or empty.
constexpr std::size_t kMaxRequestBytes = 64;

/// Largest reply a scrape accepts. A rendering carries a few KB per rank
/// (one status report, or one block of metric families), so 64 MiB leaves
/// room for groups of thousands of ranks while a lying header costs the
/// scraper no more than that.
constexpr std::size_t kMaxReplyBytes = std::size_t(64) << 20;

}  // namespace

std::string rank_endpoint(const std::string& base, int rank) {
  if (rank == 0) return base;
  if (base.rfind("unix://", 0) == 0)
    return base + ".r" + std::to_string(rank);
  VQMC_REQUIRE(base.rfind("tcp://", 0) == 0,
               "obs endpoint '" + base +
                   "' is neither unix:// nor tcp://");
  const std::size_t colon = base.rfind(':');
  VQMC_REQUIRE(colon != std::string::npos && colon > 5,
               "tcp obs endpoint '" + base + "' has no port");
  const int port =
      wire::parse_port(std::string_view(base).substr(colon + 1), base);
  VQMC_REQUIRE(port != 0,
               "tcp obs endpoint needs an explicit port to derive per-rank "
               "endpoints (got port 0)");
  VQMC_REQUIRE(port + rank <= 65535,
               "tcp obs endpoint '" + base + "' leaves no port for rank " +
                   std::to_string(rank) + " (port + rank > 65535)");
  return base.substr(0, colon + 1) + std::to_string(port + rank);
}

StatusServer::StatusServer(StatusServerOptions options,
                           StatusProvider provider)
    : options_(std::move(options)), provider_(std::move(provider)) {
  VQMC_REQUIRE(static_cast<bool>(provider_),
               "StatusServer needs a status provider");
  listener_ = wire::listen_on(options_.endpoint);
  endpoint_ = listener_.endpoint;
  thread_ = std::thread([this] { serve_loop(); });
}

StatusServer::~StatusServer() { stop(); }

void StatusServer::stop() {
  if (stop_.exchange(true)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  if (thread_.joinable()) thread_.join();
  listener_.close();  // and its unix socket file
}

void StatusServer::serve_loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    // Short poll slices keep stop() latency bounded without busy-waiting.
    if (!wire::poll_readable(listener_.socket, 0.1)) continue;
    try {
      wire::Socket conn = wire::accept_from(listener_.socket, 0.5);
      wire::Frame request;
      if (!wire::recv_frame(conn, request, options_.io_deadline_seconds,
                            kMaxRequestBytes))
        continue;
      const std::string format(request.payload.begin(),
                               request.payload.end());
      const std::string reply = render(request.type, format);
      wire::send_frame(conn, request.type, request.seq, reply.data(),
                       reply.size(), options_.io_deadline_seconds);
    } catch (const Error&) {
      // A malformed or timed-out client costs it its connection, never the
      // server loop (scrapers come and go while training runs for hours).
    }
  }
}

GroupStatus StatusServer::collect() {
  StatusReport local = provider_();
  local.rank = options_.rank;
  local.world = options_.world;
  if (options_.group_base.empty() || options_.world <= 1)
    return GroupStatus::single(std::move(local));

  GroupStatus group;
  group.world = options_.world;
  group.ranks.resize(std::size_t(options_.world));
  group.reachable.assign(std::size_t(options_.world), 0);
  for (int r = 0; r < options_.world; ++r) {
    const std::size_t slot = std::size_t(r);
    if (r == options_.rank) {
      group.ranks[slot] = local;
      group.reachable[slot] = 1;
      continue;
    }
    group.ranks[slot].rank = r;
    group.ranks[slot].world = options_.world;
    try {
      const std::string raw =
          fetch_status(rank_endpoint(options_.group_base, r), "raw",
                       options_.pull_deadline_seconds);
      std::vector<StatusReport> reports = decode_reports(raw);
      VQMC_REQUIRE(!reports.empty(), "empty status pull");
      group.ranks[slot] = std::move(reports.front());
      group.ranks[slot].rank = r;
      group.reachable[slot] = 1;
    } catch (const Error&) {
      // Unreachable rank: reported as reachable=0, scrape still succeeds —
      // a dead rank is exactly what the scraper needs to see.
    }
  }
  return group;
}

std::string StatusServer::render(wire::FrameType type,
                                 const std::string& format) {
  if (type == wire::FrameType::kMetrics)
    return render_prometheus(collect());
  VQMC_REQUIRE(type == wire::FrameType::kStatus,
               "obs server: unexpected frame type");
  if (format == "raw") {
    // Aggregation pull: the local report only (the puller assembles the
    // group view; recursing into collect() here would ping-pong pulls).
    StatusReport local = provider_();
    local.rank = options_.rank;
    local.world = options_.world;
    return local.encode();
  }
  if (format == "json") return render_json(collect());
  if (format == "table") return render_table(collect());
  if (format.empty() || format == "prom") return render_prometheus(collect());
  throw Error("obs server: unknown status format '" + format + "'");
}

std::string fetch_status(const std::string& endpoint,
                         const std::string& format,
                         double deadline_seconds) {
  wire::Socket conn = wire::connect_to(endpoint, deadline_seconds,
                                       /*jitter_seed=*/0x0b5u);
  const wire::FrameType type = format == "prom"
                                   ? wire::FrameType::kMetrics
                                   : wire::FrameType::kStatus;
  const std::string payload = format == "prom" ? std::string() : format;
  VQMC_REQUIRE(send_frame(conn, type, /*seq=*/0, payload.data(),
                          payload.size(), deadline_seconds),
               "obs scrape: server closed the connection");
  wire::Frame reply;
  VQMC_REQUIRE(recv_frame(conn, reply, deadline_seconds, kMaxReplyBytes),
               "obs scrape: server closed without replying");
  return std::string(reply.payload.begin(), reply.payload.end());
}

}  // namespace vqmc::obs
