// Live observability plane: a dependency-free, read-only HTTP/1.1 server
// over POSIX sockets that makes a long-running litmus process scrapeable
// *while the run is in flight* (DESIGN.md §14).
//
// Endpoints (GET only; everything else is 405, unknown paths 404):
//   /metrics           Prometheus text exposition of obs::Registry
//                      (obs/promexport.h), translated live per scrape.
//   /healthz           liveness: 200 "ok" while the server thread runs.
//   /readyz            readiness: 200 when the heartbeat watermark
//                      (obs/events.h) is younger than the configured
//                      staleness threshold, 503 otherwise — wire this to
//                      a load balancer / Kubernetes readiness probe.
//   /status            one JSON snapshot: uptime, rss, readiness, run
//                      manifest, event-log counters, last progress, plus
//                      whatever the host registered via set_status_fn
//                      (e.g. monitor state machines).
//   /events?since=SEQ&max=N
//                      a bounded page of the in-memory event ring, JSON:
//                      {"next_seq":..,"dropped":..,"events":[...]}.
//
// Design rules:
//   * Read-only and localhost-bound by default; the server never mutates
//     run state, so exposing it wider is a deployment decision, not a
//     code change.
//   * One dedicated named thread ("obs-http") runs a blocking accept
//     loop (poll + accept, 100 ms stop-check cadence) and serves
//     requests inline — scrapes are cheap and rare relative to the
//     assessment hot path. Workers are never blocked: the scrape reads
//     atomic counters and takes only the registry/stripe locks that
//     Registry::snapshot() already takes, and the event ring's mutex for
//     a bounded copy.
//   * Fully absent when not started: constructing the server performs no
//     syscalls and spawns no threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

namespace litmus::obs {

class JsonWriter;
struct RunManifest;

struct ServeOptions {
  std::string host = "127.0.0.1";  ///< bind address (dotted IPv4)
  std::uint16_t port = 0;          ///< 0: kernel-assigned ephemeral port
  /// /readyz turns 503 when the heartbeat watermark is older than this.
  std::uint64_t ready_stale_after_ms = 30000;
};

/// Parses a litmus_cli --serve spec: "PORT" or "ADDR:PORT".
/// Returns nullopt on malformed input.
std::optional<std::pair<std::string, std::uint16_t>> parse_serve_addr(
    std::string_view spec);

class HttpServer {
 public:
  /// Appends host-specific members to the /status object (e.g.
  /// "monitors"). Called on the server thread; must be thread-safe
  /// against the host's own updates.
  using StatusFn = std::function<void(JsonWriter&)>;

  HttpServer() = default;
  ~HttpServer();  ///< stop()s if still running

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Borrowed pointer embedded in /status; the manifest (and the status
  /// fn's captures) must outlive stop(). Set before start().
  void set_manifest(const RunManifest* manifest) { manifest_ = manifest; }
  void set_status_fn(StatusFn fn) { status_fn_ = std::move(fn); }

  /// Binds, listens, and spawns the serving thread. Returns the bound
  /// "host:port" (the actual port when options.port was 0). Throws
  /// std::runtime_error on bind/listen failure or if already running.
  std::string start(const ServeOptions& options);

  /// Graceful shutdown: in-flight request finishes, thread joins,
  /// listening socket closes. Idempotent.
  void stop();

  bool running() const noexcept { return listen_fd_ >= 0; }
  const std::string& address() const noexcept { return address_; }

 private:
  void run_loop();
  void handle(int fd);
  std::string status_json() const;

  int listen_fd_ = -1;
  std::string address_;
  ServeOptions options_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  const RunManifest* manifest_ = nullptr;
  StatusFn status_fn_;
  std::uint64_t started_ns_ = 0;
};

}  // namespace litmus::obs
