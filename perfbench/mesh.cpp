// mesh.cpp -- the live-mesh workloads: mesh-join-256f and mesh-udp-lookup.
//
// Untraced reps go through net::run_mesh, the public entry point of the
// live substrate.  The traced rep drives the same proto::Core through the
// benchmark's own proto::Env over the real LoopbackTransport/UdpTransport,
// in the shape run_mesh uses (same identities, same stepping order, same
// clock), so that spans can separate transport poll, core handler and send.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <thread>

#include "alloc_count.hpp"
#include "common.hpp"
#include "net/loopback.hpp"
#include "net/mesh.hpp"
#include "net/udp.hpp"
#include "proto/core.hpp"
#include "proto/ring.hpp"
#include "spans.hpp"
#include "util/rng.hpp"
#include "wire/messages.hpp"
#include "wire/packet.hpp"

namespace pb {
namespace {

using namespace rofl;
using net::RouterId;

struct MeshSpec {
  const char* name;
  net::MeshBackend backend;
  std::uint32_t routers;
  std::uint32_t hosts;
  std::uint32_t fingers;
  std::uint32_t lookups;  ///< lookups of a lookup rep (0: join storm only)
};

// mesh-join-256f: many routers, 1638-byte JoinRequests, one thread on a
// virtual clock.  mesh-udp-lookup: two routers (two event loops plus two RX
// threads on a 4-thread box), the smallest frames, resident sets of
// thousands of vnodes per router, then a closed-loop lookup phase capped by
// max_outstanding per router.
constexpr MeshSpec kJoinSpec{"mesh-join-256f", net::MeshBackend::kLoopback, 16,
                             3000, 256, 0};
constexpr MeshSpec kUdpSpec{"mesh-udp-lookup", net::MeshBackend::kUdp, 2, 8000,
                            8, 40000};

/// The §6.3 size of a 256-finger JoinRequest frame.
constexpr std::uint64_t kJoinRequest256Bytes = 1638;

net::MeshConfig mesh_config(const MeshSpec& s, std::uint64_t seed,
                            bool lookups) {
  net::MeshConfig c;
  c.routers = s.routers;
  c.hosts = s.hosts;
  c.fingers = s.fingers;
  c.seed = seed;
  c.backend = s.backend;
  c.lookups = lookups ? s.lookups : 0;
  c.deadline_ms = 120'000.0;  // virtual ms on loopback, wall ms on udp
  return c;
}

const obs::Histogram* histogram(const obs::Registry& reg,
                                std::string_view name) {
  for (obs::MetricId i = 0; i < reg.histogram_count(); ++i) {
    if (reg.histogram_name(i) == name) return &reg.histogram_at(i);
  }
  return nullptr;
}

/// The control types the live protocol exchanges on these workloads.
struct TypeName {
  wire::PacketType type;
  const char* name;
};
constexpr std::array<TypeName, 5> kTypes{{
    {wire::PacketType::kJoinRequest, "join_request"},
    {wire::PacketType::kJoinReply, "join_reply"},
    {wire::PacketType::kLocate, "locate"},
    {wire::PacketType::kPointerInstall, "pointer_install"},
    {wire::PacketType::kKeepalive, "keepalive"},
}};

// Frame header layout (wire/packet.cpp): version, type, ttl, flags, 16-byte
// destination, 16-byte source, big-endian u64 trace id.  replay_codec checks
// these peeks against wire::Packet::decode on every captured frame.
std::uint8_t frame_type(std::span<const std::uint8_t> f) {
  return f.size() > 1 ? f[1] : 0;
}

std::uint64_t frame_trace(std::span<const std::uint8_t> f) {
  if (f.size() < 44) return 0;
  std::uint64_t v = 0;
  for (std::size_t i = 36; i < 44; ++i) v = (v << 8) | f[i];
  return v;
}

net::LiveRouterConfig live_config(const net::MeshConfig& cfg, RouterId self) {
  net::LiveRouterConfig rc;
  rc.self = self;
  rc.bootstrap = 0;
  rc.fingers = cfg.fingers;
  rc.max_outstanding = cfg.max_outstanding;
  rc.conditions = cfg.conditions;
  rc.fault_seed = cfg.seed * 1'000'003ull + self + 1;
  return rc;
}

/// Transports for a mesh of `cfg.routers`; UDP peers are registered.
std::vector<std::unique_ptr<net::Transport>> make_transports(
    const net::MeshConfig& cfg, net::LoopbackHub* hub) {
  std::vector<std::unique_ptr<net::Transport>> out;
  std::vector<net::UdpTransport*> udp;
  for (RouterId r = 0; r < cfg.routers; ++r) {
    if (cfg.backend == net::MeshBackend::kLoopback) {
      out.push_back(std::make_unique<net::LoopbackTransport>(r, hub));
    } else {
      auto t = std::make_unique<net::UdpTransport>(r, /*port=*/0);
      udp.push_back(t.get());
      out.push_back(std::move(t));
    }
  }
  for (net::UdpTransport* a : udp) {
    for (RouterId b = 0; b < udp.size(); ++b) a->set_peer(b, udp[b]->port());
  }
  return out;
}

/// Lookup targets as run_mesh draws them: ids of joined hosts, from a
/// stream derived from the seed but independent of the identity stream.
std::vector<NodeId> lookup_targets(std::uint64_t seed, std::uint32_t count,
                                   const std::vector<Identity>& ids) {
  Rng rng(seed ^ 0x9E3779B97F4A7C15ull);
  std::vector<NodeId> targets;
  targets.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    targets.push_back(ids[rng.below(ids.size())].id());
  }
  return targets;
}

struct SetupTimes {
  double identities_s = 0.0;
  double network_s = 0.0;
  [[nodiscard]] double total() const { return identities_s + network_s; }
};

/// Times the mesh's set-up with the public constructors run_mesh uses:
/// identity generation, transports (sockets and RX threads on UDP), routers
/// and host assignment.  Tear-down is not set-up work and is not timed.
SetupTimes time_setup(const net::MeshConfig& cfg) {
  SetupTimes t;
  auto t0 = Clock::now();
  std::vector<Identity> ids = net::make_identities(cfg.seed, cfg.hosts);
  t.identities_s = seconds_since(t0);
  net::LoopbackHub hub;
  t0 = Clock::now();
  const auto transports = make_transports(cfg, &hub);
  std::vector<std::unique_ptr<net::LiveRouter>> routers;
  for (RouterId r = 0; r < cfg.routers; ++r) {
    routers.push_back(std::make_unique<net::LiveRouter>(live_config(cfg, r),
                                                        transports[r].get()));
  }
  routers[0]->seed(ids[0]);
  for (std::uint32_t h = 1; h < ids.size(); ++h) {
    routers[h % cfg.routers]->enqueue_join(std::move(ids[h]));
  }
  t.network_s = seconds_since(t0);
  return t;
}

/// Output checks shared by traced and untraced runs.  Unconverged joins,
/// missed lookups and audit defects count as failed operations.
void check_mesh(Outcome& out, const net::MeshConfig& cfg,
                         bool converged, const net::MeshAuditReport& audit,
                         std::uint64_t joins, std::uint64_t lookups,
                         std::uint64_t hits, const obs::Registry& reg) {
  out.attempted += (cfg.hosts - 1) + cfg.lookups;
  out.failed +=
      (cfg.hosts - 1 - std::min<std::uint64_t>(joins, cfg.hosts - 1)) +
      (cfg.lookups - std::min<std::uint64_t>(hits, cfg.lookups)) +
      audit.error_count + (audit.population == audit.expected ? 0 : 1);
  out.check(converged, "mesh did not converge before the deadline");
  out.check(audit.ok(), "ring audit not exact: " +
                            std::to_string(audit.error_count) + " defects, " +
                            std::to_string(audit.population) + "/" +
                            std::to_string(audit.expected) + " resident");
  out.check(lookups == cfg.lookups && hits == lookups,
            "lookups: " + std::to_string(hits) + " hits of " +
                std::to_string(lookups) + " completed, " +
                std::to_string(cfg.lookups) + " issued");
  if (cfg.fingers == 256) {
    const std::uint64_t msgs = counter(reg, "net.msgs.join_request");
    const std::uint64_t bytes = counter(reg, "net.bytes.join_request");
    out.check(msgs > 0 && bytes == msgs * kJoinRequest256Bytes,
              "section 6.3 byte parity: " + std::to_string(bytes) +
                  " JoinRequest bytes over " + std::to_string(msgs) +
                  " messages, expected 1638 each");
  }
}

// ---------------------------------------------------------------- traced rep

/// First frames of each control type a traced run sent: the input of the
/// codec replay.
struct Capture {
  static constexpr std::size_t kPerType = 256;
  std::array<std::vector<std::vector<std::uint8_t>>, 16> by_type;
  void add(std::span<const std::uint8_t> f) {
    const std::uint8_t t = frame_type(f);
    if (t < by_type.size() && by_type[t].size() < kPerType) {
      by_type[t].emplace_back(f.begin(), f.end());
    }
  }
};

/// A router driven by the benchmark: the same proto::Core and transport a
/// LiveRouter pairs, with spans around poll, handler, tick and send.
class TracedRouter final : public proto::Env {
 public:
  TracedRouter(const net::MeshConfig& cfg, RouterId self, net::Transport* t,
               Clock::time_point origin)
      : transport_(t), spans_(origin, self) {
    n_poll_ = spans_.name("net.poll");
    n_send_ = spans_.name("net.send");
    n_tick_ = spans_.name("proto.tick");
    n_frame_other_ = spans_.name("proto.on_frame.other");
    for (const TypeName& tn : kTypes) {
      n_frame_[static_cast<std::uint8_t>(tn.type)] =
          spans_.name(std::string("proto.on_frame.") + tn.name);
    }
    proto::CoreConfig cc;
    cc.self = self;
    cc.bootstrap = 0;
    cc.fingers = cfg.fingers;
    cc.max_outstanding = cfg.max_outstanding;
    core_.emplace(cc, *this);
  }

  TracedRouter(const TracedRouter&) = delete;
  TracedRouter& operator=(const TracedRouter&) = delete;

  proto::Core& core() { return *core_; }
  Spans& spans() { return spans_; }
  const Capture& capture() const { return capture_; }
  obs::Registry& registry() { return registry_; }
  net::Transport& transport() { return *transport_; }

  /// One event-loop pass, as LiveRouter::step makes it.
  void step(double now_ms) {
    transport_->pump(now_ms);
    ++poll_passes_;
    bool delivered = false;
    net::RxFrame rx;
    for (;;) {
      const std::uint32_t p = spans_.begin(n_poll_);
      const bool got = transport_->poll(rx);
      const double d = spans_.end(p);
      poll_us_ += d;
      if (!got) {
        spans_.drop_last();
        break;
      }
      if (rx.op != net::PumpOp::kData) continue;
      ++frames_in_;
      delivered = true;
      const Scope s(&spans_, frame_span(rx.frame), frame_trace(rx.frame));
      core_->on_frame(rx.frame, now_ms);
    }
    if (!delivered) ++empty_passes_;
    const std::uint32_t h = spans_.begin(n_tick_);
    core_->tick(now_ms);
    const double tick = spans_.end(h);
    ++ticks_;
    if (spans_.is_last(h)) {
      spans_.drop_last();
      idle_tick_us_ += tick;
    }
  }

  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t frames_in() const { return frames_in_; }
  std::uint64_t poll_passes() const { return poll_passes_; }
  std::uint64_t empty_passes() const { return empty_passes_; }
  std::uint64_t ticks() const { return ticks_; }
  double poll_us() const { return poll_us_; }
  double idle_tick_us() const { return idle_tick_us_; }

 private:
  void send(RouterId dst, std::vector<std::uint8_t> frame,
            double now_ms) override {
    capture_.add(frame);
    const Scope s(&spans_, n_send_, frame_trace(frame));
    transport_->send(dst, net::PumpOp::kData, 0, frame, now_ms);
    ++frames_sent_;
  }
  obs::Registry& metrics() override { return registry_; }
  void note_retry() override {}
  void note_retry_exhausted() override {}

  Spans::NameId frame_span(std::span<const std::uint8_t> f) const {
    const std::uint8_t t = frame_type(f);
    return t < n_frame_.size() && n_frame_[t] != 0 ? n_frame_[t]
                                                   : n_frame_other_;
  }

  net::Transport* transport_;
  Spans spans_;
  obs::Registry registry_;
  std::optional<proto::Core> core_;
  Capture capture_;
  Spans::NameId n_poll_ = 0, n_send_ = 0, n_tick_ = 0, n_frame_other_ = 0;
  std::array<Spans::NameId, 16> n_frame_{};
  std::uint64_t frames_sent_ = 0, frames_in_ = 0;
  std::uint64_t poll_passes_ = 0, empty_passes_ = 0, ticks_ = 0;
  double poll_us_ = 0.0, idle_tick_us_ = 0.0;
};

struct TracedResult {
  double host_s = 0.0;
  std::uint64_t joins = 0, lookups = 0, hits = 0;
  std::uint64_t join_frames = 0, lookup_frames = 0;
  double audit_s = 0.0;
  double closest_pred_ns = 0.0;
  double closest_pred_s = 0.0;  ///< wall time of that measurement
  bool converged = false;
  net::MeshAuditReport audit;
  obs::Registry merged;
  Spans spans;
  Capture capture;
  net::TransportStats transport;
  std::uint64_t ring_dropped = 0;
  std::uint64_t poll_passes = 0, empty_passes = 0, ticks = 0, frames_in = 0;
  double poll_us = 0.0, idle_tick_us = 0.0;
  explicit TracedResult(Clock::time_point origin) : spans(origin, 1000) {}
};

/// Runs the storm (and lookup phase) through TracedRouters, stepping them
/// exactly as run_mesh does for the backend.
TracedResult traced_run(const net::MeshConfig& cfg) {
  const Clock::time_point origin = Clock::now();
  TracedResult res(origin);
  const Spans::NameId n_phase_join = res.spans.name("mesh.join_phase");
  const Spans::NameId n_phase_lookup = res.spans.name("mesh.lookup_phase");
  const Spans::NameId n_audit = res.spans.name("mesh.audit");

  net::LoopbackHub hub;
  const auto transports = make_transports(cfg, &hub);
  std::vector<std::unique_ptr<TracedRouter>> routers;
  for (RouterId r = 0; r < cfg.routers; ++r) {
    routers.push_back(std::make_unique<TracedRouter>(
        cfg, r, transports[r].get(), origin));
  }
  const std::vector<Identity> ids = net::make_identities(cfg.seed, cfg.hosts);
  routers[0]->core().seed(ids[0]);
  for (std::uint32_t h = 1; h < ids.size(); ++h) {
    routers[h % cfg.routers]->core().enqueue_join(ids[h]);
  }
  const auto all_quiet = [&] {
    return std::all_of(routers.begin(), routers.end(), [](const auto& r) {
      return r->core().quiescent();
    });
  };
  const auto frames_sent = [&] {
    std::uint64_t n = 0;
    for (const auto& r : routers) n += r->frames_sent();
    return n;
  };

  double now = 0.0;  // loopback virtual clock
  const auto run_phase = [&]() -> bool {
    if (cfg.backend == net::MeshBackend::kLoopback) {
      constexpr double kTickMs = 0.25;
      const double deadline = now + cfg.deadline_ms;
      while (now < deadline) {
        for (auto& r : routers) r->step(now);
        if (all_quiet()) return true;
        now += kTickMs;
      }
      return false;
    }
    std::atomic<bool> stop{false};
    std::vector<std::unique_ptr<std::atomic<bool>>> quiet;
    for (RouterId r = 0; r < cfg.routers; ++r) {
      quiet.push_back(std::make_unique<std::atomic<bool>>(false));
    }
    std::vector<std::thread> threads;
    for (RouterId r = 0; r < cfg.routers; ++r) {
      threads.emplace_back([&, r] {
        TracedRouter& router = *routers[r];
        while (!stop.load(std::memory_order_acquire)) {
          router.step(net::UdpTransport::wall_ms());
          const bool q = router.core().quiescent();
          quiet[r]->store(q, std::memory_order_release);
          std::this_thread::sleep_for(std::chrono::microseconds(q ? 500 : 50));
        }
      });
    }
    const Clock::time_point start = Clock::now();
    bool ok = false;
    while (seconds_since(start) * 1000.0 < cfg.deadline_ms) {
      ok = std::all_of(quiet.begin(), quiet.end(), [](const auto& q) {
        return q->load(std::memory_order_acquire);
      });
      if (ok) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    stop.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
    return ok;
  };

  auto t0 = Clock::now();
  {
    const Scope s(&res.spans, n_phase_join);
    res.converged = run_phase();
  }
  res.join_frames = frames_sent();
  std::vector<NodeId> targets;
  if (res.converged && cfg.lookups > 0) {
    targets = lookup_targets(cfg.seed, cfg.lookups, ids);
    for (std::uint32_t i = 0; i < targets.size(); ++i) {
      routers[i % cfg.routers]->core().enqueue_lookup(targets[i]);
    }
    const Scope s(&res.spans, n_phase_lookup);
    res.converged = run_phase();
  }
  res.host_s = seconds_since(t0);
  res.lookup_frames = frames_sent() - res.join_frames;
  for (auto& t : transports) {
    if (auto* u = dynamic_cast<net::UdpTransport*>(t.get())) u->stop();
  }

  std::vector<std::pair<RouterId, proto::Vnode>> collected;
  for (RouterId r = 0; r < cfg.routers; ++r) {
    TracedRouter& tr = *routers[r];
    res.joins += tr.core().joins_completed();
    res.lookups += tr.core().lookups_completed();
    res.hits += tr.core().lookups_hit();
    res.merged.merge_from(tr.registry());
    res.spans.merge_from(tr.spans());
    for (const TypeName& tn : kTypes) {
      const auto t = static_cast<std::uint8_t>(tn.type);
      for (const auto& f : tr.capture().by_type[t]) {
        if (res.capture.by_type[t].size() < Capture::kPerType) {
          res.capture.by_type[t].push_back(f);
        }
      }
    }
    const net::TransportStats& st = tr.transport().stats();
    res.transport.dedup_dropped += st.dedup_dropped;
    res.transport.throttle_waits += st.throttle_waits;
    res.ring_dropped += tr.transport().ring_dropped();
    res.poll_passes += tr.poll_passes();
    res.empty_passes += tr.empty_passes();
    res.ticks += tr.ticks();
    res.frames_in += tr.frames_in();
    res.poll_us += tr.poll_us();
    res.idle_tick_us += tr.idle_tick_us();
    for (const auto& [id, v] : tr.core().vnodes()) collected.emplace_back(r, v);
  }
  std::vector<std::pair<NodeId, RouterId>> expected;
  for (std::uint32_t h = 0; h < ids.size(); ++h) {
    expected.emplace_back(ids[h].id(), h % cfg.routers);
  }
  t0 = Clock::now();
  {
    const Scope s(&res.spans, n_audit);
    res.audit = net::audit_ring(collected, std::move(expected));
  }
  res.audit_s = seconds_since(t0);

  // proto::closest_predecessor over the final resident maps, for the run's
  // lookup targets (or, on a join-only run, the same draw over joined ids).
  if (targets.empty()) targets = lookup_targets(cfg.seed, 4096, ids);
  std::uint64_t sink = 0;
  std::uint64_t calls = 0;
  t0 = Clock::now();
  for (const auto& r : routers) {
    const auto& vn = r->core().vnodes();
    for (const NodeId& target : targets) {
      const auto it = proto::closest_predecessor(
          vn.begin(), vn.end(), target,
          [](const auto& kv) -> const NodeId& { return kv.first; });
      sink += it == vn.end() ? 0 : it->first.lo();
      ++calls;
    }
  }
  res.closest_pred_s = seconds_since(t0);
  res.closest_pred_ns = calls == 0 ? 0.0
                                   : res.closest_pred_s * 1e9 /
                                         static_cast<double>(calls);
  if (sink == 42) std::fputc(' ', stderr);  // keeps the loop observable
  return res;
}

/// Replays the captured frames through the codec: ns per encode_control and
/// per decode_control for each type, and allocations per encode.  Every
/// frame must decode to the type and trace id its header peek gave it
/// (frame_type, frame_trace), so a change of the header layout shows as a
/// failed check instead of misattributed per-type figures.
void replay_codec(const Capture& cap, Outcome& out) {
  constexpr double kMinSeconds = 0.05;
  std::uint64_t encodes = 0;
  std::uint64_t allocs = 0;
  std::uint64_t sink = 0;
  for (const TypeName& tn : kTypes) {
    const auto& frames = cap.by_type[static_cast<std::uint8_t>(tn.type)];
    double enc_ns = 0.0;
    double dec_ns = 0.0;
    struct Decoded {
      wire::Packet pkt;
      wire::msg::ControlMessage msg;
    };
    std::vector<Decoded> decoded;
    std::uint64_t mismatched = 0;
    for (const auto& f : frames) {
      auto pkt = wire::Packet::decode(f);
      auto msg = wire::msg::decode_control(f);
      if (!pkt || !msg || pkt->type != tn.type ||
          pkt->trace_id != frame_trace(f)) {
        ++mismatched;
        continue;
      }
      decoded.push_back({std::move(*pkt), std::move(*msg)});
    }
    out.failed += mismatched;
    out.check(mismatched == 0,
              std::to_string(mismatched) + " captured " + tn.name +
                  " frames do not decode to the type and trace id read "
                  "from their header");
    if (!decoded.empty()) {
      std::uint64_t passes = 0;
      auto t0 = Clock::now();
      do {
        for (const auto& f : frames) {
          sink += wire::msg::decode_control(f).has_value();
        }
        ++passes;
      } while (seconds_since(t0) < kMinSeconds);
      dec_ns = seconds_since(t0) * 1e9 /
               static_cast<double>(passes * frames.size());
      passes = 0;
      const std::uint64_t a0 = allocations();
      t0 = Clock::now();
      do {
        for (const Decoded& d : decoded) {
          sink += wire::msg::encode_control(d.msg, d.pkt.source,
                                            d.pkt.destination,
                                            d.pkt.trace_id)
                      .size();
        }
        ++passes;
      } while (seconds_since(t0) < kMinSeconds);
      enc_ns = seconds_since(t0) * 1e9 /
               static_cast<double>(passes * decoded.size());
      allocs += allocations() - a0;
      encodes += passes * decoded.size();
    }
    out.metric(std::string("wire.encode_ns.") + tn.name, enc_ns, "ns");
    out.metric(std::string("wire.decode_ns.") + tn.name, dec_ns, "ns");
  }
  out.metric("wire.allocs_per_frame",
             encodes == 0 ? 0.0
                          : static_cast<double>(allocs) /
                                static_cast<double>(encodes),
             "count");
  if (sink == 42) std::fputc(' ', stderr);
}

Outcome run_mesh_workload(const MeshSpec& spec, const Options& opt) {
  Outcome out;
  const bool udp = spec.backend == net::MeshBackend::kUdp;
  EndToEnd e2e;
  std::vector<double> ident_s, network_s;
  const auto setup = [&] {
    const SetupTimes st = time_setup(mesh_config(spec, opt.seed, false));
    ident_s.push_back(st.identities_s);
    network_s.push_back(st.network_s);
    return st.total();
  };

  // Untraced UDP reps alternate between a join-only storm (join rate, bytes
  // per join) and a storm followed by the lookup phase (operation rate,
  // frame rate, lookup latency).  A traced run alternates untraced and
  // traced reps of the traced configuration instead: the lookup phase on
  // UDP, the storm on loopback.  Its tracing overhead compares the two over
  // the same window: the protocol phases on UDP (MeshResult::elapsed_ms),
  // the whole call from set-up to tear-down on loopback, whose elapsed_ms
  // is virtual.
  std::vector<double> loop_wall, loop_joins;  // loopback: rates need setup_s
  std::vector<double> lat_p50, lat_p99, lat_n;
  std::vector<double> rep_frames, traced_frames;  // traced configuration
  std::vector<double> untraced_rate, traced_rate;
  std::vector<std::string> outcomes;
  std::optional<TracedResult> traced;
  const auto rep = [&](int i) {
    const bool lookup_rep = udp && (opt.trace || i % 2 == 1);
    const net::MeshConfig cfg = mesh_config(spec, opt.seed, lookup_rep);
    if (opt.trace && i % 2 == 1) {
      const Clock::time_point t0 = Clock::now();
      TracedResult tr = traced_run(cfg);
      const double wall = seconds_since(t0) - tr.closest_pred_s;
      check_mesh(out, cfg, tr.converged, tr.audit, tr.joins, tr.lookups,
                 tr.hits, tr.merged);
      const double ops =
          static_cast<double>(tr.joins) + static_cast<double>(tr.lookups);
      traced_rate.push_back(ops / (udp ? tr.host_s : wall));
      traced_frames.push_back(
          static_cast<double>(tr.join_frames + tr.lookup_frames));
      if (!traced) traced = std::move(tr);
      return;
    }

    const Clock::time_point t0 = Clock::now();
    net::MeshResult r = net::run_mesh(cfg);
    const double wall = seconds_since(t0);
    check_mesh(out, cfg, r.converged, r.audit, r.joins_completed,
               r.lookups_completed, r.lookups_hit, r.metrics);
    const auto frames =
        static_cast<double>(counter(r.metrics, "net.tx.frames"));
    const auto bytes = static_cast<double>(counter(r.metrics, "net.tx.bytes"));
    const auto joins = static_cast<double>(r.joins_completed);
    const double ops = joins + static_cast<double>(r.lookups_completed);
    if (udp) {
      // UDP reports the wall time of the protocol phases.
      const double host_s = r.elapsed_ms / 1000.0;
      if (lookup_rep) {
        e2e.op_rate.push_back(ops / host_s);
        e2e.pps.push_back(frames / host_s);
      } else {
        e2e.join_rate.push_back(joins / host_s);
        e2e.bytes_per_join.push_back(ratio(bytes, joins));
      }
    } else {
      // Loopback reports virtual time; the storm's host time is the wall
      // time of run_mesh less the median set-up, known once the run ends.
      loop_wall.push_back(wall);
      loop_joins.push_back(joins);
      e2e.bytes_per_join.push_back(ratio(bytes, joins));
    }
    untraced_rate.push_back(ops / (udp ? r.elapsed_ms / 1000.0 : wall));
    if (lookup_rep == udp) rep_frames.push_back(frames);
    if (lookup_rep) {
      if (const obs::Histogram* h =
              histogram(r.metrics, "net.lookup.latency_ms")) {
        lat_p50.push_back(h->percentile(0.50));
        lat_p99.push_back(h->percentile(0.99));
        lat_n.push_back(static_cast<double>(h->count()));
      }
    }
    if (!udp) {
      char line[256];
      std::snprintf(
          line, sizeof line,
          "frames=%llu wire_bytes=%llu join_requests=%llu redirects=%llu "
          "retrans=%llu locate_steps=%llu virtual_ms=%.2f audit=%s",
          static_cast<unsigned long long>(frames),
          static_cast<unsigned long long>(bytes),
          static_cast<unsigned long long>(
              counter(r.metrics, "net.msgs.join_request")),
          static_cast<unsigned long long>(counter(r.metrics, "net.redirects")),
          static_cast<unsigned long long>(counter(r.metrics, "net.retrans")),
          static_cast<unsigned long long>(
              counter(r.metrics, "net.locate.steps")),
          r.elapsed_ms, r.audit.ok() ? "exact" : "DEFECTS");
      outcomes.emplace_back(line);
    }
  };
  const int reps = run_reps(opt.seconds, opt.trace ? 4 : (udp ? 2 : 3),
                            setup, rep, e2e.setup_s);
  if (!udp) {
    check_deterministic(out, outcomes);
    const double setup_s = median(e2e.setup_s);
    for (std::size_t k = 0; k < loop_wall.size(); ++k) {
      const double host_s = std::max(loop_wall[k] - setup_s, 1e-9);
      e2e.join_rate.push_back(loop_joins[k] / host_s);
      e2e.op_rate.push_back(loop_joins[k] / host_s);
      e2e.pps.push_back(rep_frames[k] / host_s);
    }
  }
  out.note(std::string(spec.name) + ": " + std::to_string(reps) + " reps, " +
           std::to_string(spec.routers) + " routers, " +
           std::to_string(spec.hosts) + " hosts, " +
           std::to_string(spec.fingers) + " fingers, " +
           std::to_string(udp ? spec.lookups : 0) + " lookups per lookup rep");
  if (udp) {
    out.note("lookup latency (from the merged net.lookup.latency_ms histogram "
             "run_mesh returns; it exposes no per-lookup completion to time "
             "from outside): p50 " + std::to_string(median(lat_p50)) +
             " ms, p99 " + std::to_string(median(lat_p99)) + " ms over " +
             std::to_string(static_cast<long>(median(lat_n))) +
             " samples per rep");
  }

  if (!opt.trace) {
    e2e.report(out);
    return out;
  }

  // The traced reps must send the frames run_mesh sends for the same
  // configuration: exactly on the deterministic loopback storm, and within
  // run-to-run variation on UDP.
  for (const double f : traced_frames) {
    if (!udp) {
      out.check(f == rep_frames.front(),
                "traced rep sent " + std::to_string(f) +
                    " frames, run_mesh sent " +
                    std::to_string(rep_frames.front()));
    }
  }
  out.note("frames per rep: traced median " +
           std::to_string(median(traced_frames)) + ", run_mesh median " +
           std::to_string(median(rep_frames)));
  const TracedResult& tr = *traced;
  out.note("first traced rep: " +
           std::to_string(tr.join_frames + tr.lookup_frames) + " frames, " +
           std::to_string(tr.spans.spans().size()) + " spans");
  const double ops =
      static_cast<double>(tr.joins) + static_cast<double>(tr.lookups);

  replay_codec(tr.capture, out);
  for (const TypeName& tn : kTypes) {
    out.metric(std::string("proto.on_frame_us.") + tn.name,
               mean(tr.spans.self_times(std::string("proto.on_frame.") +
                                           tn.name)),
               "us");
  }
  const std::vector<double> tick_self = tr.spans.self_times("proto.tick");
  double tick_total = tr.idle_tick_us;
  for (const double d : tick_self) tick_total += d;
  out.metric("proto.tick_us", ratio(tick_total, static_cast<double>(tr.ticks)),
             "us");
  out.metric("proto.closest_predecessor_ns", tr.closest_pred_ns, "ns");
  const auto joins = static_cast<double>(tr.joins);
  out.metric("proto.frames_per_join",
             ratio(static_cast<double>(tr.join_frames), joins), "frames");
  out.metric("proto.frames_per_lookup",
             ratio(static_cast<double>(tr.lookup_frames),
                   static_cast<double>(tr.lookups)),
             "frames");
  out.metric("proto.redirects_per_join",
             ratio(static_cast<double>(counter(tr.merged, "net.redirects")),
                   joins),
             "count");
  out.metric("proto.retrans_per_op",
             ratio(static_cast<double>(counter(tr.merged, "net.retrans")), ops),
             "count");
  out.metric("net.send_us", mean(tr.spans.durations("net.send")), "us");
  out.metric("net.poll_us",
             ratio(tr.poll_us, static_cast<double>(tr.frames_in)), "us");
  out.metric("net.idle_poll_frac",
             ratio(static_cast<double>(tr.empty_passes),
                   static_cast<double>(tr.poll_passes)),
             "ratio");
  out.metric("net.dedup_dropped",
             static_cast<double>(tr.transport.dedup_dropped), "count");
  out.metric("net.ring_dropped", static_cast<double>(tr.ring_dropped),
             "count");
  out.metric("net.throttle_waits",
             static_cast<double>(tr.transport.throttle_waits), "count");
  if (udp) {
    out.metric("net.lookup_p50_ms", median(lat_p50), "ms");
    out.metric("net.lookup_p99_ms", median(lat_p99), "ms");
    out.metric("net.lookup_samples", median(lat_n), "count");
  }
  out.metric("setup.identities_s", median(ident_s), "s");
  out.metric("setup.network_s", median(network_s), "s");
  out.metric("mesh.audit_s", tr.audit_s, "s");
  report_overhead(out, untraced_rate, traced_rate);
  write_trace(out, opt, tr.spans);
  return out;
}

}  // namespace

Outcome run_mesh_join(const Options& opt) {
  return run_mesh_workload(kJoinSpec, opt);
}

Outcome run_mesh_udp(const Options& opt) {
  return run_mesh_workload(kUdpSpec, opt);
}

}  // namespace pb
