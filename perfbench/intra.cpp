// intra.cpp -- the serial-simulator workload: sim-intra-flows.
//
// One rep builds the AS3967-like ISP (201 routers) with the label fast path
// on, joins a host population, then runs a traffic phase: most routes come
// from a Zipf-popular set of flows (the label fast path pays), the rest
// from one-off uniform pairs (labels cost an install that is never reused),
// and a small share of operations is host churn -- fail_host or leave_host
// of a host no flow targets, followed by a fresh join.  Every layer call is
// a public intra::Network function.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <optional>

#include "common.hpp"
#include "graph/isp_topology.hpp"
#include "rofl/network.hpp"
#include "spans.hpp"
#include "util/identity.hpp"
#include "util/rng.hpp"

namespace pb {
namespace {

using namespace rofl;

struct IntraSpec {
  std::uint32_t hosts = 3000;          ///< joined in the join phase
  std::uint32_t flows = 2000;          ///< Zipf-popular (ingress, dest) pairs
  double zipf_s = 1.0;
  std::uint32_t traffic_ops = 50'000;  ///< routes and churn after the joins
  double uniform_frac = 0.1;           ///< routes to one-off uniform pairs
  double churn_frac = 0.0005;          ///< share of traffic ops that churn
};
constexpr IntraSpec kSpec{};
constexpr std::uint64_t kTopologySeed = 3967;

// One draw of hosts, gateways, flows and churn moves op_rate by several
// percent: the number of churns alone is 25 +- 5 per rep, and one costs
// about as much as a hundred routes.  A run therefore cycles its reps over
// kDraws inputs derived from --seed, so its median does not rest on one draw.
constexpr int kDraws = 4;

std::uint64_t draw_seed(std::uint64_t seed, int draw) {
  return seed * kDraws + static_cast<std::uint64_t>(draw);
}

/// FNV-1a over every join, route and churn outcome of a rep.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
};

struct RepResult {
  double join_s = 0.0, traffic_s = 0.0;
  std::uint64_t joins = 0, join_failures = 0;
  std::uint64_t routes = 0, undelivered = 0, churn_ops = 0;
  std::uint64_t join_msgs = 0;        ///< JoinStats::messages, join phase
  std::uint64_t join_bytes = 0;       ///< bytes.* charged in the join phase
  std::uint64_t packets = 0;          ///< msgs.* charged, both phases
  std::uint64_t label_hits = 0;
  std::uint64_t spf_runs = 0;
  double stretch_sum = 0.0;
  std::uint64_t stretch_n = 0;
  double state_entries = 0.0;
  bool rings_ok = false;
  std::string ring_error;
  Digest digest;

  [[nodiscard]] std::string outcome_line() const {
    char line[320];
    std::snprintf(
        line, sizeof line,
        "joins=%llu join_msgs=%llu routes=%llu label_hits=%llu churn=%llu "
        "packets=%llu stretch_mean=%.6f state=%.3f rings=%s digest=%016llx",
        static_cast<unsigned long long>(joins),
        static_cast<unsigned long long>(join_msgs),
        static_cast<unsigned long long>(routes),
        static_cast<unsigned long long>(label_hits),
        static_cast<unsigned long long>(churn_ops),
        static_cast<unsigned long long>(packets),
        stretch_n == 0 ? 0.0 : stretch_sum / static_cast<double>(stretch_n),
        state_entries, rings_ok ? "ok" : "BROKEN",
        static_cast<unsigned long long>(digest.h));
    return line;
  }
};

/// Span names of the traced rep.
struct Names {
  Spans::NameId setup = 0, topology = 0, identities = 0, network = 0,
                join_phase = 0, traffic_phase = 0, join = 0,
                route_labeled = 0, route_greedy = 0, churn = 0;
  Names() = default;
  explicit Names(Spans& s)
      : setup(s.name("setup")),
        topology(s.name("setup.topology")),
        identities(s.name("setup.identities")),
        network(s.name("setup.network")),
        join_phase(s.name("sim.join_phase")),
        traffic_phase(s.name("sim.traffic_phase")),
        join(s.name("rofl.join")),
        route_labeled(s.name("rofl.route.labeled")),
        route_greedy(s.name("rofl.route.greedy")),
        churn(s.name("rofl.churn")) {}
};

/// What a rep starts from: the router map, the host identities with their
/// gateways, and the Network (router ring bootstrapped).
struct World {
  explicit World(std::uint64_t seed) : rng(seed ^ 0x5EEDF10Bull) {}
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  std::optional<graph::IspTopology> topo;
  // Every draw of the workload comes from this stream; the Network keeps
  // its own (seed + 1), so the two never interleave.
  Rng rng;
  std::vector<Identity> idents;
  std::vector<graph::NodeIndex> gateways;
  std::optional<intra::Network> net;
  double topology_s = 0.0, identities_s = 0.0, network_s = 0.0;
  [[nodiscard]] double setup_s() const {
    return topology_s + identities_s + network_s;
  }
};

void build_world(World& w, std::uint64_t seed, Spans* spans, const Names& nm) {
  const Scope setup(spans, nm.setup);
  auto t0 = Clock::now();
  {
    // The router map is the fixed input every seed shares, as the paper's
    // Rocketfuel maps are; hosts, flows and churn are drawn from the seed.
    const Scope s(spans, nm.topology);
    Rng topo_rng(kTopologySeed);
    w.topo.emplace(
        graph::make_rocketfuel_like(graph::RocketfuelAs::kAs3967, topo_rng));
  }
  w.topology_s = seconds_since(t0);
  const std::size_t routers = w.topo->router_count();

  t0 = Clock::now();
  {
    const Scope s(spans, nm.identities);
    w.idents.reserve(kSpec.hosts);
    for (std::uint32_t i = 0; i < kSpec.hosts; ++i) {
      w.idents.push_back(Identity::generate(w.rng));
      w.gateways.push_back(
          static_cast<graph::NodeIndex>(w.rng.index(routers)));
    }
  }
  w.identities_s = seconds_since(t0);

  t0 = Clock::now();
  {
    const Scope s(spans, nm.network);
    intra::Config cfg;
    cfg.enable_labels = true;
    w.net.emplace(&*w.topo, cfg, seed + 1);
  }
  w.network_s = seconds_since(t0);
}

RepResult run_rep(std::uint64_t seed, Spans* spans) {
  const Names nm = spans != nullptr ? Names(*spans) : Names{};
  RepResult res;
  World w(seed);
  build_world(w, seed, spans, nm);
  intra::Network* const net = &*w.net;
  Rng& rng = w.rng;
  const std::size_t routers = w.topo->router_count();
  const std::vector<Identity>& idents = w.idents;
  const std::vector<graph::NodeIndex>& gateways = w.gateways;
  obs::Registry& reg = net->simulator().metrics();
  const obs::MetricId hits_id = reg.counter("labels.hits");

  // -- join phase ------------------------------------------------------------
  std::vector<NodeId> live;  // joined, not churned away
  std::vector<bool> is_flow_dest;
  auto t0 = Clock::now();
  {
    const Scope phase(spans, nm.join_phase);
    for (std::uint32_t i = 0; i < kSpec.hosts; ++i) {
      intra::JoinStats js;
      {
        const Scope s(spans, nm.join, i + 1);
        js = net->join_host(idents[i], gateways[i]);
      }
      if (!js.ok) {
        ++res.join_failures;
        continue;
      }
      ++res.joins;
      res.join_msgs += js.messages;
      res.digest.add(js.messages);
      live.push_back(idents[i].id());
    }
  }
  res.join_s = seconds_since(t0);
  res.join_bytes = counter_sum(reg, "bytes.");
  is_flow_dest.assign(live.size(), false);

  // -- traffic phase ---------------------------------------------------------
  // Zipf-popular flows: flow k has weight 1/(k+1)^s.
  struct Flow {
    graph::NodeIndex src;
    std::size_t dest;  // index into `live`
  };
  std::vector<Flow> flows;
  std::vector<double> cdf;
  double total = 0.0;
  for (std::uint32_t k = 0; k < kSpec.flows && !live.empty(); ++k) {
    const std::size_t d = rng.index(live.size());
    is_flow_dest[d] = true;
    flows.push_back({static_cast<graph::NodeIndex>(rng.index(routers)), d});
    total += 1.0 / std::pow(static_cast<double>(k + 1), kSpec.zipf_s);
    cdf.push_back(total);
  }
  t0 = Clock::now();
  {
    const Scope phase(spans, nm.traffic_phase);
    for (std::uint32_t op = 0; op < kSpec.traffic_ops && !flows.empty();
         ++op) {
      const std::uint64_t request = kSpec.hosts + op + 1;
      if (rng.chance(kSpec.churn_frac)) {
        // Churn: a host no flow targets fails or leaves, and a fresh host
        // joins in its place.
        std::size_t v = rng.index(live.size());
        while (is_flow_dest[v]) v = rng.index(live.size());
        const bool fail = rng.chance(0.5);
        intra::RepairStats rs;
        {
          const Scope s(spans, nm.churn, request);
          rs = fail ? net->fail_host(live[v]) : net->leave_host(live[v]);
        }
        res.digest.add(rs.messages);
        const Identity fresh = Identity::generate(rng);
        const auto gw = static_cast<graph::NodeIndex>(rng.index(routers));
        intra::JoinStats js;
        {
          const Scope s(spans, nm.join, request);
          js = net->join_host(fresh, gw);
        }
        res.digest.add(js.messages);
        res.churn_ops += 2;
        if (js.ok) {
          live[v] = fresh.id();
        } else {
          ++res.join_failures;
        }
        continue;
      }
      graph::NodeIndex src;
      NodeId dest;
      if (rng.chance(kSpec.uniform_frac)) {
        src = static_cast<graph::NodeIndex>(rng.index(routers));
        dest = live[rng.index(live.size())];
      } else {
        const double u = rng.uniform() * total;
        const auto k = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        const Flow& f = flows[std::min(k, flows.size() - 1)];
        src = f.src;
        dest = live[f.dest];
      }
      const std::uint64_t hits_before = reg.counter_value(hits_id);
      intra::RouteStats rs;
      {
        const Scope s(spans, nm.route_greedy, request);
        rs = net->route(src, dest);
        if (spans != nullptr && reg.counter_value(hits_id) > hits_before) {
          spans->rename(s.handle(), nm.route_labeled);
        }
      }
      ++res.routes;
      if (!rs.delivered) ++res.undelivered;
      if (rs.delivered && rs.shortest_hops > 0) {
        res.stretch_sum += rs.stretch();
        ++res.stretch_n;
      }
      res.digest.add(rs.delivered);
      res.digest.add(rs.physical_hops);
      res.digest.add(rs.ring_hops);
    }
  }
  res.traffic_s = seconds_since(t0);

  res.packets = counter_sum(reg, "msgs.");
  res.label_hits = reg.counter_value(hits_id);
  res.spf_runs = counter(reg, "linkstate.spf.runs");
  res.state_entries = net->mean_state_entries();
  res.rings_ok = net->verify_rings(&res.ring_error);
  res.digest.add(res.packets);
  res.digest.add(res.label_hits);
  return res;
}

}  // namespace

Outcome run_sim_intra(const Options& opt) {
  Outcome out;
  EndToEnd e2e;
  std::vector<double> topo_s, ident_s, network_s;
  std::array<std::vector<std::string>, kDraws> outcomes;
  // A traced run stays on draw 0 and alternates untraced and traced reps;
  // the first traced rep gives the per-layer metrics.
  std::vector<double> traced_rate;
  std::optional<RepResult> traced;
  std::optional<Spans> spans;
  int setups = 0;
  const auto setup = [&] {
    const std::uint64_t seed = draw_seed(opt.seed, setups++ % kDraws);
    World w(seed);
    build_world(w, seed, nullptr, Names{});
    topo_s.push_back(w.topology_s);
    ident_s.push_back(w.identities_s);
    network_s.push_back(w.network_s);
    return w.setup_s();
  };
  const auto rep = [&](int i) {
    const int d = opt.trace ? 0 : i % kDraws;
    if (opt.trace && i % 2 == 1) {
      Spans s(Clock::now());
      RepResult r = run_rep(draw_seed(opt.seed, 0), &s);
      out.check(r.outcome_line() == outcomes[0].front(),
                "traced rep outcome differs from the untraced reps");
      out.check(r.undelivered == 0 && r.rings_ok, "traced rep checks failed");
      traced_rate.push_back(static_cast<double>(r.routes + r.churn_ops) /
                            r.traffic_s);
      if (!traced) {
        traced = std::move(r);
        spans = std::move(s);
      }
      return;
    }
    const RepResult r = run_rep(draw_seed(opt.seed, d), nullptr);
    out.attempted += kSpec.hosts + r.routes + r.churn_ops;
    out.failed += r.join_failures + r.undelivered + (r.rings_ok ? 0 : 1);
    out.check(r.undelivered == 0,
              std::to_string(r.undelivered) + " routes undelivered");
    out.check(r.join_failures == 0,
              std::to_string(r.join_failures) + " joins failed");
    out.check(r.rings_ok, "verify_rings: " + r.ring_error);
    e2e.join_rate.push_back(static_cast<double>(r.joins) / r.join_s);
    e2e.op_rate.push_back(static_cast<double>(r.routes + r.churn_ops) /
                          r.traffic_s);
    e2e.pps.push_back(static_cast<double>(r.packets) /
                      (r.join_s + r.traffic_s));
    e2e.bytes_per_join.push_back(static_cast<double>(r.join_bytes) /
                                 static_cast<double>(r.joins));
    outcomes[d].push_back(r.outcome_line());
  };
  const int reps =
      run_reps(opt.seconds, opt.trace ? 4 : 2 * kDraws, setup, rep, e2e.setup_s);
  for (const auto& lines : outcomes) {
    if (!lines.empty()) check_deterministic(out, lines);
  }
  out.note("sim-intra-flows: " + std::to_string(reps) + " reps over " +
           std::to_string(opt.trace ? 1 : kDraws) + " input draws on AS3967, " +
           std::to_string(kSpec.hosts) + " joins, " +
           std::to_string(kSpec.traffic_ops) + " traffic ops per rep");

  if (!opt.trace) {
    e2e.report(out);
    return out;
  }

  const RepResult& r = *traced;
  const auto us = [&](const char* n) { return spans->durations(n); };
  out.metric("rofl.join_us.p50", percentile(us("rofl.join"), 0.50), "us");
  out.metric("rofl.join_us.p99", percentile(us("rofl.join"), 0.99), "us");
  out.metric("rofl.route_us.labeled.p50",
             percentile(us("rofl.route.labeled"), 0.50), "us");
  out.metric("rofl.route_us.labeled.p99",
             percentile(us("rofl.route.labeled"), 0.99), "us");
  out.metric("rofl.route_us.greedy.p50",
             percentile(us("rofl.route.greedy"), 0.50), "us");
  out.metric("rofl.route_us.greedy.p99",
             percentile(us("rofl.route.greedy"), 0.99), "us");
  out.metric("rofl.churn_us.p50", percentile(us("rofl.churn"), 0.50), "us");
  out.metric("rofl.label_hit_ratio",
             static_cast<double>(r.label_hits) / static_cast<double>(r.routes),
             "ratio");
  out.metric("rofl.msgs_per_join",
             static_cast<double>(r.join_msgs) / static_cast<double>(r.joins),
             "packets");
  out.metric("rofl.stretch_mean",
             r.stretch_n == 0
                 ? 0.0
                 : r.stretch_sum / static_cast<double>(r.stretch_n),
             "ratio");
  out.metric("rofl.state_entries_per_router", r.state_entries, "entries");
  out.metric("setup.topology_s", median(topo_s), "s");
  out.metric("setup.identities_s", median(ident_s), "s");
  out.metric("setup.network_s", median(network_s), "s");
  out.metric("linkstate.spf_runs", static_cast<double>(r.spf_runs), "count");
  report_overhead(out, e2e.op_rate, traced_rate);
  write_trace(out, opt, *spans);
  return out;
}

}  // namespace pb
