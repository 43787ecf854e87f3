#include "linkstate/link_state.hpp"

#include <gtest/gtest.h>

namespace rofl::linkstate {
namespace {

struct Fixture {
  graph::Graph g{4};
  sim::Simulator sim;
  Fixture() {
    // 0 - 1 - 2 - 3 with a backup edge 0-3.
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 2, 2.0);
    g.add_edge(2, 3, 3.0);
    g.add_edge(0, 3, 10.0);
  }
};

TEST(LinkState, PathAndNextHop) {
  Fixture f;
  LinkStateMap m(&f.g, &f.sim);
  const auto p = m.path(0, 2);
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(m.next_hop(0, 2), 1u);
  EXPECT_EQ(m.hop_distance(0, 2), 2u);
  EXPECT_DOUBLE_EQ(*m.latency_ms(0, 2), 3.0);
}

TEST(LinkState, NextHopToSelf) {
  Fixture f;
  LinkStateMap m(&f.g, &f.sim);
  EXPECT_EQ(m.next_hop(1, 1), 1u);
}

TEST(LinkState, ReroutesAroundFailedLink) {
  Fixture f;
  LinkStateMap m(&f.g, &f.sim);
  EXPECT_EQ(m.next_hop(0, 3), 3u);  // weight: direct edge is 1 hop weight 1
  m.fail_link(0, 3);
  EXPECT_EQ(m.next_hop(0, 3), 1u);  // now via the chain
  m.restore_link(0, 3);
  EXPECT_EQ(m.next_hop(0, 3), 3u);
}

TEST(LinkState, NodeFailureDisconnects) {
  Fixture f;
  LinkStateMap m(&f.g, &f.sim);
  m.fail_link(0, 3);
  m.fail_node(1);
  EXPECT_FALSE(m.reachable(0, 2));
  EXPECT_EQ(m.next_hop(0, 2), std::nullopt);
  m.restore_node(1);
  EXPECT_TRUE(m.reachable(0, 2));
}

TEST(LinkState, VersionBumpsOnEveryEvent) {
  Fixture f;
  LinkStateMap m(&f.g, &f.sim);
  const auto v0 = m.version();
  m.fail_link(0, 1);
  EXPECT_GT(m.version(), v0);
  m.restore_link(0, 1);
  EXPECT_GT(m.version(), v0 + 1);
}

TEST(LinkState, ListenersNotified) {
  Fixture f;
  LinkStateMap m(&f.g, &f.sim);
  std::vector<TopologyEvent::Kind> seen;
  m.subscribe([&](const TopologyEvent& ev) { seen.push_back(ev.kind); });
  m.fail_link(0, 1);
  m.fail_node(2);
  m.restore_node(2);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], TopologyEvent::Kind::kLinkDown);
  EXPECT_EQ(seen[1], TopologyEvent::Kind::kNodeDown);
  EXPECT_EQ(seen[2], TopologyEvent::Kind::kNodeUp);
}

TEST(LinkState, FloodingChargedToCounters) {
  Fixture f;
  LinkStateMap m(&f.g, &f.sim);
  EXPECT_EQ(f.sim.counters().get(sim::MsgCategory::kLinkState), 0u);
  m.fail_link(0, 1);
  // Remaining live directed adjacencies: (1-2, 2-3, 0-3) * 2 = 6.
  EXPECT_EQ(f.sim.counters().get(sim::MsgCategory::kLinkState), 6u);
}

TEST(LinkState, RouteValidTracksTopology) {
  Fixture f;
  LinkStateMap m(&f.g, &f.sim);
  const std::vector<graph::NodeIndex> route{0, 1, 2};
  EXPECT_TRUE(m.route_valid(route));
  m.fail_link(1, 2);
  EXPECT_FALSE(m.route_valid(route));
  m.restore_link(1, 2);
  m.fail_node(1);
  EXPECT_FALSE(m.route_valid(route));
}

// Random-ish connected graph with uneven weights and latencies, so shortest
// paths by weight differ from shortest paths by hop count.
graph::Graph make_mesh(std::size_t n) {
  graph::Graph g(n);
  std::uint64_t x = 7;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::size_t i = 1; i < n; ++i) {
    g.add_edge(static_cast<graph::NodeIndex>(i),
               static_cast<graph::NodeIndex>(next() % i),
               1.0 + static_cast<double>(next() % 10),
               1.0 + static_cast<double>(next() % 5));
  }
  for (std::size_t e = 0; e < 2 * n; ++e) {
    const auto u = static_cast<graph::NodeIndex>(next() % n);
    const auto v = static_cast<graph::NodeIndex>(next() % n);
    if (u != v) g.add_edge(u, v, 1.0 + static_cast<double>(next() % 10));
  }
  return g;
}

TEST(LinkState, WarmMapMatchesColdMapAfterMutations) {
  // The version epoch must drop every cached SPF slot and the component
  // labels: a warm map mutated through fail_node/fail_link answers every
  // query exactly like a cold map built on the identically mutated graph.
  graph::Graph g_warm = make_mesh(150);
  sim::Simulator sim;
  LinkStateMap warm(&g_warm, &sim);
  const auto query_all = [](const LinkStateMap& m) {
    for (graph::NodeIndex u = 0; u < m.router_count(); ++u) {
      for (graph::NodeIndex v = 0; v < m.router_count(); ++v) {
        (void)m.path(u, v);
        (void)m.reachable(u, v);
      }
    }
  };
  query_all(warm);

  warm.fail_node(13);
  warm.fail_link(2, g_warm.neighbors(2).front().to);
  // Cut router 40 off entirely so some pairs of up routers are unreachable.
  for (const graph::Edge& e : g_warm.neighbors(40)) warm.fail_link(40, e.to);

  graph::Graph g_cold = make_mesh(150);
  g_cold.set_node_up(13, false);
  g_cold.set_link_up(2, g_cold.neighbors(2).front().to, false);
  for (const graph::Edge& e : g_cold.neighbors(40)) {
    g_cold.set_link_up(40, e.to, false);
  }
  const LinkStateMap cold(&g_cold, nullptr);

  std::size_t unreachable = 0;
  for (graph::NodeIndex u = 0; u < g_warm.node_count(); ++u) {
    for (graph::NodeIndex v = 0; v < g_warm.node_count(); ++v) {
      ASSERT_EQ(warm.next_hop(u, v), cold.next_hop(u, v)) << u << "->" << v;
      ASSERT_EQ(warm.path(u, v), cold.path(u, v)) << u << "->" << v;
      ASSERT_EQ(warm.hop_distance(u, v), cold.hop_distance(u, v));
      ASSERT_EQ(warm.latency_ms(u, v), cold.latency_ms(u, v));
      ASSERT_EQ(warm.reachable(u, v), cold.reachable(u, v)) << u << "->" << v;
      // The component labels answer reachability without a Dijkstra; they
      // must agree with the SPF tree on every pair.
      ASSERT_EQ(warm.reachable(u, v), warm.hop_distance(u, v).has_value())
          << u << "->" << v;
      if (!warm.reachable(u, v)) ++unreachable;
    }
  }
  EXPECT_GT(unreachable, 0u);
  EXPECT_FALSE(warm.reachable(13, 13));
  EXPECT_TRUE(warm.reachable(40, 40));
  EXPECT_FALSE(warm.reachable(40, 0));
}

TEST(LinkState, NullSimAllowed) {
  graph::Graph g(2);
  g.add_edge(0, 1);
  LinkStateMap m(&g, nullptr);
  m.fail_link(0, 1);  // must not crash on accounting
  EXPECT_FALSE(m.reachable(0, 1));
}

}  // namespace
}  // namespace rofl::linkstate
