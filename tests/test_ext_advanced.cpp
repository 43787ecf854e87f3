// Tests for the advanced section-5 machinery: i3-style weighted anycast,
// single-source multicast trees, interdomain virtual servers, and group
// behavior under churn.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "ext/multicast.hpp"
#include "ext/weighted_anycast.hpp"
#include "interdomain/inter_network.hpp"

namespace rofl::ext {
namespace {

struct IntraFixture {
  graph::IspTopology topo;
  std::unique_ptr<intra::Network> net;

  explicit IntraFixture(std::uint64_t seed = 404, intra::Config cfg = {}) {
    Rng trng(seed);
    graph::IspParams p;
    p.router_count = 40;
    p.pop_count = 6;
    topo = graph::make_isp_topology(p, trng);
    net = std::make_unique<intra::Network>(&topo, cfg, seed + 1);
    for (int i = 0; i < 60; ++i) (void)net->join_random_host();
  }
};

TEST(WeightedAnycast, LoadFollowsCapacity) {
  IntraFixture f;
  const GroupId g(Identity::generate(f.net->rng()));
  WeightedAnycast wa(g);
  wa.add_replica(3, 1.0);
  wa.add_replica(17, 3.0);  // 3x the capacity of replica 0
  ASSERT_TRUE(wa.deploy(*f.net));

  Rng client(7);
  std::map<NodeId, int> hits;
  const int sends = 600;
  for (int i = 0; i < sends; ++i) {
    const auto src = static_cast<graph::NodeIndex>(
        client.index(f.net->router_count()));
    const AnycastResult r = wa.send(*f.net, src, client);
    ASSERT_TRUE(r.delivered);
    ++hits[r.member];
  }
  const int small = hits[wa.replicas()[0].member_id];
  const int big = hits[wa.replicas()[1].member_id];
  EXPECT_EQ(small + big, sends);
  // 1:3 capacity split; allow generous sampling noise.
  EXPECT_GT(big, 2 * small);
  EXPECT_GT(small, sends / 12);
}

TEST(WeightedAnycast, OwnerMatchesDelivery) {
  // Second input: labels on.  Group routes neither look up nor install label
  // flows, so every probe (sent twice) reaches the same member either way.
  std::vector<NodeId> members[2];
  for (const bool labels : {false, true}) {
    intra::Config cfg;
    cfg.enable_labels = labels;
    IntraFixture f(404, cfg);
    const GroupId g(Identity::generate(f.net->rng()));
    WeightedAnycast wa(g);
    wa.add_replica(5, 2.0);
    wa.add_replica(11, 1.0);
    wa.add_replica(23, 1.0);
    ASSERT_TRUE(wa.deploy(*f.net));
    const std::uint64_t flows = f.net->label_totals().flows;
    // Route with explicit suffixes and compare against the analytic owner.
    for (const std::uint32_t probe :
         {0u, 1u << 30, 1u << 31, 3u << 30, 0xFFFFFFFFu}) {
      for (int rep = 0; rep < 2; ++rep) {
        const AnycastResult r = anycast_route(*f.net, 0, g, probe);
        ASSERT_TRUE(r.delivered) << probe;
        const auto* owner = wa.owner_of(probe);
        ASSERT_NE(owner, nullptr);
        EXPECT_EQ(r.member, owner->member_id) << "suffix " << probe;
        members[labels ? 1 : 0].push_back(r.member);
      }
    }
    EXPECT_EQ(f.net->label_totals().flows, flows) << "labels " << labels;
  }
  EXPECT_EQ(members[0], members[1]);
}

TEST(WeightedAnycast, SingleReplicaTakesAll) {
  IntraFixture f;
  const GroupId g(Identity::generate(f.net->rng()));
  WeightedAnycast wa(g);
  wa.add_replica(9, 5.0);
  ASSERT_TRUE(wa.deploy(*f.net));
  Rng client(8);
  for (int i = 0; i < 40; ++i) {
    const AnycastResult r = wa.send(*f.net, 0, client);
    ASSERT_TRUE(r.delivered);
    EXPECT_EQ(r.member, wa.replicas()[0].member_id);
  }
}

TEST(SingleSourceMulticast, TreeCheaperOrEqualForSourceTraffic) {
  IntraFixture f_shared(501);
  IntraFixture f_source(501);
  const GroupId g1(Identity::generate(f_shared.net->rng()));
  const GroupId g2(Identity::generate(f_source.net->rng()));

  MulticastGroup shared(g1);
  MulticastGroup source(g2);
  const graph::NodeIndex src_router = 2;
  source.set_single_source(src_router);

  const std::vector<graph::NodeIndex> subscribers{2, 9, 15, 24, 33, 38};
  std::uint32_t suffix = 1;
  for (const auto gw : subscribers) {
    ASSERT_TRUE(shared.join(*f_shared.net, gw, suffix).ok);
    ASSERT_TRUE(source.join(*f_source.net, gw, suffix).ok);
    ++suffix;
  }
  ASSERT_TRUE(shared.verify_tree());
  ASSERT_TRUE(source.verify_tree());
  const auto shared_send = shared.send(*f_shared.net, src_router);
  const auto source_send = source.send(*f_source.net, src_router);
  EXPECT_EQ(shared_send.members_reached, subscribers.size());
  EXPECT_EQ(source_send.members_reached, subscribers.size());
  // The source-rooted tree is shortest-path from the source, so sending
  // from the source costs no more copies than the shared tree.
  EXPECT_LE(source_send.copies, shared_send.copies);
}

TEST(SingleSourceMulticast, ChurnKeepsTreeValid) {
  IntraFixture f;
  const GroupId g(Identity::generate(f.net->rng()));
  MulticastGroup mc(g);
  mc.set_single_source(4);
  std::uint32_t suffix = 1;
  ASSERT_TRUE(mc.join(*f.net, 4, suffix++).ok);
  for (const auto gw : {8u, 13u, 21u, 29u, 35u}) {
    ASSERT_TRUE(mc.join(*f.net, gw, suffix++).ok);
  }
  mc.leave(*f.net, 13);
  mc.leave(*f.net, 29);
  EXPECT_TRUE(mc.verify_tree());
  EXPECT_EQ(mc.send(*f.net, 4).members_reached, 4u);
}

// -- virtual servers ---------------------------------------------------------

TEST(VirtualServers, OutageWithoutChurn) {
  using graph::AsRel;
  auto topo = graph::AsTopology::from_links(
      5, {{1, 0, AsRel::kProvider},
          {2, 0, AsRel::kProvider},
          {3, 1, AsRel::kProvider},
          {4, 2, AsRel::kProvider}});
  for (graph::AsIndex a : {3u, 4u}) topo.set_host_count(a, 10);
  inter::InterNetwork net(&topo, inter::InterConfig{}, 33);

  std::vector<NodeId> at3, at4;
  for (int i = 0; i < 6; ++i) {
    Identity ident = Identity::generate(net.rng());
    ASSERT_TRUE(
        net.join_host(ident, 3, inter::JoinStrategy::kRecursiveMultihomed).ok);
    at3.push_back(ident.id());
    Identity other = Identity::generate(net.rng());
    ASSERT_TRUE(
        net.join_host(other, 4, inter::JoinStrategy::kRecursiveMultihomed).ok);
    at4.push_back(other.id());
  }

  // AS 3 goes dark but its provider (1) keeps virtual servers.
  const auto vs = net.fail_as_with_virtual_servers(3, 1);
  EXPECT_EQ(vs.ids_lost, 0u);
  std::string err;
  EXPECT_TRUE(net.verify_rings(&err)) << err;
  // The IDs stay reachable -- now terminating at the provider.
  for (const NodeId& id : at3) {
    EXPECT_EQ(net.home_of(id), 1u);
    EXPECT_TRUE(net.route(4, id).delivered) << id;
  }

  // Return is a cheap re-point, far below a mass rejoin.
  const auto back = net.restore_as(3);
  EXPECT_TRUE(net.verify_rings(&err)) << err;
  for (const NodeId& id : at3) {
    EXPECT_EQ(net.home_of(id), 3u);
    EXPECT_TRUE(net.route(4, id).delivered) << id;
  }
  // Compare against the plain outage cost on an identical network.
  inter::InterNetwork plain(&topo, inter::InterConfig{}, 33);
  for (int i = 0; i < 6; ++i) {
    Identity ident = Identity::generate(plain.rng());
    ASSERT_TRUE(
        plain.join_host(ident, 3, inter::JoinStrategy::kRecursiveMultihomed).ok);
    Identity other = Identity::generate(plain.rng());
    ASSERT_TRUE(
        plain.join_host(other, 4, inter::JoinStrategy::kRecursiveMultihomed).ok);
  }
  const auto hard = plain.fail_as(3);
  const auto rejoin = plain.restore_as(3);
  EXPECT_GT(hard.ids_lost, 0u);
  EXPECT_LT(vs.messages + back.messages, hard.messages + rejoin.messages);
}

TEST(VirtualServers, RequiresDirectProvider) {
  using graph::AsRel;
  auto topo = graph::AsTopology::from_links(
      3, {{1, 0, AsRel::kProvider}, {2, 1, AsRel::kProvider}});
  topo.set_host_count(2, 5);
  inter::InterNetwork net(&topo, inter::InterConfig{}, 3);
  Identity ident = Identity::generate(net.rng());
  ASSERT_TRUE(
      net.join_host(ident, 2, inter::JoinStrategy::kRecursiveMultihomed).ok);
  // AS 0 is the grandparent, not a direct provider of 2: refused.
  const auto rs = net.fail_as_with_virtual_servers(2, 0);
  EXPECT_EQ(rs.messages, 0u);
  EXPECT_TRUE(net.base_topology().as_up(2));
}

}  // namespace
}  // namespace rofl::ext
