// Tests for the section-5 extensions: anycast, multicast, capabilities /
// default-off, endpoint negotiation, and TE suffixes.
#include <gtest/gtest.h>

#include "ext/anycast.hpp"
#include "ext/capability.hpp"
#include "ext/group_id.hpp"
#include "ext/multicast.hpp"
#include "ext/traffic_control.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/faults.hpp"

namespace rofl::ext {
namespace {

struct IntraFixture {
  graph::IspTopology topo;
  std::unique_ptr<intra::Network> net;

  explicit IntraFixture(std::uint64_t seed = 21) {
    Rng trng(seed);
    graph::IspParams p;
    p.router_count = 30;
    p.pop_count = 5;
    topo = graph::make_isp_topology(p, trng);
    net = std::make_unique<intra::Network>(&topo, intra::Config{}, seed + 1);
    for (int i = 0; i < 60; ++i) {
      EXPECT_TRUE(net->join_random_host().ok);
    }
  }
};

TEST(GroupId, SuffixLayout) {
  Rng rng(5);
  const GroupId g(Identity::generate(rng));
  EXPECT_TRUE(g.contains(g.base()));
  EXPECT_TRUE(g.contains(g.high()));
  EXPECT_TRUE(g.contains(g.with_suffix(12345)));
  EXPECT_LT(g.base(), g.with_suffix(1));
  EXPECT_LT(g.with_suffix(1), g.with_suffix(2));
  EXPECT_LE(g.with_suffix(0xFFFFFFFFu), g.high());
  // Prefix integrity: suffix never bleeds into the group bits.
  EXPECT_EQ(g.with_suffix(0xFFFFFFFFu).common_prefix_len(g.base()),
            kGroupPrefixBits);
}

TEST(GroupId, DistinctGroupsDisjoint) {
  Rng rng(6);
  const GroupId a(Identity::generate(rng));
  const GroupId b(Identity::generate(rng));
  EXPECT_FALSE(a.contains(b.base()));
  EXPECT_FALSE(b.contains(a.with_suffix(9)));
}

TEST(Anycast, ReachesSomeMember) {
  IntraFixture f;
  const GroupId g(Identity::generate(f.net->rng()));
  ASSERT_TRUE(anycast_join(*f.net, g, 10, 2).ok);
  ASSERT_TRUE(anycast_join(*f.net, g, 20, 17).ok);
  ASSERT_TRUE(anycast_join(*f.net, g, 30, 28).ok);
  for (graph::NodeIndex src = 0; src < f.net->router_count(); src += 3) {
    const AnycastResult r = anycast_route(*f.net, src, g);
    ASSERT_TRUE(r.delivered) << "from " << src;
    EXPECT_TRUE(g.contains(r.member));
  }
}

TEST(Anycast, MemberRouterAbsorbsLocally) {
  IntraFixture f;
  const GroupId g(Identity::generate(f.net->rng()));
  ASSERT_TRUE(anycast_join(*f.net, g, 1, 4).ok);
  const AnycastResult r = anycast_route(*f.net, 4, g);
  ASSERT_TRUE(r.delivered);
  EXPECT_EQ(r.physical_hops, 0u);
}

TEST(Anycast, NoMembersNoDelivery) {
  IntraFixture f;
  const GroupId g(Identity::generate(f.net->rng()));
  EXPECT_FALSE(anycast_route(*f.net, 0, g).delivered);
}

TEST(Anycast, JoinRequiresGroupKey) {
  IntraFixture f;
  const GroupId g(Identity::generate(f.net->rng()));
  // A forged group (different key, same suffix space) cannot take over g's
  // IDs: its joins land in its own prefix range.
  const GroupId forged(Identity::generate(f.net->rng()));
  ASSERT_TRUE(anycast_join(*f.net, forged, 1, 3).ok);
  EXPECT_FALSE(anycast_route(*f.net, 0, g).delivered);
}

TEST(Anycast, CrossesLinksThroughTheFaultInjector) {
  // An anycast packet is a data packet: every link it crosses draws from the
  // installed injector, so a link that loses everything stops it.
  IntraFixture f;
  const GroupId g(Identity::generate(f.net->rng()));
  ASSERT_TRUE(anycast_join(*f.net, g, 10, 2).ok);
  ASSERT_TRUE(anycast_join(*f.net, g, 20, 17).ok);
  obs::Registry& reg = f.net->simulator().metrics();
  sim::FaultPlan plan;
  plan.defaults.loss = 1.0;
  sim::FaultInjector inj(plan, 5, &reg);
  f.net->set_fault_injector(&inj);
  const AnycastResult r = anycast_route(*f.net, 0, g);
  EXPECT_FALSE(r.delivered);
  EXPECT_GT(reg.counter_value(reg.counter("faults.dropped")), 0u);
  f.net->set_fault_injector(nullptr);
  EXPECT_TRUE(anycast_route(*f.net, 0, g).delivered);
}

TEST(Anycast, FlightRecorderTracesDeliveryAtTheAbsorbingRouter) {
  IntraFixture f;
  const GroupId g(Identity::generate(f.net->rng()));
  ASSERT_TRUE(anycast_join(*f.net, g, 10, 2).ok);
  ASSERT_TRUE(anycast_join(*f.net, g, 20, 17).ok);
  obs::FlightRecorder fr(1024);
  f.net->set_flight_recorder(&fr);
  const AnycastResult r = anycast_route(*f.net, 0, g);
  ASSERT_TRUE(r.delivered);
  ASSERT_NE(r.trace_id, 0u);
  ASSERT_GE(r.path.size(), 2u);
  const std::vector<obs::HopRecord> hops = fr.trace(r.trace_id);
  ASSERT_FALSE(hops.empty());
  EXPECT_EQ(hops.back().kind, obs::HopKind::kDeliver);
  EXPECT_EQ(hops.back().node, r.path.back());
  EXPECT_EQ(hops.back().chased, r.member);
  const std::string dump = fr.format_trace(r.trace_id);
  const std::size_t last = dump.rfind('\n', dump.size() - 2);
  ASSERT_NE(last, std::string::npos);
  EXPECT_NE(dump.find("deliver", last), std::string::npos) << dump;
}

TEST(Multicast, TreeCoversMembersAndVerifies) {
  IntraFixture f;
  const GroupId g(Identity::generate(f.net->rng()));
  MulticastGroup mc(g);
  ASSERT_TRUE(mc.join(*f.net, 3, 1).ok);
  ASSERT_TRUE(mc.join(*f.net, 15, 2).ok);
  ASSERT_TRUE(mc.join(*f.net, 27, 3).ok);
  ASSERT_TRUE(mc.join(*f.net, 9, 4).ok);
  EXPECT_TRUE(mc.verify_tree());
  EXPECT_EQ(mc.member_routers().size(), 4u);

  const auto stats = mc.send(*f.net, 3);
  EXPECT_EQ(stats.members_reached, 4u);
  EXPECT_GE(stats.copies, 3u);  // at least tree-spanning copies
  // Copies bounded by tree size (each tree link carries at most one copy).
  EXPECT_LT(stats.copies, 2 * f.net->router_count());
}

TEST(Multicast, SendFromEveryMember) {
  IntraFixture f;
  const GroupId g(Identity::generate(f.net->rng()));
  MulticastGroup mc(g);
  for (graph::NodeIndex gw : {1u, 8u, 22u}) {
    ASSERT_TRUE(mc.join(*f.net, gw, gw).ok);
  }
  for (graph::NodeIndex gw : {1u, 8u, 22u}) {
    EXPECT_EQ(mc.send(*f.net, gw).members_reached, 3u);
  }
}

TEST(Multicast, NonMemberCannotSend) {
  IntraFixture f;
  const GroupId g(Identity::generate(f.net->rng()));
  MulticastGroup mc(g);
  ASSERT_TRUE(mc.join(*f.net, 2, 1).ok);
  EXPECT_EQ(mc.send(*f.net, 5).members_reached, 0u);
}

TEST(Multicast, LeavePrunesBranches) {
  IntraFixture f;
  const GroupId g(Identity::generate(f.net->rng()));
  MulticastGroup mc(g);
  ASSERT_TRUE(mc.join(*f.net, 3, 1).ok);
  ASSERT_TRUE(mc.join(*f.net, 15, 2).ok);
  ASSERT_TRUE(mc.join(*f.net, 27, 3).ok);
  mc.leave(*f.net, 15);
  EXPECT_TRUE(mc.verify_tree());
  EXPECT_EQ(mc.send(*f.net, 3).members_reached, 2u);
}

TEST(Multicast, GraftChargesEachLinkOnce) {
  // The anycast walk toward the tree charges the links it crosses; painting
  // the graft along that walk must not charge them a second time.
  IntraFixture f;
  const GroupId g(Identity::generate(f.net->rng()));
  MulticastGroup mc(g);
  ASSERT_TRUE(mc.join(*f.net, 3, 1).ok);
  const sim::Counters& c = f.net->simulator().counters();
  const auto charged = [&c] {
    return c.get(sim::MsgCategory::kData) + c.get(sim::MsgCategory::kControl);
  };
  const std::uint64_t before = charged();
  const auto js = mc.join(*f.net, 27, 2);
  ASSERT_TRUE(js.ok);
  EXPECT_EQ(js.messages, 3u);
  EXPECT_EQ(charged() - before, 3u);
}

TEST(Capability, IssueAndValidate) {
  Rng rng(31);
  const Identity host = Identity::generate(rng);
  const Identity client = Identity::generate(rng);
  CapabilityIssuer issuer(host);
  const Capability cap = issuer.issue(client.id(), /*now=*/100.0,
                                      /*lifetime=*/50.0);
  EXPECT_TRUE(issuer.validate(cap, client.id(), 120.0));
  EXPECT_FALSE(issuer.validate(cap, client.id(), 151.0));  // expired
  Rng rng2(32);
  const Identity other = Identity::generate(rng2);
  EXPECT_FALSE(issuer.validate(cap, other.id(), 120.0));  // wrong source
}

TEST(Capability, TamperedTokenRejected) {
  Rng rng(33);
  const Identity host = Identity::generate(rng);
  const Identity client = Identity::generate(rng);
  CapabilityIssuer issuer(host);
  Capability cap = issuer.issue(client.id(), 0.0, 1000.0);
  cap.expiry_ms += 1000.0;  // extend lifetime without re-minting
  EXPECT_FALSE(issuer.validate(cap, client.id(), 500.0));
  Capability cap2 = issuer.issue(client.id(), 0.0, 1000.0);
  cap2.token[0] ^= 0xFF;
  EXPECT_FALSE(issuer.validate(cap2, client.id(), 500.0));
}

TEST(Capability, DefaultOffDropsUnregisteredAndUncapable) {
  IntraFixture f;
  const Identity server = Identity::generate(f.net->rng());
  const Identity client = Identity::generate(f.net->rng());
  ASSERT_TRUE(f.net->join_host(server, 7).ok);
  CapabilityIssuer issuer(server);
  DefaultOffFilter filter;

  // Unregistered destination: dropped.
  EXPECT_FALSE(filter
                   .guarded_route(*f.net, 0, client.id(), server.id(), nullptr)
                   .delivered);
  filter.register_host(server.id());
  // Registered, no protection: flows.
  EXPECT_TRUE(filter
                  .guarded_route(*f.net, 0, client.id(), server.id(), nullptr)
                  .delivered);
  // Default-off: requires a valid capability.
  filter.protect(server.id(), &issuer);
  EXPECT_FALSE(filter
                   .guarded_route(*f.net, 0, client.id(), server.id(), nullptr)
                   .delivered);
  const Capability cap =
      issuer.issue(client.id(), f.net->simulator().now_ms(), 1e6);
  EXPECT_TRUE(filter
                  .guarded_route(*f.net, 0, client.id(), server.id(), &cap)
                  .delivered);
}

TEST(Capability, PathComplianceChecksAses) {
  PathCapability cap;
  cap.allowed_ases = {1, 2, 3};
  EXPECT_TRUE(path_compliant(cap, {1, 3}));
  EXPECT_FALSE(path_compliant(cap, {1, 4}));
  EXPECT_TRUE(path_compliant(cap, {}));
}

// -- interdomain traffic control ---------------------------------------------

struct InterFixture {
  graph::AsTopology topo;
  std::unique_ptr<inter::InterNetwork> net;
  std::vector<NodeId> ids;

  InterFixture() {
    using graph::AsRel;
    topo = graph::AsTopology::from_links(
        8, {{2, 0, AsRel::kProvider},
            {3, 0, AsRel::kProvider},
            {4, 1, AsRel::kProvider},
            {5, 2, AsRel::kProvider},
            {6, 2, AsRel::kProvider},
            {7, 3, AsRel::kProvider},
            {0, 1, AsRel::kPeer}});
    net = std::make_unique<inter::InterNetwork>(&topo, inter::InterConfig{}, 77);
    for (graph::AsIndex leaf : {5u, 6u, 7u, 4u}) {
      for (int i = 0; i < 5; ++i) {
        Identity ident = Identity::generate(net->rng());
        EXPECT_TRUE(net->join_host(ident, leaf,
                                   inter::JoinStrategy::kRecursiveMultihomed)
                        .ok);
        ids.push_back(ident.id());
      }
    }
  }
};

TEST(TrafficControl, NegotiableSetIsUpHierarchyIntersection) {
  InterFixture f;
  const auto set57 = negotiable_ases(*f.net, 5, 7);
  // Common ancestors of 5 and 7: AS 0 plus the tier-1 virtual AS.
  EXPECT_TRUE(std::find(set57.begin(), set57.end(), 0u) != set57.end());
  const auto set56 = negotiable_ases(*f.net, 5, 6);
  EXPECT_TRUE(std::find(set56.begin(), set56.end(), 2u) != set56.end());
}

TEST(TrafficControl, NegotiatedRouteCompliance) {
  InterFixture f;
  for (const NodeId& dest : f.ids) {
    if (f.net->home_of(dest) != 6u) continue;
    // Negotiate the full candidate set: always compliant.
    const auto allowed = negotiable_ases(*f.net, 5, 6);
    const auto r = route_negotiated(*f.net, 5, dest, allowed);
    ASSERT_TRUE(r.stats.delivered);
    EXPECT_TRUE(r.compliant);
    // Empty negotiated set: non-compliant unless the packet never transits.
    const auto r2 = route_negotiated(*f.net, 5, dest, {});
    ASSERT_TRUE(r2.stats.delivered);
    EXPECT_FALSE(r2.compliant);
  }
}

TEST(TrafficControl, TeSuffixesJoinPerProvider) {
  using graph::AsRel;
  // Multihomed stub 4 with providers 2 and 3.
  auto topo = graph::AsTopology::from_links(
      6, {{2, 0, AsRel::kProvider},
          {3, 0, AsRel::kProvider},
          {4, 2, AsRel::kProvider},
          {4, 3, AsRel::kProvider},
          {5, 2, AsRel::kProvider}});
  inter::InterNetwork net(&topo, {}, 13);
  for (int i = 0; i < 5; ++i) {
    Identity ident = Identity::generate(net.rng());
    ASSERT_TRUE(
        net.join_host(ident, 5, inter::JoinStrategy::kRecursiveMultihomed).ok);
  }
  const GroupId host_group(Identity::generate(net.rng()));
  const TeBinding binding = te_multihomed_join(net, host_group, 4);
  ASSERT_EQ(binding.providers.size(), 2u);
  ASSERT_EQ(binding.ids.size(), 2u);
  EXPECT_GT(binding.join_messages, 0u);

  // All TE ids are reachable.  With several suffixes live, steering is "some
  // degree of control" (section 4.2): a packet may be absorbed at the home
  // AS after following an adjacent suffix's pointer, so per-suffix entry
  // links are only asserted in the isolated check below.
  for (std::size_t k = 0; k < binding.ids.size(); ++k) {
    if (binding.ids[k] == NodeId{}) continue;
    std::vector<graph::AsIndex> trace;
    const auto rs = net.route(5, binding.ids[k], &trace);
    ASSERT_TRUE(rs.delivered) << "suffix " << k;
  }
}

TEST(TrafficControl, SingleTeSuffixSteersItsAccessLink) {
  using graph::AsRel;
  auto topo = graph::AsTopology::from_links(
      6, {{2, 0, AsRel::kProvider},
          {3, 0, AsRel::kProvider},
          {4, 2, AsRel::kProvider},
          {4, 3, AsRel::kProvider},
          {5, 2, AsRel::kProvider}});
  // One network per forced provider: with a single live suffix, incoming
  // traffic must descend the designated access link.
  for (const graph::AsIndex via : {2u, 3u}) {
    inter::InterNetwork net(&topo, {}, 51);
    for (int i = 0; i < 5; ++i) {
      Identity ident = Identity::generate(net.rng());
      ASSERT_TRUE(
          net.join_host(ident, 5, inter::JoinStrategy::kRecursiveMultihomed)
              .ok);
    }
    const GroupId host_group(Identity::generate(net.rng()));
    const NodeId id = host_group.with_suffix(7);
    ASSERT_TRUE(
        net.join_group_id(id, 4, inter::JoinStrategy::kSingleHomed, via).ok);
    std::vector<graph::AsIndex> trace;
    const auto rs = net.route(5, id, &trace);
    ASSERT_TRUE(rs.delivered) << "via " << via;
    // The hop into AS 4 must come from `via`.
    bool entered_via = false;
    for (std::size_t i = 1; i < trace.size(); ++i) {
      if (trace[i] == 4u && trace[i - 1] == via) entered_via = true;
    }
    EXPECT_TRUE(entered_via) << "entered AS 4 around provider " << via;
  }
}

}  // namespace
}  // namespace rofl::ext
