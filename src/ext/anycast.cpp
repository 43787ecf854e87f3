#include "ext/anycast.hpp"

namespace rofl::ext {

intra::JoinStats anycast_join(intra::Network& net, const GroupId& g,
                              std::uint32_t suffix,
                              graph::NodeIndex gateway) {
  // Prove group-key ownership against a fresh nonce, then join the member
  // ID through the regular (G,x) hook.
  const std::uint64_t nonce = net.rng().next_u64();
  const OwnershipProof proof = g.identity().prove(nonce);
  if (!verify_ownership(g.identity().id(), g.identity().public_key(), nonce,
                        proof, g.identity().private_key())) {
    return {};
  }
  return net.join_group_id(g.with_suffix(suffix), g.identity().public_key(),
                           gateway);
}

AnycastResult anycast_route(intra::Network& net, graph::NodeIndex src,
                            const GroupId& g,
                            std::optional<std::uint32_t> preferred_suffix,
                            bool absorb_en_route) {
  // Routers treat all suffixes of G equally: the packet is an ordinary
  // data packet toward (G, r) whose stop rule counts every member of G.
  const NodeId steer =
      preferred_suffix.has_value() ? g.with_suffix(*preferred_suffix) : g.high();
  const intra::Delivery rule{absorb_en_route
                                 ? intra::Delivery::Rule::kFirstMember
                                 : intra::Delivery::Rule::kOwner,
                             g.base(), g.high()};
  AnycastResult res;
  const intra::RouteStats rs =
      net.route(src, steer, /*trace_id=*/0, rule, &res.path, &res.member);
  res.delivered = rs.delivered;
  res.physical_hops = rs.physical_hops;
  res.trace_id = rs.trace_id;
  return res;
}

}  // namespace rofl::ext
