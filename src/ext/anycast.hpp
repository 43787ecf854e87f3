// anycast.hpp -- anycast over ROFL (section 5.2).
//
// "Anycast is an extension of ROFL's multihoming design.  Servers belonging
// to group G join with ID (G, x).  A host may then route to (G, y), where y
// is set arbitrarily.  Intermediate routers forward the packet towards G,
// treating all suffixes equally.  This results in the packet reaching the
// first server in G for which the packet encounters a route."
//
// Join-side: each server registers (G, x_k) through the normal join path
// (Network::join_group_id) after proving it holds the group key.  Data-side:
// anycast_route() is a call into Network::route toward (G, r) with a group
// delivery rule (intra::Delivery), so an anycast packet crosses links, draws
// faults, tears down stale pointers and records hops exactly like unicast;
// only the stop rule differs -- no state or message overhead beyond joining
// (the property the paper highlights).
#pragma once

#include <optional>
#include <vector>

#include "ext/group_id.hpp"
#include "rofl/network.hpp"

namespace rofl::ext {

/// Registers a server for group `g` at `gateway`.  `suffix` distinguishes
/// members; load-balancing policies pick suffixes (and group size) as in i3.
/// Membership is authenticated with the group key before joining.
intra::JoinStats anycast_join(intra::Network& net, const GroupId& g,
                              std::uint32_t suffix,
                              graph::NodeIndex gateway);

struct AnycastResult {
  bool delivered = false;
  NodeId member;                      // the member ID that absorbed the packet
  std::uint32_t physical_hops = 0;
  std::vector<graph::NodeIndex> path;  // routers traversed (incl. endpoints)
  std::uint64_t trace_id = 0;  // flight-recorder id (0 = no recorder)
};

/// Routes an anycast packet from `src` toward group `g`.  `preferred_suffix`
/// biases the greedy walk ((G, r) with caller-chosen r).
///
/// With `absorb_en_route` (the paper's default rule) delivery happens at the
/// first router hosting any member of G the packet touches -- cheap, but a
/// topologically central replica absorbs disproportionate traffic.  With it
/// off, the packet continues to the member that *owns* the chosen suffix
/// (the ring predecessor of (G, r)), which is the i3-style behavior the
/// weighted load balancer relies on.
AnycastResult anycast_route(intra::Network& net, graph::NodeIndex src,
                            const GroupId& g,
                            std::optional<std::uint32_t> preferred_suffix =
                                std::nullopt,
                            bool absorb_en_route = true);

}  // namespace rofl::ext
