#include "ext/multicast.hpp"

#include <deque>

namespace rofl::ext {

void MulticastGroup::paint(graph::NodeIndex a, graph::NodeIndex b) {
  adj_[a].insert(b);
  adj_[b].insert(a);
}

MulticastGroup::JoinStats MulticastGroup::join(intra::Network& net,
                                               graph::NodeIndex gateway,
                                               std::uint32_t suffix) {
  JoinStats stats;
  if (gateway >= net.router_count() ||
      !net.topology().graph.node_up(gateway)) {
    return stats;
  }
  if (members_.contains(gateway)) {
    stats.ok = true;  // another local host; tree unchanged
    return stats;
  }
  if (members_.empty()) {
    // First member: seed the tree and register the group in the ring so the
    // anycast joins of later members can find a nearby branch.
    const intra::JoinStats js = anycast_join(net, group_, suffix, gateway);
    if (!js.ok) return stats;
    seed_suffix_ = suffix;
    stats.messages = js.messages;
    members_.insert(gateway);
    adj_[gateway];
    stats.ok = true;
    return stats;
  }
  // Anycast toward a nearby member (or, in single-source mode, route
  // straight toward the source -- section 5.2's "more efficient tree"),
  // painting back-pointers along the path; stop early when the walk
  // intersects an existing branch.
  AnycastResult walk;
  if (source_.has_value()) {
    walk.path = net.map().path(gateway, *source_);
    walk.delivered = !walk.path.empty();
    if (walk.delivered) {
      walk.physical_hops = static_cast<std::uint32_t>(walk.path.size() - 1);
      net.simulator().counters().add(sim::MsgCategory::kControl,
                                     walk.physical_hops);
    }
  } else {
    walk = anycast_route(net, gateway, group_);
  }
  // Degenerate: walk could not even leave the gateway.
  if (!walk.delivered && walk.path.size() < 2) return stats;
  graph::NodeIndex prev = walk.path.front();
  bool intersected = false;
  std::uint64_t painted = 0;
  for (std::size_t i = 1; i < walk.path.size(); ++i) {
    const graph::NodeIndex cur = walk.path[i];
    if (adj_.contains(cur) || members_.contains(cur)) {
      paint(prev, cur);
      ++painted;
      intersected = true;
      break;
    }
    paint(prev, cur);
    ++painted;
    prev = cur;
  }
  if (!intersected && !walk.delivered) return stats;
  members_.insert(gateway);
  adj_[gateway];
  stats.ok = true;
  stats.intersected_tree = intersected;
  // The walk above already charged every link it crossed (data for the
  // anycast route, control for the source-mode path), so painting a
  // crossed link adds no second message.
  stats.messages = painted;
  return stats;
}

void MulticastGroup::leave(intra::Network& net, graph::NodeIndex gateway) {
  (void)net;
  members_.erase(gateway);
  // Prune dangling non-member leaves repeatedly.
  bool pruned = true;
  while (pruned) {
    pruned = false;
    for (auto it = adj_.begin(); it != adj_.end();) {
      if (!members_.contains(it->first) && it->second.size() <= 1) {
        if (it->second.size() == 1) {
          adj_[*it->second.begin()].erase(it->first);
        }
        it = adj_.erase(it);
        pruned = true;
      } else {
        ++it;
      }
    }
  }
}

MulticastGroup::SendStats MulticastGroup::send(
    intra::Network& net, graph::NodeIndex from_gateway) const {
  SendStats stats;
  if (!members_.contains(from_gateway)) return stats;
  if (members_.contains(from_gateway)) stats.members_reached = 1;
  // Flood along the tree: forward out every painted link except the arrival
  // link.
  std::deque<std::pair<graph::NodeIndex, graph::NodeIndex>> frontier;
  frontier.emplace_back(from_gateway, graph::kInvalidNode);
  std::set<graph::NodeIndex> seen{from_gateway};
  while (!frontier.empty()) {
    const auto [cur, from] = frontier.front();
    frontier.pop_front();
    const auto it = adj_.find(cur);
    if (it == adj_.end()) continue;
    for (const graph::NodeIndex next : it->second) {
      if (next == from || seen.contains(next)) continue;
      seen.insert(next);
      ++stats.copies;
      net.simulator().counters().add(sim::MsgCategory::kData, 1);
      if (members_.contains(next)) ++stats.members_reached;
      frontier.emplace_back(next, cur);
    }
  }
  return stats;
}

bool MulticastGroup::verify_tree() const {
  if (adj_.empty()) return members_.empty();
  // All members present as tree routers.
  for (const graph::NodeIndex m : members_) {
    if (!adj_.contains(m)) return false;
  }
  // Connected and acyclic: edges == nodes - 1 and one BFS covers all.
  std::size_t edge_halves = 0;
  for (const auto& [r, nbrs] : adj_) edge_halves += nbrs.size();
  const std::size_t edges = edge_halves / 2;
  if (edges + 1 != adj_.size()) return false;
  std::set<graph::NodeIndex> seen;
  std::deque<graph::NodeIndex> frontier{adj_.begin()->first};
  seen.insert(adj_.begin()->first);
  while (!frontier.empty()) {
    const graph::NodeIndex cur = frontier.front();
    frontier.pop_front();
    for (const graph::NodeIndex next : adj_.at(cur)) {
      if (seen.insert(next).second) frontier.push_back(next);
    }
  }
  return seen.size() == adj_.size();
}

}  // namespace rofl::ext
