// link_state.hpp -- the OSPF-like substrate ROFL runs over.
//
// Section 2.1 ("Source-Route Failure Detection"): ROFL assumes an underlying
// OSPF-like protocol that provides a network map (not routes to hosts),
// identifies link failures, finds paths to other hosting routers, and
// notifies the routing layer of link/node events.  This module implements
// that substrate over a graph::Graph:
//
//   * every router shares a consistent link-state database (the graph);
//   * shortest paths / next hops are computed on demand, one Dijkstra per
//     queried source, and cached until the topology version changes;
//   * reachability is answered from one connected-component labelling per
//     topology version, so connectivity questions never run a Dijkstra;
//   * fail/restore operations flood LSAs (accounted as kLinkState messages,
//     one per live directed edge, as OSPF flooding would) and synchronously
//     notify subscribed listeners -- the hook the ROFL failure machinery
//     (section 3.2) hangs off;
//   * small stable payloads (the zero-ID advertisements of the partition
//     repair protocol, and border-router existence in the interdomain
//     design) can be piggybacked on the flooding channel.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "sim/simulator.hpp"

namespace rofl::linkstate {

using graph::NodeIndex;

struct TopologyEvent {
  enum class Kind : std::uint8_t { kLinkDown, kLinkUp, kNodeDown, kNodeUp };
  Kind kind;
  NodeIndex a = graph::kInvalidNode;  // node, or first link endpoint
  NodeIndex b = graph::kInvalidNode;  // second link endpoint (links only)
};

class LinkStateMap {
 public:
  /// Both pointers must outlive the map.  `sim` may be null when the caller
  /// does not need message accounting (unit tests).
  LinkStateMap(graph::Graph* g, sim::Simulator* sim);

  [[nodiscard]] const graph::Graph& topology() const { return *graph_; }
  [[nodiscard]] std::size_t router_count() const { return graph_->node_count(); }

  // -- map queries (always reflect the current topology version) -----------
  /// Next hop from `u` toward `v` along the IGP shortest path, or nullopt if
  /// unreachable.
  [[nodiscard]] std::optional<NodeIndex> next_hop(NodeIndex u, NodeIndex v) const;
  /// Full router path u..v (inclusive); empty if unreachable.
  [[nodiscard]] std::vector<NodeIndex> path(NodeIndex u, NodeIndex v) const;
  /// True if both routers are up and joined by live links; the same answer
  /// as hop_distance(u, v).has_value(), read from the component labels.
  [[nodiscard]] bool reachable(NodeIndex u, NodeIndex v) const;
  /// Hop count of the IGP path, or nullopt if unreachable.
  [[nodiscard]] std::optional<std::uint32_t> hop_distance(NodeIndex u,
                                                          NodeIndex v) const;
  /// One-way propagation latency of the IGP path in milliseconds.
  [[nodiscard]] std::optional<double> latency_ms(NodeIndex u, NodeIndex v) const;

  /// True if a router-level source route is currently fully up.
  [[nodiscard]] bool route_valid(const std::vector<NodeIndex>& route) const;

  // -- failure / restore (flood LSAs + notify the routing layer) -----------
  void fail_link(NodeIndex u, NodeIndex v);
  void restore_link(NodeIndex u, NodeIndex v);
  void fail_node(NodeIndex u);
  void restore_node(NodeIndex u);

  using Listener = std::function<void(const TopologyEvent&)>;
  void subscribe(Listener listener);

  /// Counts one LSA flood over the current topology (also used by protocols
  /// that piggyback payloads -- zero-ID advertisements, border-router
  /// announcements -- on the link-state channel, section 3.2 / 4.1).  Each
  /// live directed edge carries `frame_bytes` on the byte counters; 0 means
  /// "a bare encoded LSA frame", measured from the wire codec once.
  void account_flood(sim::MsgCategory category = sim::MsgCategory::kLinkState,
                     std::size_t frame_bytes = 0);

  /// Monotonically increases on every topology change; cached SPF state
  /// anywhere in the system can use it for invalidation.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  /// Connected-component label per router under the current topology
  /// version (graph::Graph::components(); kInvalidNode marks a down
  /// router).  Computed at most once per version.
  [[nodiscard]] const std::vector<NodeIndex>& components() const;

 private:
  [[nodiscard]] const graph::ShortestPaths& spf(NodeIndex src) const;
  /// Drops the SPF slots and component labels if the topology version moved.
  void refresh_cache_epoch() const;
  void bump_version_and_notify(const TopologyEvent& ev);

  graph::Graph* graph_;
  sim::Simulator* sim_;
  std::uint64_t version_ = 1;
  std::vector<Listener> listeners_;

  // Observability ids in the simulator's registry (unset when sim_ == null):
  // SPF work, flood fan-out, and topology churn.
  obs::MetricId spf_runs_id_ = 0;
  obs::MetricId flood_fanout_id_ = 0;
  obs::MetricId floods_id_ = 0;
  obs::MetricId topo_events_id_ = 0;

  mutable std::vector<std::optional<graph::ShortestPaths>> spf_cache_;
  mutable std::optional<std::vector<NodeIndex>> components_;
  mutable std::uint64_t spf_cache_version_ = 0;
};

}  // namespace rofl::linkstate
