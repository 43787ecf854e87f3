// label_table.hpp -- per-router label-switched forwarding state (DESIGN.md
// section 15).
//
// ROADMAP item 2: once a route over a pointer path stabilizes, the network
// installs short per-hop labels along it so steady-state forwarding is one
// dense-array index instead of the Eytzinger best-match descent plus the
// pointer-cache binary search.  The table is deliberately dumb: a slab of
// {dest, out-pointer, next-hop label} entries indexed by the u32 label
// carried in the packet, with a free list so retired labels are reused
// deterministically.  All lifecycle policy (when to install, when to tear
// down, equivalence with greedy routing) lives in Network; the auditor
// cross-checks every entry against live ring/pointer state.
#pragma once

#include <cstdint>
#include <vector>

#include "rofl/types.hpp"

namespace rofl::intra {

/// Sentinel "no label": the terminal hop of a chain emits this downstream.
inline constexpr std::uint32_t kNoLabel = 0xFFFFFFFFu;

struct LabelEntry {
  NodeId dest;                          ///< flow destination the chain serves
  NodeIndex out = graph::kInvalidNode;  ///< next router; kInvalidNode = deliver
  std::uint32_t next_label = kNoLabel;  ///< label the next router switches on
  /// RouteStats::ring_hops the installing greedy walk had committed here; a
  /// labeled packet reports it if delivered here or lost on the way to `out`.
  std::uint32_t ring_hops = 0;
  bool in_use = false;
};

class LabelTable {
 public:
  /// Allocates a label slot and fills it.  Labels are reused LIFO off the
  /// free list, so a same-seed run allocates an identical label sequence.
  std::uint32_t install(const NodeId& dest, NodeIndex out,
                        std::uint32_t next_label, std::uint32_t ring_hops) {
    std::uint32_t label;
    if (!free_.empty()) {
      label = free_.back();
      free_.pop_back();
    } else {
      label = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    slots_[label] = LabelEntry{dest, out, next_label, ring_hops,
                               /*in_use=*/true};
    ++live_;
    return label;
  }

  /// The steady-state datapath: one bounds check and one array index.
  [[nodiscard]] const LabelEntry* lookup(std::uint32_t label) const {
    if (label >= slots_.size() || !slots_[label].in_use) return nullptr;
    return &slots_[label];
  }

  void remove(std::uint32_t label) {
    if (label >= slots_.size() || !slots_[label].in_use) return;
    slots_[label].in_use = false;
    free_.push_back(label);
    --live_;
  }

  void clear() {
    slots_.clear();
    free_.clear();
    live_ = 0;
  }

  [[nodiscard]] std::size_t live() const { return live_; }
  [[nodiscard]] std::size_t slots() const { return slots_.size(); }

  /// Calls fn(label, const LabelEntry&) for every live entry in label order
  /// (audit walks).
  template <typename F>
  void for_each(F&& fn) const {
    for (std::uint32_t l = 0; l < slots_.size(); ++l) {
      if (slots_[l].in_use) fn(l, slots_[l]);
    }
  }

 private:
  std::vector<LabelEntry> slots_;       // slab indexed by label
  std::vector<std::uint32_t> free_;     // retired labels, reused LIFO
  std::size_t live_ = 0;
};

}  // namespace rofl::intra
