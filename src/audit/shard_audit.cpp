#include "audit/shard_audit.hpp"

#include <sstream>

#include "util/fnv.hpp"

namespace rofl::audit {

std::string ShardAuditReport::to_string() const {
  std::ostringstream os;
  os << "shard-audit: checks=" << checks << " violations=" << violations.size()
     << (clean() ? " CLEAN" : "") << "\n";
  for (const std::string& v : violations) os << "  HARD " << v << "\n";
  return os.str();
}

std::string ShardAuditReport::digest() const {
  std::uint64_t h = kFnvOffset;
  h = fnv1a(h, "checks=" + std::to_string(checks));
  for (const std::string& v : violations) h = fnv1a(h, ";" + v);
  std::ostringstream os;
  os << "checks=" << checks << ";hard=" << violations.size() << ";fnv="
     << hex64(h);
  return os.str();
}

ShardAuditReport audit_scale_run(const inter::ShardScaleModel& model) {
  ShardAuditReport rep;
  const sim::ShardedSimulator& eng = model.engine();
  const auto add = [&rep](std::string check, std::string detail) {
    rep.violations.push_back(std::move(check) + ": " + std::move(detail));
  };

  // 1. Sequence conservation: an entity's final sequence number counts its
  //    sends; each must have been processed exactly once somewhere.
  const std::vector<std::uint64_t>& sent = eng.sent_by_entity();
  const std::vector<std::uint64_t> processed = eng.processed_by_source();
  for (std::size_t e = 0; e < sent.size(); ++e) {
    rep.checks++;
    if (sent[e] != processed[e]) {
      add("shard.seq.conservation",
          "entity " + std::to_string(e) + " sent " + std::to_string(sent[e]) +
              " processed " + std::to_string(processed[e]));
    }
  }
  rep.checks++;
  if (eng.seed_count() != eng.seeds_processed()) {
    add("shard.seed.conservation",
        "seeded " + std::to_string(eng.seed_count()) + " processed " +
            std::to_string(eng.seeds_processed()));
  }

  // 2. Conservative-synchronization health.
  const sim::ShardedSimulator::RunStats& stats = eng.stats();
  rep.checks++;
  if (!stats.monotone) {
    add("shard.clock.monotone", "a shard executed a timestamp regression");
  }
  rep.checks++;
  if (stats.min_cross_delay_ms < eng.lookahead_ms()) {
    add("shard.lookahead.bound",
        "cross-entity delay " + std::to_string(stats.min_cross_delay_ms) +
            "ms below lookahead " + std::to_string(eng.lookahead_ms()) + "ms");
  }

  // 3. Ring consistency against home-AS ground truth.  At quiescence every
  //    register/unregister cascade has fully propagated, so slot liveness
  //    must agree with every anchor on the home chain, and ring sizes must
  //    account for exactly the live slots registered through each anchor.
  const graph::AsTopology& topo = model.topology();
  const auto n = static_cast<graph::AsIndex>(topo.as_count());
  const std::uint32_t slots = model.params().slots_per_as;
  std::vector<std::uint64_t> expected_entries(n, 0);
  for (graph::AsIndex t = 0; t < n; ++t) {
    for (std::uint32_t s = 0; s < slots; ++s) {
      if (!model.slot_live(t, s)) continue;
      const NodeId id =
          inter::ShardScaleModel::id_for(model.params().seed, t, s);
      for (const graph::AsIndex anchor : model.chain(t)) {
        expected_entries[anchor]++;
        rep.checks++;
        const auto it = model.ring(anchor).find(id);
        if (it == model.ring(anchor).end()) {
          add("shard.ring.missing",
              "AS " + std::to_string(t) + " slot " + std::to_string(s) +
                  " live but absent at anchor " + std::to_string(anchor));
        } else if (it->second != t) {
          add("shard.ring.home",
              "anchor " + std::to_string(anchor) + " maps " + id.to_string() +
                  " to AS " + std::to_string(it->second) + " not " +
                  std::to_string(t));
        }
      }
    }
  }
  for (graph::AsIndex a = 0; a < n; ++a) {
    rep.checks++;
    if (model.ring(a).size() != expected_entries[a]) {
      add("shard.ring.extraneous",
          "anchor " + std::to_string(a) + " holds " +
              std::to_string(model.ring(a).size()) + " entries, expected " +
              std::to_string(expected_entries[a]));
    }
  }

  return rep;
}

}  // namespace rofl::audit
