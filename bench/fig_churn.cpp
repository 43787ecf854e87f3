// fig_churn -- invariant-audited churn stress sweep.
//
// The paper argues ROFL stays consistent under continuous churn (sections
// 3.2, 6.2) but never defines "consistent" operationally.  This bench does:
// a seeded churn schedule (joins, ephemeral joins, graceful leaves, crashes,
// data traffic) runs with the cross-layer invariant Auditor sampling the
// whole stack every 25 simulated ms, under message-loss levels from 0 to 5%.
// Reported per cell: executed op counts, mid-churn delivery, audits run, and
// the hard/soft violation split -- hard must be zero everywhere, soft counts
// the protocol's tolerated staleness (lazily repaired pointers) actually
// observed mid-run.
//
// Output: a console table plus BENCH_churn.json (override the path with
// ROFL_CHURN_JSON; empty string suppresses emission) with one entry per
// (events, loss) cell, each carrying the deterministic audit digest.  The
// bench re-runs the reference cell and fails unless digest and metrics
// snapshot reproduce byte-for-byte -- the same gate scripts/check.sh applies
// to the roflsim audit command.
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <vector>

#include "audit/churn.hpp"
#include "bench_common.hpp"
#include "util/table.hpp"

namespace rofl {
namespace {

struct ChurnCell {
  std::size_t events = 0;
  double loss = 0.0;
  double wall_seconds = 0.0;  // host wall time of this cell's run
  audit::ChurnRunResult res;
};

ChurnCell run_cell(std::size_t events, double loss) {
  const auto t0 = std::chrono::steady_clock::now();
  ChurnCell cell;
  cell.events = events;
  cell.loss = loss;

  audit::ChurnConfig cc;
  cc.events = events;
  audit::ChurnRunParams params;
  params.router_count = bench::full_scale() ? 60 : 36;
  params.pop_count = bench::full_scale() ? 8 : 5;
  params.initial_hosts = bench::full_scale() ? 64 : 32;
  params.seed = bench::kSeed;
  // Windowed telemetry: BENCH_churn.json embeds the reference cell's
  // per-window join/repair/teardown series (the convergence-curve view).
  params.timeline_window_ms = 25.0;
  if (loss > 0.0) {
    params.use_faults = true;
    params.faults.defaults.loss = loss;
    params.faults.defaults.duplicate = loss / 2.0;
  }
  const auto schedule = audit::make_churn_schedule(cc, bench::kSeed);
  cell.res = audit::run_churn(params, schedule);
  cell.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return cell;
}

void write_json(const std::vector<ChurnCell>& cells,
                const audit::ChurnRunResult& reference) {
  std::string path = "BENCH_churn.json";
  if (const char* env = std::getenv("ROFL_CHURN_JSON")) path = env;
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "fig_churn: cannot open " << path << "\n";
    return;
  }
  out << "{\n  \"schema\": \"rofl-bench-churn-v1\",\n  \"sweep\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    const auto& r = c.res;
    out << "    {\"events\": " << c.events << ", \"loss\": " << c.loss
        << ", \"joins\": " << r.joins
        << ", \"joins_failed\": " << r.joins_failed
        << ", \"leaves\": " << r.leaves << ", \"crashes\": " << r.crashes
        << ", \"routes\": " << r.routes << ", \"delivered\": " << r.delivered
        << ", \"audits\": " << r.audits << ", \"hard\": " << r.hard
        << ", \"soft\": " << r.soft
        << ", \"converged\": " << (r.converged ? "true" : "false")
        << ", \"events_dispatched\": " << r.events_dispatched
        << ", \"events_per_sec\": "
        << (c.wall_seconds > 0.0
                ? static_cast<double>(r.events_dispatched) / c.wall_seconds
                : 0.0)
        << ", \"digest\": \"" << r.digest << "\"}"
        << (i + 1 < cells.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"run\": " << bench::run_info_json([&] {
    double total = 0.0;
    for (const auto& c : cells) total += c.wall_seconds;
    return total;
  }());
  // Per-window delta series from the reference cell: convergence traffic
  // over sim time (deterministic; part of the reproduction gate below).
  out << ",\n  \"series\": {\n    \"window_ms\": "
      << reference.timeline_window_ms;
  for (const auto& [name, values] : reference.timeline_series) {
    out << ",\n    \"" << name << "\": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      out << (i == 0 ? "" : ", ") << values[i];
    }
    out << "]";
  }
  out << "\n  }";
  out << ",\n  \"metrics\": " << reference.metrics_json << "\n}\n";
  std::cout << "JSON written to " << path << "\n";
}

}  // namespace
}  // namespace rofl

int main() {
  using namespace rofl;
  bench::print_scale_note(std::cout);
  print_banner(std::cout,
               "Invariant-audited churn: hard/soft violations vs load & loss");

  const std::vector<std::size_t> event_counts =
      bench::full_scale() ? std::vector<std::size_t>{100, 300}
                          : std::vector<std::size_t>{60, 150};
  const std::vector<double> losses = {0.0, 0.02, 0.05};

  std::vector<ChurnCell> cells;
  bool all_clean = true;
  Table t({"events", "loss", "joins", "leaves", "crashes", "delivery",
           "audits", "hard", "soft", "converged"});
  for (const std::size_t events : event_counts) {
    for (const double loss : losses) {
      cells.push_back(run_cell(events, loss));
      const auto& r = cells.back().res;
      all_clean = all_clean && r.converged && r.hard == 0;
      t.add_row({static_cast<std::int64_t>(events), loss,
                 static_cast<std::int64_t>(r.joins),
                 static_cast<std::int64_t>(r.leaves),
                 static_cast<std::int64_t>(r.crashes),
                 std::to_string(r.delivered) + "/" + std::to_string(r.routes),
                 static_cast<std::int64_t>(r.audits),
                 static_cast<std::int64_t>(r.hard),
                 static_cast<std::int64_t>(r.soft),
                 std::string(r.converged ? "yes" : "NO")});
    }
  }
  t.print(std::cout);

  std::cout
      << "\nEvery audit interval checks ring agreement, directory/vnode "
         "residency, cache route validity, ephemeral anchoring, and "
         "interdomain registrations.  Hard violations (state no protocol "
         "rule permits) must be zero at every sample; soft counts the "
         "tolerated staleness -- cached pointers to departed IDs -- that "
         "greedy forwarding tears down lazily.  Loss raises soft counts and "
         "failed joins, never hard ones.\n";

  // Determinism gate: the reference cell must reproduce bit-for-bit --
  // identical audit digest (violation-by-violation) and metrics snapshot.
  const ChurnCell again = run_cell(event_counts.front(), 0.02);
  const auto& ref = cells[1].res;
  const bool identical = again.res.digest == ref.digest &&
                         again.res.metrics_json == ref.metrics_json &&
                         again.res.timeline_jsonl == ref.timeline_jsonl &&
                         !ref.timeline_jsonl.empty();
  std::cout << "same-seed reproduction at loss=0.02: "
            << (identical ? "bit-identical digest + metrics" : "MISMATCH")
            << "\n";

  write_json(cells, cells[1].res);
  return (identical && all_clean) ? 0 : 1;
}
