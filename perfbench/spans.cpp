#include "spans.hpp"

#include <algorithm>
#include <numeric>

#include "obs/trace_export.hpp"

namespace pb {

Spans::NameId Spans::name(std::string_view n) {
  const long at = find(n);
  if (at >= 0) return static_cast<NameId>(at);
  names_.emplace_back(n);
  return static_cast<NameId>(names_.size() - 1);
}

long Spans::find(std::string_view n) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == n) return static_cast<long>(i);
  }
  return -1;
}

void Spans::merge_from(const Spans& other) {
  const auto base = static_cast<std::uint32_t>(spans_.size());
  std::vector<NameId> remap(other.names_.size());
  for (std::size_t i = 0; i < other.names_.size(); ++i) {
    remap[i] = name(other.names_[i]);
  }
  for (Span s : other.spans_) {
    s.name = remap[s.name];
    if (s.parent != 0) s.parent += base;
    spans_.push_back(s);
  }
}

std::vector<double> Spans::durations(std::string_view n) const {
  std::vector<double> out;
  const long id = find(n);
  if (id < 0) return out;
  for (const Span& s : spans_) {
    if (s.name == static_cast<NameId>(id)) out.push_back(s.dur_us());
  }
  return out;
}

std::vector<double> Spans::self_times(std::string_view n) const {
  std::vector<double> out;
  const long id = find(n);
  if (id < 0) return out;
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_us[s.parent - 1] += s.dur_us();
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == static_cast<NameId>(id)) {
      out.push_back(spans_[i].dur_us() - child_us[i]);
    }
  }
  return out;
}

long Spans::write_perfetto(const std::string& path, std::size_t cap) const {
  // The exporter clamps timestamps to be non-decreasing, so feed it spans in
  // start order; the earliest `cap` spans are kept.
  std::vector<std::uint32_t> order(spans_.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [this](std::uint32_t a, std::uint32_t b) {
                     return spans_[a].start_us < spans_[b].start_us;
                   });
  if (order.size() > cap) order.resize(cap);
  rofl::obs::Tracer tracer;
  std::vector<std::uint32_t> tracks;
  for (const std::uint32_t i : order) {
    const Span& s = spans_[i];
    if (std::find(tracks.begin(), tracks.end(), s.track) == tracks.end()) {
      tracks.push_back(s.track);
      tracer.name_track(s.track, "track " + std::to_string(s.track));
    }
    const std::string& n = names_[s.name];
    tracer.complete(n, n.substr(0, n.find('.')), s.start_us, s.dur_us(),
                    s.track,
                    {{"span", std::uint64_t{i + 1}},
                     {"parent", std::uint64_t{s.parent}},
                     {"request", s.request}});
  }
  return tracer.write(path) ? static_cast<long>(order.size()) : -1;
}

void write_trace(Outcome& out, const Options& opt, const Spans& spans) {
  // Enough for every span of the storm workloads; the UDP lookup rep keeps
  // its first 200k.
  constexpr std::size_t kMaxSpans = 200'000;
  const std::string path = opt.out_dir + "/trace-" + opt.workload + ".json";
  const long written = spans.write_perfetto(path, kMaxSpans);
  out.check(written >= 0, "could not write " + path);
  out.note("perfetto trace (seed " + std::to_string(opt.seed) + "): " + path +
           " (" + std::to_string(written) + " of " +
           std::to_string(spans.spans().size()) + " spans)");
}

}  // namespace pb
