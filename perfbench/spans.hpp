// spans.hpp -- in-memory span recorder for the traced run.
//
// The benchmark records a span around each call it makes into a layer: a
// name, start, end, the enclosing span (parent) and a request id shared by
// every span one join, lookup or route causes.  Spans stay in memory; at
// exit they are written in the Chrome trace-event format that
// obs::Tracer produces, which ui.perfetto.dev opens directly.
//
// A recorder is single-threaded.  Threaded callers give every thread its
// own recorder and merge them after the threads have joined.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"

namespace pb {

class Spans {
 public:
  using NameId = std::uint32_t;

  struct Span {
    NameId name = 0;
    std::uint32_t track = 0;   ///< Perfetto row (router id or 0)
    std::uint32_t parent = 0;  ///< index + 1 of the enclosing span; 0 = root
    std::uint64_t request = 0;
    double start_us = 0.0;
    double end_us = 0.0;
    [[nodiscard]] double dur_us() const { return end_us - start_us; }
  };

  /// `origin` is the shared time zero; recorders merged later must share it.
  explicit Spans(Clock::time_point origin, std::uint32_t track = 0)
      : origin_(origin), track_(track) {}

  /// Interns a span name; ids are dense and stable.
  NameId name(std::string_view n);

  /// Opens a span nested in the innermost open one; returns its handle.
  std::uint32_t begin(NameId name, std::uint64_t request = 0) {
    Span s;
    s.name = name;
    s.track = track_;
    s.parent = open_.empty() ? 0 : open_.back();
    s.request = request;
    s.start_us = now_us();
    spans_.push_back(s);
    const auto handle = static_cast<std::uint32_t>(spans_.size());
    open_.push_back(handle);
    return handle;
  }

  /// Closes the innermost open span, which must be `handle`; returns its
  /// duration in µs.
  double end(std::uint32_t handle) {
    Span& s = spans_[handle - 1];
    s.end_us = now_us();
    open_.pop_back();
    return s.dur_us();
  }

  /// True when `handle` is the most recent span, i.e. nothing was recorded
  /// inside or after it.
  [[nodiscard]] bool is_last(std::uint32_t handle) const {
    return handle == spans_.size();
  }

  /// Discards the most recent (closed) span.  The traced event loops drop
  /// their idle polls and ticks this way and count them in aggregate.
  void drop_last() { spans_.pop_back(); }

  /// Renames a span after the fact (e.g. once the call revealed whether a
  /// route took the label fast path).
  void rename(std::uint32_t handle, NameId name) {
    spans_[handle - 1].name = name;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Appends `other`'s spans (re-interning names, re-basing parents).
  void merge_from(const Spans& other);

  /// Durations (µs) of every span named `n`.
  [[nodiscard]] std::vector<double> durations(std::string_view n) const;
  /// Self times (µs): duration minus the time covered by direct children.
  [[nodiscard]] std::vector<double> self_times(std::string_view n) const;

  /// Writes at most `cap` spans (earliest first) as a Perfetto-loadable
  /// trace; returns the number written, or -1 if the file failed.
  long write_perfetto(const std::string& path, std::size_t cap) const;

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  [[nodiscard]] long find(std::string_view n) const;

  Clock::time_point origin_;
  std::uint32_t track_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// Writes the traced run's spans to <out_dir>/trace-<workload>.json (the
/// latest traced run of a workload replaces the previous file) and notes
/// where; a write failure is a failed check.
void write_trace(Outcome& out, const Options& opt, const Spans& spans);

/// RAII span: opens on construction, closes on scope exit.
class Scope {
 public:
  Scope(Spans* s, Spans::NameId name, std::uint64_t request = 0)
      : s_(s), h_(s == nullptr ? 0 : s->begin(name, request)) {}
  ~Scope() {
    if (s_ != nullptr) s_->end(h_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::uint32_t handle() const { return h_; }

 private:
  Spans* s_;
  std::uint32_t h_;
};

}  // namespace pb
