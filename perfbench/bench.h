// Shared plumbing of the repository benchmark: run options, the
// measurement record every workload fills, sample statistics, and the
// outside-in span tracer.
//
// Every workload is a function `Report run_<name>(const RunOptions&)`.
// It repeats whole sessions (set-up, then timed steps) until the run's
// time budget is spent, checks the program's outputs against figures it
// computes itself, and returns metrics by name.  main.cpp prints them.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its Chrome trace JSON (empty: nowhere).
  std::string trace_out;
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Operations a run attempted and the ones that failed, by kind.  The
/// printed `attempted` / `failed` totals are the sums of these.
struct OpCounts {
  std::uint64_t bids_submitted = 0;
  std::uint64_t bids_rejected = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_dead_lettered = 0;
  std::uint64_t searches_run = 0;
  std::uint64_t searches_truncated = 0;
  std::uint64_t searches_shed = 0;
  std::uint64_t clearings_run = 0;
  std::uint64_t clearings_invalid = 0;

  std::uint64_t attempted() const {
    return bids_submitted + messages_sent + searches_run + clearings_run;
  }
  std::uint64_t failed() const {
    return bids_rejected + messages_dropped + messages_dead_lettered +
           searches_truncated + searches_shed + clearings_invalid;
  }
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main.
struct Report {
  OpCounts ops;
  /// Failed correctness checks, one line each (empty: correct).
  std::vector<std::string> failures;
  std::map<std::string, Metric> metrics;
  /// Free-form "# key: value" lines printed before the result.
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void note(const std::string& line) { notes.push_back(line); }
};

/// Percentile by linear interpolation between closest ranks (the numpy
/// default).  The checked form records a failure in `report` unless at
/// least 10 samples lie beyond the requested rank.
double percentile(std::vector<double> samples, double p);
double percentile_checked(const std::vector<double>& samples, double p,
                          const std::string& what, Report& report);
double median(std::vector<double> samples);

/// Appends `from` to `to`.
inline void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

/// Current and peak resident set of this process, in MB.
double current_rss_mb();
double peak_rss_mb();

/// Sets the end-to-end metrics: the median set-up, `work` units per
/// second of `timed_s`, the p50 of the steps, and this process's peak
/// RSS.
void report_end_to_end(const std::vector<double>& setup_s, double work,
                       double timed_s, const std::vector<double>& step_ms,
                       Report& report);

// --- outside-in tracer -----------------------------------------------------
//
// Spans are recorded only on the thread that drives the workload (every
// timed call into the program is made from it) and only while tracing is
// on.  A span's layer is its name up to the first '.', e.g.
// "market.drive_to_quiescence" belongs to "market"; "bench.*" spans are
// the benchmark's own loop.

struct SpanRecord {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;
};

class Tracer {
 public:
  static Tracer& instance();
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  int begin(const char* name);
  void end(int id);
  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Writes the spans as Chrome trace-event JSON; false on I/O error.
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// RAII span; free when tracing is off.
class Span {
 public:
  explicit Span(const char* name)
      : id_(Tracer::instance().enabled() ? Tracer::instance().begin(name)
                                         : -1) {}
  ~Span() { end(); }
  /// Closes the span before the end of its scope.
  void end() {
    if (id_ >= 0) Tracer::instance().end(id_);
    id_ = -1;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_;
};

/// Durations (ms) of every recorded span named `name`.
std::vector<double> span_ms(const std::string& name);

/// Per-layer self time (span time minus the part its child spans cover)
/// summed over the spans under every span named `root`, plus the
/// coverage: the share of the roots' time covered by module-layer spans
/// (every layer except "bench").  Adds `<layer>.self_share` for each
/// module layer, `bench.self_share` and `trace.coverage` to `report`.
void report_self_time(const std::string& root, Report& report);

}  // namespace perfbench
