#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bench.h"

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double percentile_checked(const std::vector<double>& samples, double p,
                          const std::string& what, Report& report) {
  const double beyond = static_cast<double>(samples.size()) * (1.0 - p / 100.0);
  report.check(beyond >= 10.0,
               what + ": only " + std::to_string(samples.size()) +
                   " samples, fewer than 10 beyond p" +
                   std::to_string(static_cast<int>(p)));
  return percentile(samples, p);
}

double median(std::vector<double> samples) { return percentile(samples, 50); }

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void report_end_to_end(const std::vector<double>& setup_s, double work,
                       double timed_s, const std::vector<double>& step_ms,
                       Report& report) {
  report.set("setup_s", median(setup_s), "s");
  report.set("work_per_s", work / timed_s, "1/s");
  report.set("step_p50_ms", percentile_checked(step_ms, 50, "step", report),
             "ms");
  report.set("peak_rss_mb", peak_rss_mb(), "MB");
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

int Tracer::begin(const char* name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(SpanRecord{name, now_ns(), 0,
                              stack_.empty() ? -1 : stack_.back()});
  stack_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  stack_.pop_back();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    const std::string layer = span.name.substr(0, span.name.find('.'));
    char line[512];
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}%s\n",
                  span.name.c_str(), layer.c_str(),
                  static_cast<double>(span.start_ns - origin) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3, i,
                  span.parent, i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

std::vector<double> span_ms(const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& span : Tracer::instance().spans()) {
    if (span.name == name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
    }
  }
  return out;
}

void report_self_time(const std::string& root, Report& report) {
  const std::vector<SpanRecord>& spans = Tracer::instance().spans();
  // Child-covered time per span (children nest strictly on one thread).
  std::vector<std::uint64_t> child_ns(spans.size(), 0);
  std::vector<int> root_of(spans.size(), -1);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
      root_of[i] = root_of[static_cast<std::size_t>(span.parent)];
    }
    if (span.name == root) root_of[i] = static_cast<int>(i);
  }
  std::map<std::string, double> self_ns;
  double root_ns = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (root_of[i] < 0) continue;
    const SpanRecord& span = spans[i];
    const std::uint64_t total = span.end_ns - span.start_ns;
    if (static_cast<int>(i) == root_of[i]) root_ns += static_cast<double>(total);
    const std::string layer = span.name.substr(0, span.name.find('.'));
    self_ns[layer] += static_cast<double>(total - std::min(total, child_ns[i]));
  }
  double module_ns = 0.0;
  for (const char* layer : {"market", "mechanism", "sim"}) {
    const double share = root_ns > 0 ? self_ns[layer] / root_ns : 0.0;
    report.set(std::string(layer) + ".self_share", share, "share");
    module_ns += self_ns[layer];
  }
  report.set("bench.self_share", root_ns > 0 ? self_ns["bench"] / root_ns : 0.0,
             "share");
  const double coverage = root_ns > 0 ? module_ns / root_ns : 0.0;
  report.set("trace.coverage", coverage, "share");
  report.check(coverage >= 0.95, "module-layer spans cover only " +
                                     std::to_string(coverage) +
                                     " of the traced steps");
}

}  // namespace perfbench
