// fnda_perfbench: runs one benchmark workload and prints its result.
//
//   fnda_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-out FILE] [--revision REV]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (see README.md).  Lines before it start with '#'.  A failed
// correctness check makes the exit code 1.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "bench.h"
#include "workloads.h"

namespace {

using perfbench::Report;
using perfbench::RunOptions;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Kept in step with BENCHMARK.json (run.py checks the two agree).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    {"work_per_s", "1/s"},      {"step_p50_ms", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    {"market.open_rounds_ms", "ms"},
    {"market.drive_ms", "ms"},
    {"market.drive_until_ms", "ms"},
    {"market.ns_per_msg", "ns"},
    {"market.msgs_per_bid", "count"},
    {"market.epoch_barriers_per_round", "count"},
    {"market.shard_skew", "ratio"},
    {"market.rss_mb_per_round", "MB"},
    {"market.attack_plan_ms", "ms"},
    {"market.attack_join_wait_ms", "ms"},
    {"market.attack_apply_ms", "ms"},
    {"core.live_book_add_ns", "ns"},
    {"core.finalize_ties_us", "us"},
    {"core.entries_shifted_per_insert", "count"},
    {"core.sorts_at_close", "count"},
    {"protocols.tpd_clear_us", "us"},
    {"protocols.pmd_clear_us", "us"},
    {"mechanism.evaluator_build_us", "us"},
    {"mechanism.search_us.tpd", "us"},
    {"mechanism.search_us.pmd", "us"},
    {"mechanism.search_p99_ms", "ms"},
    {"mechanism.evaluated_per_enumerated", "ratio"},
    {"mechanism.pruned_subtree_per_search", "count"},
    {"mechanism.fast_positions_per_search", "count"},
    {"mechanism.clears_per_search", "count"},
    {"mechanism.warm_hits", "count"},
    {"mechanism.warm_seeded", "count"},
    {"mechanism.cold_runs", "count"},
    {"mechanism.search_wall_ms", "ms"},
    {"sim.table1_s", "s"},
    {"sim.table2_s", "s"},
    {"sim.figure1_s", "s"},
    {"sim.sweep_eval_us", "us"},
    {"sim.optimize_s", "s"},
    {"sim.prepare_sweep_ms", "ms"},
    {"sim.generate_us", "us"},
    {"obs.telemetry_share", "share"},
    {"market.self_share", "share"},
    {"mechanism.self_share", "share"},
    {"sim.self_share", "share"},
    {"bench.self_share", "share"},
    {"trace.coverage", "share"},
    {"trace.overhead", "share"},
    {"bench.step_p90_ms", "ms"},
};

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

int usage() {
  std::cerr << "usage: fnda_perfbench --workload zi_exchange|attack_cosim|"
               "false_name_search|paper_repro --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--revision REV]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string revision = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--revision") {
      revision = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || options.workload.empty()) return usage();

#if !defined(__OPTIMIZE__) || defined(__NO_INLINE__)
  std::cerr << "fnda_perfbench: built without optimisation ("
            << PERFBENCH_BUILD_TYPE << "); refusing to measure\n";
  return 3;
#endif

  const unsigned nproc = std::thread::hardware_concurrency();
  std::cout << "# workload: " << options.workload << "\n"
            << "# seed: " << options.seed << "\n"
            << "# trace: " << (options.trace ? 1 : 0) << "\n"
            << "# nproc: " << nproc << "\n"
            << "# build_type: " << PERFBENCH_BUILD_TYPE << "\n"
            << "# revision: " << revision << "\n";

  const perfbench::WorkloadFn run = perfbench::find_workload(options.workload);
  if (run == nullptr) return usage();
  if (nproc < perfbench::threads_needed(options.workload)) {
    std::cerr << "fnda_perfbench: " << options.workload << " needs "
              << perfbench::threads_needed(options.workload)
              << " CPUs, this host has " << nproc << "\n";
    return 3;
  }

  perfbench::Tracer::instance().set_enabled(false);
  Report report;
  try {
    report = run(options);
  } catch (const std::exception& error) {
    // E.g. run_comparison's validation of every clearing.
    report.failures.push_back(std::string("exception: ") + error.what());
  }
  if (options.trace && !options.trace_out.empty() &&
      !perfbench::Tracer::instance().write_chrome_json(options.trace_out)) {
    report.failures.push_back("cannot write trace to " + options.trace_out);
  }

  for (const std::string& note : report.notes) std::cout << "# " << note << "\n";
  const perfbench::OpCounts& ops = report.ops;
  std::cout << "# bids: submitted " << ops.bids_submitted << ", rejected "
            << ops.bids_rejected << "\n"
            << "# messages: sent " << ops.messages_sent << ", dropped "
            << ops.messages_dropped << ", dead-lettered "
            << ops.messages_dead_lettered << "\n"
            << "# searches: run " << ops.searches_run << ", truncated "
            << ops.searches_truncated << ", shed " << ops.searches_shed << "\n"
            << "# clearings: run " << ops.clearings_run
            << ", failed validation " << ops.clearings_invalid << "\n";

  std::string metrics;
  auto emit = [&](const MetricSpec& spec, bool required) {
    const auto it = report.metrics.find(spec.name);
    if (it == report.metrics.end() && required) {
      report.failures.push_back(std::string("metric not measured: ") +
                                spec.name);
    }
    const double value = it == report.metrics.end() ? 0.0 : it->second.value;
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + spec.name + "\": {\"value\": " +
               json_number(value) + ", \"unit\": \"" + spec.unit + "\"}";
  };
  if (options.trace) {
    // A layer the workload leaves idle reads 0.
    for (const MetricSpec& spec : kPerLayer) emit(spec, false);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec, true);
  }

  for (const std::string& failure : report.failures) {
    std::cout << "# CHECK FAILED: " << failure << "\n";
    std::cerr << "check failed: " << failure << "\n";
  }
  const bool correct = report.failures.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << ops.attempted()
            << ", \"failed\": " << ops.failed() << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return correct ? 0 : 1;
}
