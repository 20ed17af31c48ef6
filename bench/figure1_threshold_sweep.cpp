// Reproduces Figure 1: social surplus of TPD at n = m = 500 as the
// threshold price sweeps [0, 100], both including and excluding the
// auctioneer, as fractions of the Pareto-efficient surplus.
//
// The paper plots two curves; this bench prints the series (CSV-ready) and
// an ASCII rendering.  Expected shape: both curves peak at r = 50; the
// total-surplus curve is flat near the peak while the except-auctioneer
// curve falls off roughly linearly as |r - 50| grows.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "protocols/tpd.h"
#include "sim/experiment.h"
#include "sim/table.h"
#include "sim/threshold_search.h"

int main() {
  using namespace fnda;

  constexpr std::size_t kParticipants = 500;
  constexpr int kStep = 5;

  // One pass over the instances evaluates every threshold (common random
  // numbers: all thresholds see identical books).
  std::vector<std::unique_ptr<TpdProtocol>> protocols;
  std::vector<const DoubleAuctionProtocol*> pointers;
  std::vector<int> thresholds;
  for (int r = 0; r <= 100; r += kStep) {
    thresholds.push_back(r);
    protocols.push_back(std::make_unique<TpdProtocol>(money(r)));
    pointers.push_back(protocols.back().get());
  }

  ExperimentConfig config;
  config.instances = 1000;
  config.seed = 31337;
  const ComparisonResult result = run_comparison(
      fixed_count_generator(kParticipants, kParticipants), pointers, config);

  std::cout << "== Figure 1: TPD surplus vs threshold price "
               "(n = m = 500, U[0,100], 1000 instances) ==\n";
  TextTable table({"threshold", "surplus", "ratio", "surplus ex-auct",
                   "ratio ex-auct", "auctioneer"});
  double best_total = 0.0;
  int best_r = -1;
  for (std::size_t p = 0; p < pointers.size(); ++p) {
    const ProtocolSummary& summary = result.protocols[p];
    const double total = summary.total.mean();
    const double except = summary.except_auctioneer.mean();
    const double pareto = result.pareto.mean();
    if (total > best_total) {
      best_total = total;
      best_r = thresholds[p];
    }
    table.add_row({std::to_string(thresholds[p]), format_fixed(total, 1),
                   format_fixed(100.0 * total / pareto, 1) + "%",
                   format_fixed(except, 1),
                   format_fixed(100.0 * except / pareto, 1) + "%",
                   format_fixed(summary.auctioneer.mean(), 1)});
  }
  std::cout << table << '\n';
  std::cout << "Pareto-efficient surplus: "
            << format_fixed(result.pareto.mean(), 1) << '\n';
  std::cout << "Peak total surplus at threshold r = " << best_r
            << " (paper: optimum at r = 50)\n\n";

  // ASCII rendering of the two curves (paper Figure 1).
  std::cout << "ratio of Pareto surplus (#: total, o: except auctioneer)\n";
  for (std::size_t p = 0; p < pointers.size(); ++p) {
    const double total_ratio =
        result.protocols[p].total.mean() / result.pareto.mean();
    const double except_ratio =
        result.protocols[p].except_auctioneer.mean() / result.pareto.mean();
    const int total_col = static_cast<int>(total_ratio * 60.0);
    const int except_col = static_cast<int>(except_ratio * 60.0);
    std::string line(61, ' ');
    line[static_cast<std::size_t>(std::max(0, except_col))] = 'o';
    line[static_cast<std::size_t>(std::max(0, total_col))] = '#';
    std::cout << (thresholds[p] < 10 ? "  " : thresholds[p] < 100 ? " " : "")
              << thresholds[p] << " |" << line << "|\n";
  }

  // Timing: the same coarse sweep (21 thresholds x 200 instances) through
  // two pipelines.  "run_comparison" sorts once per instance and fans out
  // clear_sorted, validating and scoring every clearing; "kernel" ranks +
  // prefix-sums once per instance and answers each threshold with two
  // binary searches.  Both agree on the curve (the sim tests check
  // exactness); only the work differs.
  {
    std::cout << "\n== Sweep timing: 21 thresholds x 200 instances, n = m = "
              << kParticipants << " ==\n";
    const InstanceGenerator gen =
        fixed_count_generator(kParticipants, kParticipants);
    ExperimentConfig sweep_config;
    sweep_config.instances = 200;
    sweep_config.seed = 31337;
    auto time_ms = [](auto&& body) {
      const auto start = std::chrono::steady_clock::now();
      body();
      const auto stop = std::chrono::steady_clock::now();
      return std::chrono::duration<double, std::milli>(stop - start).count();
    };

    const double shared_ms = time_ms([&] {
      const ComparisonResult r = run_comparison(gen, pointers, sweep_config);
      volatile double sink = r.pareto.mean();
      (void)sink;
    });
    const double kernel_ms = time_ms([&] {
      const std::vector<TpdSweepBook> books =
          prepare_tpd_sweep(gen, 200, 31337);
      double sink = 0.0;
      for (int r = 0; r <= 100; r += kStep) {
        sink += mean_tpd_objective(books, money(r),
                                   ThresholdObjective::kTotalSurplus);
      }
      volatile double keep = sink;
      (void)keep;
    });
    std::cout << "run_comparison: " << format_fixed(shared_ms, 1) << " ms\n"
              << "sweep kernel:   " << format_fixed(kernel_ms, 1) << " ms  ("
              << format_fixed(shared_ms / kernel_ms, 1) << "x)\n";
  }
  return 0;
}
