// Robustness ablation: Section 4's attacks on PMD, the same attacks under
// TPD (Examples 1-4), the Section 8 lottery-stuffing attack on the naive
// randomized-threshold protocol, and an exhaustive-deviation sweep over
// random instances measuring how often each protocol is manipulable.
//
// A population-scale search axis measures the parallel pruned engine
// against the serial reference on the SAME candidate space (fixed via
// grid_override) across all seven protocols: per-protocol speedup rows on
// a small account subset (the serial baseline is too slow for hundreds),
// engine-only throughput rows over --speedup-manipulators accounts, and
// an aggregate total-time ratio that --assert-search-speedup X turns into
// a hard gate (exit 1 below X).  Every speedup row also cross-checks the
// engine against the serial oracle bit-for-bit — a wrong best response
// fails the bench before any timing is reported.
//
// The static instances here search a frozen book once.  The live axis —
// attackers re-planning against a running MultiServerExchange every
// round, with overlapped warm-start search — is bench/robustness_live
// (see DESIGN.md §2j).
//
// Usage: robustness_attacks [--population N] [--speedup-accounts K]
//                           [--speedup-manipulators M] [--grid G]
//                           [--json PATH] [--assert-search-speedup X]
//                           [--search-axis 0|1]
#include <chrono>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cli/args.h"
#include "common/rng.h"
#include "mechanism/manipulation.h"
#include "mechanism/properties.h"
#include "protocols/efficient.h"
#include "protocols/kda.h"
#include "protocols/pmd.h"
#include "protocols/random_threshold.h"
#include "protocols/tpd.h"
#include "protocols/tpd_rebate.h"
#include "protocols/vcg.h"
#include "sim/table.h"

namespace {

using namespace fnda;

SingleUnitInstance example1() {
  SingleUnitInstance instance;
  instance.buyer_values = {money(9), money(8), money(7), money(4)};
  instance.seller_values = {money(2), money(3), money(4), money(5)};
  return instance;
}

SingleUnitInstance example2() {
  SingleUnitInstance instance;
  instance.buyer_values = {money(9), money(8), money(7), money(4)};
  instance.seller_values = {money(2), money(3), money(4), money(12)};
  return instance;
}

void paper_examples() {
  std::cout << "== Paper examples: best deviation of the Section 4 "
               "manipulator ==\n";
  TextTable table({"scenario", "protocol", "truthful u", "best deviant u",
                   "best strategy", "paper says"});

  struct Row {
    const char* scenario;
    const DoubleAuctionProtocol& protocol;
    SingleUnitInstance instance;
    ManipulatorSpec manipulator;
    const char* expectation;
  };
  static const PmdProtocol pmd;
  static const TpdProtocol tpd45(money(4.5));
  static const TpdProtocol tpd75(money(7.5));
  const Row rows[] = {
      {"Example 1 (seller v=4)", pmd, example1(), {Side::kSeller, 2},
       "0.5 -> 0.9 via fake buyer@4.8"},
      {"Example 2 (seller v=4)", pmd, example2(), {Side::kSeller, 2},
       "0 -> 1 via fake seller@6"},
      {"Example 3 (same, r=4.5)", tpd45, example1(), {Side::kSeller, 2},
       "attack useless"},
      {"Example 4 (same, r=7.5)", tpd75, example2(), {Side::kSeller, 2},
       "attack useless"},
  };
  for (const Row& row : rows) {
    const DeviationEvaluator evaluator(row.protocol, row.instance,
                                       row.manipulator);
    const SearchResult result = find_best_deviation(evaluator, {});
    table.add_row({row.scenario, row.protocol.name(),
                   format_fixed(result.truthful_utility, 3),
                   format_fixed(result.best_utility, 3),
                   result.profitable() ? result.best_strategy.to_string()
                                       : "(truth is optimal)",
                   row.expectation});
  }
  std::cout << table << '\n';
}

void random_sweep() {
  std::cout << "== Manipulability on random instances "
               "(values U[0,100], <=6 per side, exhaustive deviations "
               "incl. one false name) ==\n";
  TextTable table({"protocol", "searches", "violations", "violation rate",
                   "expected"});

  static const PmdProtocol pmd;
  static const TpdProtocol tpd(money(50));
  static const RandomThresholdProtocol lottery(money(50));

  struct Row {
    const DoubleAuctionProtocol& protocol;
    std::size_t replicates;
    const char* expected;
  };
  // The randomized protocol needs outcome averaging; 64 common-random-
  // number replicates make the win-probability gain visible.
  const Row rows[] = {
      {tpd, 1, "0 (Theorem 1)"},
      {pmd, 1, "> 0 (Section 4)"},
      {lottery, 64, "> 0 (Section 8 lottery stuffing)"},
  };
  for (const Row& row : rows) {
    IcCheckConfig config;
    config.instances = 40;
    config.manipulators_per_instance = 2;
    config.instance_spec.max_buyers = 6;
    config.instance_spec.max_sellers = 6;
    config.search.max_declarations = 2;
    config.eval.replicates = row.replicates;
    config.seed = 0x0b5e55ed;
    config.max_violations = 1000;
    config.epsilon = 1e-3;  // ignore tie-breaking noise for the lottery
    const IcCheckReport report =
        check_incentive_compatibility(row.protocol, config);
    table.add_row(
        {row.protocol.name(), std::to_string(report.searches_run),
         std::to_string(report.violations.size()),
         format_fixed(100.0 * static_cast<double>(report.violations.size()) /
                          static_cast<double>(report.searches_run),
                      1) +
             "%",
         row.expected});
  }
  std::cout << table << '\n';
}

/// Parameters of the population-scale search axis.
struct SearchAxisConfig {
  std::size_t population = 250;          // accounts per side
  std::size_t speedup_accounts = 2;      // serial-vs-engine subset
  std::size_t speedup_manipulators = 200;  // engine throughput accounts
  std::size_t grid = 12;                 // fixed candidate values
  std::uint64_t seed = 0x0a77ac4;
  double assert_search_speedup = -1.0;   // < 0 disables the gate
};

/// Random population instance: `population` values per side, U[0,100].
SingleUnitInstance population_instance(std::size_t population,
                                       std::uint64_t seed) {
  SingleUnitInstance instance;
  Rng rng(seed);
  for (std::size_t i = 0; i < population; ++i) {
    instance.buyer_values.push_back(
        Money::from_micros(static_cast<std::int64_t>(rng.below(100'000'001))));
    instance.seller_values.push_back(
        Money::from_micros(static_cast<std::int64_t>(rng.below(100'000'001))));
  }
  return instance;
}

/// Evenly spaced candidate grid over [0, 100] — the fixed declaration
/// space shared by the serial baseline and the engine, so the speedup is
/// measured on identical work.
std::vector<Money> fixed_grid(std::size_t points) {
  std::vector<Money> grid;
  for (std::size_t i = 0; i < points; ++i) {
    grid.push_back(Money::from_micros(static_cast<std::int64_t>(
        (static_cast<std::uint64_t>(i) * 100'000'000) /
        (points > 1 ? points - 1 : 1))));
  }
  return grid;
}

/// Serial-vs-engine and engine-throughput measurements over every
/// protocol.  Returns false when the engine diverges from the oracle or
/// the aggregate speedup gate fails.
bool search_speedup_axis(const SearchAxisConfig& axis,
                         std::vector<bench::JsonBenchRecord>* records) {
  static const TpdProtocol tpd(money(50));
  static const PmdProtocol pmd;
  static const KDoubleAuction kda(0.5);
  static const EfficientClearing efficient;
  static const VcgDoubleAuction vcg;
  static const RandomThresholdProtocol lottery(money(50));
  static const TpdWithRebates rebates(money(50));
  const DoubleAuctionProtocol* protocols[] = {
      &tpd, &pmd, &kda, &efficient, &vcg, &lottery, &rebates};

  const SingleUnitInstance instance =
      population_instance(axis.population, axis.seed);
  SearchConfig engine_config;
  engine_config.grid_override = fixed_grid(axis.grid);
  engine_config.threads = 0;  // hardware concurrency
  SearchConfig serial_config = engine_config;

  std::cout << "== Search engine vs serial reference ("
            << axis.population << "x" << axis.population
            << " accounts, grid " << axis.grid << ", "
            << axis.speedup_accounts << " serial-checked manipulators, "
            << axis.speedup_manipulators << " engine-only) ==\n";
  TextTable table({"protocol", "serial ms", "engine ms", "speedup",
                   "evaluated/enumerated", "pruned", "fast pos"});

  double serial_total_ns = 0.0;
  double engine_total_ns = 0.0;
  for (const DoubleAuctionProtocol* protocol : protocols) {
    double serial_ns = 0.0;
    double engine_ns = 0.0;
    SearchStats engine_stats;
    // Serial-vs-engine on the same small account subset; each pair is
    // also the correctness oracle for this instance shape.
    for (std::size_t a = 0; a < axis.speedup_accounts; ++a) {
      const ManipulatorSpec manipulator{a % 2 == 0 ? Side::kBuyer
                                                   : Side::kSeller,
                                        a / 2};
      const DeviationEvaluator evaluator(*protocol, instance, manipulator);
      const SearchResult serial =
          find_best_deviation_serial(evaluator, serial_config);
      const SearchResult engine = find_best_deviation(evaluator,
                                                      engine_config);
      serial_ns += static_cast<double>(serial.stats.wall_time_ns);
      engine_ns += static_cast<double>(engine.stats.wall_time_ns);
      engine_stats.merge_from(engine.stats);
      if (engine.best_utility != serial.best_utility ||
          engine.truthful_utility != serial.truthful_utility ||
          engine.strategies_evaluated != serial.strategies_evaluated ||
          engine.best_strategy.to_string() !=
              serial.best_strategy.to_string()) {
        std::cerr << "FAIL: engine diverged from serial oracle on "
                  << protocol->name() << " manipulator #" << a << '\n';
        return false;
      }
    }
    serial_total_ns += serial_ns;
    engine_total_ns += engine_ns;
    const double speedup = engine_ns > 0.0 ? serial_ns / engine_ns : 0.0;
    table.add_row(
        {protocol->name(), format_fixed(serial_ns / 1e6, 1),
         format_fixed(engine_ns / 1e6, 1), format_fixed(speedup, 1) + "x",
         std::to_string(engine_stats.strategies_evaluated) + "/" +
             std::to_string(engine_stats.strategies_enumerated),
         std::to_string(engine_stats.pruned_by_bound +
                        engine_stats.pruned_in_subtree),
         std::to_string(engine_stats.fast_positions)});

    bench::JsonBenchRecord row;
    row.name = "search_speedup/" + protocol->name();
    row.real_time_ns = engine_ns;
    row.items_per_second =
        engine_ns > 0.0
            ? 1e9 * static_cast<double>(engine_stats.strategies_enumerated) /
                  engine_ns
            : 0.0;
    row.counters = {
        {"serial_ns", serial_ns},
        {"engine_ns", engine_ns},
        {"speedup", speedup},
        {"population", static_cast<double>(axis.population)},
        {"manipulators", static_cast<double>(axis.speedup_accounts)},
        {"candidates_enumerated",
         static_cast<double>(engine_stats.strategies_enumerated)},
        {"candidates_evaluated",
         static_cast<double>(engine_stats.strategies_evaluated)},
        {"pruned", static_cast<double>(engine_stats.pruned_by_bound +
                                       engine_stats.pruned_in_subtree)},
        {"dedup_skipped", static_cast<double>(engine_stats.dedup_skipped)},
        {"fast_positions",
         static_cast<double>(engine_stats.fast_positions)},
        {"clears_performed",
         static_cast<double>(engine_stats.clears_performed)},
    };
    records->push_back(row);
  }
  std::cout << table;
  const double aggregate =
      engine_total_ns > 0.0 ? serial_total_ns / engine_total_ns : 0.0;
  std::cout << "aggregate speedup (total serial / total engine): "
            << format_fixed(aggregate, 1) << "x\n\n";

  // Engine-only throughput at population scale: the account counts the
  // serial baseline cannot reach.
  std::cout << "== Engine throughput over " << axis.speedup_manipulators
            << " manipulator accounts ==\n";
  TextTable throughput({"protocol", "total ms", "us/account",
                        "candidates/s", "fast pos", "clears"});
  for (const DoubleAuctionProtocol* protocol : protocols) {
    double total_ns = 0.0;
    SearchStats stats;
    for (std::size_t m = 0; m < axis.speedup_manipulators; ++m) {
      const ManipulatorSpec manipulator{
          m % 2 == 0 ? Side::kBuyer : Side::kSeller,
          (m / 2) % axis.population};
      const DeviationEvaluator evaluator(*protocol, instance, manipulator);
      const SearchResult result = find_best_deviation(evaluator,
                                                      engine_config);
      total_ns += static_cast<double>(result.stats.wall_time_ns);
      stats.merge_from(result.stats);
    }
    const double candidates_per_second =
        total_ns > 0.0
            ? 1e9 * static_cast<double>(stats.strategies_enumerated) /
                  total_ns
            : 0.0;
    throughput.add_row(
        {protocol->name(), format_fixed(total_ns / 1e6, 1),
         format_fixed(total_ns / 1e3 /
                          static_cast<double>(axis.speedup_manipulators),
                      1),
         format_fixed(candidates_per_second, 0),
         std::to_string(stats.fast_positions),
         std::to_string(stats.clears_performed)});

    bench::JsonBenchRecord row;
    row.name = "search_throughput/" + protocol->name();
    row.real_time_ns = total_ns;
    row.iterations = axis.speedup_manipulators;
    row.items_per_second = candidates_per_second;
    row.counters = {
        {"population", static_cast<double>(axis.population)},
        {"manipulators", static_cast<double>(axis.speedup_manipulators)},
        {"candidates_enumerated",
         static_cast<double>(stats.strategies_enumerated)},
        {"candidates_evaluated",
         static_cast<double>(stats.strategies_evaluated)},
        {"pruned", static_cast<double>(stats.pruned_by_bound +
                                       stats.pruned_in_subtree)},
        {"fast_positions", static_cast<double>(stats.fast_positions)},
        {"clears_performed", static_cast<double>(stats.clears_performed)},
    };
    records->push_back(row);
  }
  std::cout << throughput << '\n';

  bench::JsonBenchRecord aggregate_row;
  aggregate_row.name = "search_speedup/aggregate";
  aggregate_row.real_time_ns = engine_total_ns;
  aggregate_row.counters = {
      {"serial_ns", serial_total_ns},
      {"engine_ns", engine_total_ns},
      {"speedup", aggregate},
      {"population", static_cast<double>(axis.population)},
      {"protocols", 7.0},
  };
  records->push_back(aggregate_row);

  if (axis.assert_search_speedup >= 0.0 &&
      aggregate < axis.assert_search_speedup) {
    std::cerr << "FAIL: aggregate search speedup " << aggregate
              << "x below required " << axis.assert_search_speedup << "x\n";
    return false;
  }
  return true;
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--population N] [--speedup-accounts K]\n"
               "       [--speedup-manipulators M] [--grid G] [--json PATH]\n"
               "       [--assert-search-speedup X] [--search-axis 0|1]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  SearchAxisConfig axis;
  bool search_axis = true;
  std::string json_path;

  try {
    const ArgParser args(std::vector<std::string>(argv + 1, argv + argc));
    const auto count = [&args](const char* key, std::size_t fallback) {
      return static_cast<std::size_t>(
          args.get_int_or(key, static_cast<std::int64_t>(fallback)));
    };
    axis.population = std::max<std::size_t>(2, count("population",
                                                     axis.population));
    axis.speedup_accounts = std::max<std::size_t>(
        1, count("speedup-accounts", axis.speedup_accounts));
    axis.speedup_manipulators = std::max<std::size_t>(
        1, count("speedup-manipulators", axis.speedup_manipulators));
    axis.grid = std::max<std::size_t>(2, count("grid", axis.grid));
    axis.seed = count("seed", axis.seed);
    axis.assert_search_speedup =
        args.get_double_or("assert-search-speedup", axis.assert_search_speedup);
    search_axis = count("search-axis", 1) != 0;
    json_path = args.get_or("json", json_path);
    if (!args.command().empty() || !args.unused().empty()) {
      return usage(argv[0]);
    }
  } catch (const std::invalid_argument&) {
    return usage(argv[0]);
  }

  paper_examples();
  random_sweep();

  bool ok = true;
  std::vector<bench::JsonBenchRecord> records;
  if (search_axis) {
    ok = search_speedup_axis(axis, &records);
  }
  if (!json_path.empty() && !records.empty()) {
    if (!bench::write_benchmark_json_file(json_path, argv[0], records)) {
      std::cerr << "FAIL: cannot write " << json_path << '\n';
      return 1;
    }
    std::cout << "wrote " << json_path << '\n';
  }
  return ok ? 0 : 1;
}
