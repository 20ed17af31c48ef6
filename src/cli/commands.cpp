#include "cli/commands.h"

#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "core/validation.h"
#include "ops/console.h"
#include "ops/format.h"
#include "protocols/efficient.h"
#include "protocols/kda.h"
#include "protocols/pmd.h"
#include "protocols/random_threshold.h"
#include "protocols/tpd.h"
#include "protocols/tpd_multi.h"
#include "protocols/vcg.h"
#include "serialize/csv.h"
#include "serialize/json.h"
#include "market/throughput.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "mechanism/dynamics.h"
#include "mechanism/manipulation.h"
#include "mechanism/search_telemetry.h"
#include "sim/experiment.h"
#include "sim/table.h"
#include "sim/threshold_search.h"

namespace fnda {
namespace {

/// Builds the protocol named by --protocol (default tpd); --threshold and
/// --theta parameterize the ones that need it.
ProtocolPtr make_protocol(const ArgParser& args) {
  const std::string name = args.get_or("protocol", "tpd");
  const Money threshold = money(args.get_double_or("threshold", 50.0));
  if (name == "tpd") return std::make_unique<TpdProtocol>(threshold);
  if (name == "pmd") return std::make_unique<PmdProtocol>();
  if (name == "vcg") return std::make_unique<VcgDoubleAuction>();
  if (name == "kda") {
    return std::make_unique<KDoubleAuction>(args.get_double_or("theta", 0.5));
  }
  if (name == "efficient") return std::make_unique<EfficientClearing>();
  if (name == "random-threshold") {
    return std::make_unique<RandomThresholdProtocol>(threshold);
  }
  throw std::invalid_argument(
      "unknown --protocol '" + name +
      "' (tpd|pmd|vcg|kda|efficient|random-threshold)");
}

int usage_error(std::ostream& err, const std::string& message) {
  err << "error: " << message << "\nrun 'fnda help' for usage\n";
  return 2;
}

/// Reads --book FILE or stdin into a string; returns false on I/O error.
bool slurp_book(const ArgParser& args, std::istream& in, std::ostream& err,
                std::string* text) {
  if (const auto path = args.get("book"); path.has_value()) {
    std::ifstream file(*path);
    if (!file) {
      err << "error: cannot open book file '" << *path << "'\n";
      return false;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    *text = buffer.str();
    return true;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *text = buffer.str();
  return true;
}

int check_unused(const ArgParser& args, std::ostream& err) {
  const auto leftover = args.unused();
  if (leftover.empty()) return 0;
  std::string list;
  for (const auto& flag : leftover) {
    if (!list.empty()) list += ", ";
    list += flag;
  }
  return usage_error(err, "unrecognized flag(s): " + list);
}

}  // namespace

int cmd_clear(const ArgParser& args, std::istream& in, std::ostream& out,
              std::ostream& err) {
  const ProtocolPtr protocol = make_protocol(args);
  const std::string format = args.get_or("format", "text");
  const auto seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));

  std::string text;
  if (!slurp_book(args, in, err, &text)) return 1;
  if (const int rc = check_unused(args, err); rc != 0) return rc;

  const OrderBook book = read_book_csv(text);
  Rng rng(seed);
  const Outcome outcome = protocol->clear(book, rng);
  // VCG legitimately runs a deficit; everything else must balance.
  ValidationOptions options;
  options.allow_deficit = protocol->name() == "vcg";
  expect_valid_outcome(book, outcome, options);

  if (format == "csv") {
    out << write_outcome_csv(outcome);
  } else if (format == "json") {
    out << outcome_to_json(outcome) << '\n';
  } else if (format == "text") {
    out << protocol->name() << ": " << outcome.trade_count()
        << " trades, auctioneer revenue " << outcome.auctioneer_revenue()
        << '\n';
    for (const Fill& fill : outcome.fills()) {
      out << "  " << to_string(fill.side) << ' ' << fill.identity.value()
          << (fill.side == Side::kBuyer ? " pays " : " receives ")
          << fill.price << '\n';
    }
  } else {
    return usage_error(err, "unknown --format '" + format + "'");
  }
  return 0;
}

int cmd_clear_multi(const ArgParser& args, std::istream& in,
                    std::ostream& out, std::ostream& err) {
  const Money threshold = money(args.get_double_or("threshold", 50.0));
  const std::string format = args.get_or("format", "text");
  const auto seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  std::string text;
  if (!slurp_book(args, in, err, &text)) return 1;
  if (const int rc = check_unused(args, err); rc != 0) return rc;

  const MultiUnitBook book = read_multi_book_csv(text);
  const TpdMultiUnitProtocol protocol(threshold);
  Rng rng(seed);
  const MultiUnitOutcome outcome = protocol.clear(book, rng);
  const auto errors = validate_multi_outcome(book, outcome);
  if (!errors.empty()) {
    err << "error: invalid multi-unit outcome: " << errors.front() << "\n";
    return 1;
  }

  if (format == "csv") {
    out << write_multi_outcome_csv(outcome);
  } else if (format == "text") {
    out << protocol.name() << " (r = " << threshold << "): "
        << outcome.units_traded() << " units traded, auctioneer revenue "
        << outcome.auctioneer_revenue() << '\n';
    for (const auto& buyer : outcome.buyers) {
      out << "  buyer " << buyer.identity.value() << " takes " << buyer.units
          << " unit(s) for " << buyer.total_paid << '\n';
    }
    for (const auto& seller : outcome.sellers) {
      out << "  seller " << seller.identity.value() << " sells "
          << seller.units << " unit(s) for " << seller.total_received
          << '\n';
    }
  } else {
    return usage_error(err, "unknown --format '" + format +
                                "' (clear-multi supports text|csv)");
  }
  return 0;
}

int cmd_simulate(const ArgParser& args, std::ostream& out,
                 std::ostream& err) {
  const ProtocolPtr protocol = make_protocol(args);
  const auto buyers = static_cast<std::size_t>(args.get_int_or("buyers", 50));
  const auto sellers =
      static_cast<std::size_t>(args.get_int_or("sellers", 50));
  ExperimentConfig config;
  config.instances =
      static_cast<std::size_t>(args.get_int_or("instances", 1000));
  config.seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  config.validation.allow_deficit = protocol->name() == "vcg";
  const double low = args.get_double_or("low", 0.0);
  const double high = args.get_double_or("high", 100.0);
  const auto binomial = args.get_int_or("binomial", 0);
  const auto threads = args.get_int_or("threads", 1);
  if (const int rc = check_unused(args, err); rc != 0) return rc;

  const ValueDistribution values{money(low), money(high), ValueDomain{}};
  const InstanceGenerator generator =
      binomial > 0
          ? binomial_count_generator(static_cast<int>(binomial), 0.5, values)
          : fixed_count_generator(buyers, sellers, values);
  const ComparisonResult result =
      threads > 1 ? run_comparison_parallel(generator, {protocol.get()},
                                            config,
                                            static_cast<std::size_t>(threads))
                  : run_comparison(generator, {protocol.get()}, config);
  const ProtocolSummary& summary = result.protocols.front();

  TextTable table({"metric", "mean", "ci95"});
  auto row = [&table](const char* metric, const RunningStats& stats) {
    table.add_row({metric, format_fixed(stats.mean(), 2),
                   "+/-" + format_fixed(stats.ci95_half_width(), 2)});
  };
  row("social surplus", summary.total);
  row("surplus except auctioneer", summary.except_auctioneer);
  row("auctioneer revenue", summary.auctioneer);
  row("trades", summary.trades);
  row("pareto surplus", result.pareto);
  out << protocol->name() << " on ";
  if (binomial > 0) {
    out << "m,n~B(" << binomial << ",0.5)";
  } else {
    out << buyers << "x" << sellers;
  }
  out << " U[" << low << "," << high << "], " << config.instances
      << " instances\n"
      << table;
  out << "efficiency: "
      << format_fixed(100.0 * result.ratio_total(protocol->name()), 2)
      << "% of Pareto\n";
  return 0;
}

int cmd_attack(const ArgParser& args, std::istream& in, std::ostream& out,
               std::ostream& err) {
  const ProtocolPtr protocol = make_protocol(args);
  const std::string manipulator_spec = args.get_or("manipulator", "");
  const auto max_declarations =
      static_cast<std::size_t>(args.get_int_or("max-declarations", 2));
  std::string text;
  if (!slurp_book(args, in, err, &text)) return 1;
  if (const int rc = check_unused(args, err); rc != 0) return rc;

  // --manipulator side:index, e.g. "seller:2".
  const auto colon = manipulator_spec.find(':');
  if (colon == std::string::npos) {
    return usage_error(err,
                       "--manipulator must be side:index, e.g. seller:2");
  }
  const std::string side_text = manipulator_spec.substr(0, colon);
  Side role;
  if (side_text == "buyer") {
    role = Side::kBuyer;
  } else if (side_text == "seller") {
    role = Side::kSeller;
  } else {
    return usage_error(err, "--manipulator side must be buyer or seller");
  }
  const auto index = static_cast<std::size_t>(
      std::strtoull(manipulator_spec.c_str() + colon + 1, nullptr, 10));

  // Interpret the book's declarations as the participants' true values
  // (the standard assumption when auditing an instance).
  const OrderBook book = read_book_csv(text);
  SingleUnitInstance instance;
  for (const BidEntry& entry : book.buyers()) {
    instance.buyer_values.push_back(entry.value);
  }
  for (const BidEntry& entry : book.sellers()) {
    instance.seller_values.push_back(entry.value);
  }

  const DeviationEvaluator evaluator(*protocol, instance, {role, index});
  SearchConfig search;
  search.max_declarations = max_declarations;
  const SearchResult result = find_best_deviation(evaluator, search);

  out << "protocol: " << protocol->name() << "\n"
      << "manipulator: " << side_text << " #" << index << " (true value "
      << evaluator.true_value() << ")\n"
      << "strategies evaluated: " << result.strategies_evaluated
      << (result.truncated ? " (truncated)" : "") << "\n"
      << "truthful utility: " << format_fixed(result.truthful_utility, 4)
      << "\n"
      << "best deviation:   " << format_fixed(result.best_utility, 4)
      << "  via " << result.best_strategy.to_string() << "\n";
  if (result.profitable()) {
    out << "VERDICT: manipulable (profitable deviation found)\n";
  } else {
    out << "VERDICT: truthful play is optimal here\n";
  }
  return 0;
}

int cmd_attack_search(const ArgParser& args, std::istream& in,
                      std::ostream& out, std::ostream& err) {
  const ProtocolPtr protocol = make_protocol(args);
  const std::string manipulator_spec = args.get_or("manipulator", "");
  const auto max_declarations =
      static_cast<std::size_t>(args.get_int_or("max-declarations", 2));
  const auto threads = static_cast<std::size_t>(args.get_int_or("threads", 1));
  const auto replicates =
      static_cast<std::size_t>(args.get_int_or("replicates", 1));
  const auto seed = static_cast<std::uint64_t>(args.get_int_or("seed", 0x5eed));
  const bool serial = args.get_int_or("serial", 0) != 0;
  const bool prune = args.get_int_or("prune", 1) != 0;
  const bool json = args.get_int_or("json", 0) != 0;
  const std::string metrics_out = args.get_or("metrics-out", "");
  std::string text;
  if (!slurp_book(args, in, err, &text)) return 1;
  if (const int rc = check_unused(args, err); rc != 0) return rc;

  const auto colon = manipulator_spec.find(':');
  if (colon == std::string::npos) {
    return usage_error(err,
                       "--manipulator must be side:index, e.g. seller:2");
  }
  const std::string side_text = manipulator_spec.substr(0, colon);
  Side role;
  if (side_text == "buyer") {
    role = Side::kBuyer;
  } else if (side_text == "seller") {
    role = Side::kSeller;
  } else {
    return usage_error(err, "--manipulator side must be buyer or seller");
  }
  const auto index = static_cast<std::size_t>(
      std::strtoull(manipulator_spec.c_str() + colon + 1, nullptr, 10));

  const OrderBook book = read_book_csv(text);
  SingleUnitInstance instance;
  for (const BidEntry& entry : book.buyers()) {
    instance.buyer_values.push_back(entry.value);
  }
  for (const BidEntry& entry : book.sellers()) {
    instance.seller_values.push_back(entry.value);
  }

  EvalConfig eval;
  eval.replicates = replicates;
  eval.seed = seed;
  const DeviationEvaluator evaluator(*protocol, instance, {role, index}, eval);
  SearchConfig search;
  search.max_declarations = max_declarations;
  search.threads = threads;
  search.prune = prune;
  const SearchResult result = serial
                                  ? find_best_deviation_serial(evaluator,
                                                               search)
                                  : find_best_deviation(evaluator, search);
  const SearchStats& stats = result.stats;

  if (json) {
    // Machine-readable record (result + stats + timings); the Prometheus
    // dump via --metrics-out still works alongside.  Wall time is the
    // only nondeterministic field.
    auto escape = [](const std::string& text_in) {
      std::string escaped;
      escaped.reserve(text_in.size() + 8);
      for (const char c : text_in) {
        if (c == '"' || c == '\\') escaped.push_back('\\');
        escaped.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
      }
      return escaped;
    };
    out << "{\n"
        << "  \"protocol\": \"" << escape(protocol->name()) << "\",\n"
        << "  \"engine\": \"" << (serial ? "serial" : "parallel_pruned")
        << "\",\n"
        << "  \"manipulator\": {\"side\": \"" << side_text
        << "\", \"index\": " << index << ", \"true_value\": \""
        << evaluator.true_value() << "\"},\n"
        << "  \"result\": {\n"
        << "    \"truthful_utility\": " << result.truthful_utility << ",\n"
        << "    \"best_utility\": " << result.best_utility << ",\n"
        << "    \"best_strategy\": \""
        << escape(result.best_strategy.to_string()) << "\",\n"
        << "    \"profitable\": " << (result.profitable() ? "true" : "false")
        << ",\n"
        << "    \"truncated\": " << (result.truncated ? "true" : "false")
        << ",\n"
        << "    \"strategies_evaluated\": " << result.strategies_evaluated
        << "\n  },\n"
        << "  \"stats\": {\n"
        << "    \"threads_used\": " << stats.threads_used << ",\n"
        << "    \"strategies_enumerated\": " << stats.strategies_enumerated
        << ",\n"
        << "    \"strategies_evaluated\": " << stats.strategies_evaluated
        << ",\n"
        << "    \"pruned_by_bound\": " << stats.pruned_by_bound << ",\n"
        << "    \"pruned_in_subtree\": " << stats.pruned_in_subtree << ",\n"
        << "    \"pruned_by_warm_floor\": " << stats.pruned_by_warm_floor
        << ",\n"
        << "    \"dedup_skipped\": " << stats.dedup_skipped << ",\n"
        << "    \"fast_positions\": " << stats.fast_positions << ",\n"
        << "    \"clears_performed\": " << stats.clears_performed << "\n"
        << "  },\n"
        << "  \"wall_time_ns\": " << stats.wall_time_ns << "\n"
        << "}\n";
  } else {
    out << "protocol: " << protocol->name() << "\n"
        << "engine: " << (serial ? "serial reference" : "parallel pruned")
        << ", threads used: " << stats.threads_used << "\n"
        << "manipulator: " << side_text << " #" << index << " (true value "
        << evaluator.true_value() << ")\n"
        << "candidates: " << stats.strategies_enumerated << " enumerated, "
        << stats.strategies_evaluated << " evaluated, "
        << stats.pruned_by_bound + stats.pruned_in_subtree << " pruned ("
        << stats.pruned_by_bound << " leaf, " << stats.pruned_in_subtree
        << " subtree), " << stats.dedup_skipped << " dedup-skipped"
        << (result.truncated ? ", truncated" : "") << "\n"
        << "positions: " << stats.fast_positions << " fast, "
        << stats.clears_performed << " full clears\n";
    if (stats.bound_slack_samples > 0) {
      out << "mean bound slack: "
          << format_fixed(static_cast<double>(stats.bound_slack_micros) /
                              (1e6 * static_cast<double>(
                                         stats.bound_slack_samples)),
                          4)
          << "\n";
    }
    out << "wall time: " << stats.wall_time_ns / 1000 << " us\n"
        << "truthful utility: " << format_fixed(result.truthful_utility, 4)
        << "\n"
        << "best deviation:   " << format_fixed(result.best_utility, 4)
        << "  via " << result.best_strategy.to_string() << "\n";
    if (result.profitable()) {
      out << "VERDICT: manipulable (profitable deviation found)\n";
    } else {
      out << "VERDICT: truthful play is optimal here\n";
    }
  }

  if (!metrics_out.empty()) {
    obs::MetricsRegistry registry;
    bind_search_metrics(registry, stats);
    std::ofstream file(metrics_out);
    if (!file) {
      err << "error: cannot write " << metrics_out << '\n';
      return 1;
    }
    obs::write_prometheus(file, registry.snapshot());
  }
  return 0;
}

int cmd_dynamics(const ArgParser& args, std::istream& in, std::ostream& out,
                 std::ostream& err) {
  const ProtocolPtr protocol = make_protocol(args);
  const auto sweeps = static_cast<std::size_t>(args.get_int_or("sweeps", 6));
  const auto max_declarations =
      static_cast<std::size_t>(args.get_int_or("max-declarations", 2));
  std::string text;
  if (!slurp_book(args, in, err, &text)) return 1;
  if (const int rc = check_unused(args, err); rc != 0) return rc;

  const OrderBook book = read_book_csv(text);
  SingleUnitInstance instance;
  for (const BidEntry& entry : book.buyers()) {
    instance.buyer_values.push_back(entry.value);
  }
  for (const BidEntry& entry : book.sellers()) {
    instance.seller_values.push_back(entry.value);
  }

  DynamicsConfig config;
  config.max_sweeps = sweeps;
  config.search.max_declarations = max_declarations;
  const DynamicsResult result =
      best_response_dynamics(*protocol, instance, config);

  out << "protocol: " << protocol->name() << "\n"
      << "converged: " << (result.converged ? "yes" : "no") << " after "
      << result.sweeps << " sweep(s), " << result.updates
      << " strategy update(s)\n"
      << "agents deviating from truth: " << result.deviators << "/"
      << result.agents.size() << "\n"
      << "surplus: truthful " << format_fixed(result.truthful_surplus, 2)
      << " -> strategic " << format_fixed(result.final_surplus, 2) << "\n";
  for (std::size_t a = 0; a < result.agents.size(); ++a) {
    const AgentState& agent = result.agents[a];
    out << "  " << to_string(agent.role) << " v=" << agent.true_value
        << " plays " << agent.strategy.to_string() << " (u="
        << format_fixed(agent.utility, 2) << ")\n";
  }
  return 0;
}

int cmd_sweep(const ArgParser& args, std::ostream& out, std::ostream& err) {
  const auto participants =
      static_cast<std::size_t>(args.get_int_or("participants", 500));
  const auto step = args.get_int_or("step", 5);
  ExperimentConfig config;
  config.instances =
      static_cast<std::size_t>(args.get_int_or("instances", 200));
  config.seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  if (const int rc = check_unused(args, err); rc != 0) return rc;
  if (step <= 0) return usage_error(err, "--step must be positive");

  std::vector<std::unique_ptr<TpdProtocol>> protocols;
  std::vector<const DoubleAuctionProtocol*> pointers;
  std::vector<std::int64_t> thresholds;
  for (std::int64_t r = 0; r <= 100; r += step) {
    thresholds.push_back(r);
    protocols.push_back(std::make_unique<TpdProtocol>(money(r)));
    pointers.push_back(protocols.back().get());
  }
  const ComparisonResult result = run_comparison(
      fixed_count_generator(participants, participants), pointers, config);

  out << "threshold,surplus,surplus_except_auctioneer,pareto\n";
  for (std::size_t p = 0; p < pointers.size(); ++p) {
    out << thresholds[p] << ',' << format_fixed(result.protocols[p].total.mean(), 3)
        << ',' << format_fixed(result.protocols[p].except_auctioneer.mean(), 3)
        << ',' << format_fixed(result.pareto.mean(), 3) << '\n';
  }
  return 0;
}

int cmd_optimize(const ArgParser& args, std::ostream& out,
                 std::ostream& err) {
  const auto buyers = static_cast<std::size_t>(args.get_int_or("buyers", 50));
  const auto sellers =
      static_cast<std::size_t>(args.get_int_or("sellers", 50));
  const double low = args.get_double_or("low", 0.0);
  const double high = args.get_double_or("high", 100.0);
  ThresholdSearchConfig config;
  config.lo = money(args.get_double_or("lo", low));
  config.hi = money(args.get_double_or("hi", high));
  config.instances_per_eval =
      static_cast<std::size_t>(args.get_int_or("instances", 200));
  config.seed = static_cast<std::uint64_t>(args.get_int_or("seed", 7));
  if (args.get_or("objective", "total") == "traders") {
    config.objective = ThresholdObjective::kSurplusExceptAuctioneer;
  }
  if (const int rc = check_unused(args, err); rc != 0) return rc;

  const ThresholdSearchResult result = optimize_threshold(
      fixed_count_generator(buyers, sellers,
                            ValueDistribution{money(low), money(high),
                                              ValueDomain{}}),
      config);
  out << "best threshold: " << result.best_threshold << '\n'
      << "expected surplus: " << format_fixed(result.best_value, 2) << '\n';
  return 0;
}

namespace {

/// Opens `path` for writing and streams `write` into it.
template <typename WriteFn>
bool write_file(const std::string& path, std::ostream& err, WriteFn write) {
  std::ofstream file(path);
  if (!file) {
    err << "error: cannot open output file '" << path << "'\n";
    return false;
  }
  write(file);
  return true;
}

}  // namespace

int cmd_market_bench(const ArgParser& args, std::ostream& out,
                     std::ostream& err) {
  ThroughputConfig config;
  config.clients = static_cast<std::size_t>(args.get_int_or("clients", 1000));
  config.rounds = static_cast<std::size_t>(args.get_int_or("rounds", 3));
  config.shards = static_cast<std::size_t>(args.get_int_or("shards", 4));
  config.threads = static_cast<std::size_t>(args.get_int_or("threads", 1));
  config.drop_probability = args.get_double_or("drop", 0.0);
  config.duplicate_probability = args.get_double_or("duplicate", 0.0);
  config.seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  const Money threshold = money(args.get_double_or("threshold", 50.0));
  const std::optional<std::string> metrics_out = args.get("metrics-out");
  const std::optional<std::string> metrics_json = args.get("metrics-json");
  const std::optional<std::string> trace_out = args.get("trace-out");
  config.telemetry.wallclock = args.has("trace-wallclock");
  if (args.has("no-telemetry")) config.telemetry.enabled = false;
  if (const int rc = check_unused(args, err); rc != 0) return rc;
  if (!config.telemetry.enabled &&
      (metrics_out || metrics_json || trace_out ||
       config.telemetry.wallclock)) {
    return usage_error(err,
                       "--no-telemetry contradicts the other telemetry flags");
  }
  if (config.clients == 0 || config.rounds == 0 || config.shards == 0) {
    return usage_error(err, "--clients, --rounds, --shards must be positive");
  }
  if (config.threads > config.shards) {
    return usage_error(err,
                       "--threads must not exceed --shards (a shard is owned "
                       "by one worker; 0 = hardware concurrency)");
  }

  // Same caveat the bench embeds in its JSON `warnings` field: wall-time
  // numbers from an oversubscribed host are not parallel speedup.
  // --threads 0 resolves to hardware concurrency, so it never
  // oversubscribes.
  const unsigned num_cpus =
      std::max(1u, std::thread::hardware_concurrency());
  if (config.threads > num_cpus) {
    err << "warning: " << config.threads << " worker threads on a "
        << num_cpus
        << "-CPU host; throughput measures oversubscription, not parallel "
           "speedup\n";
  }

  const TpdProtocol tpd(threshold);
  const auto start = std::chrono::steady_clock::now();
  const ThroughputResult result = run_throughput_session(tpd, config);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const std::size_t messages = result.bus.delivered + result.bus.dropped +
                               result.bus.dead_lettered;
  out << "clients: " << result.clients << "  rounds: " << result.rounds
      << "  shards: " << result.shards << "  threads: " << result.threads
      << '\n'
      << "messages: " << messages << " (sent " << result.bus.sent
      << ", duplicated " << result.bus.duplicated << ", dropped "
      << result.bus.dropped << ", dead-lettered " << result.bus.dead_lettered
      << ")\n";
  for (std::size_t s = 0; s < result.shard_bus.size(); ++s) {
    const BusStats& shard = result.shard_bus[s];
    out << "  shard " << s << ": delivered " << shard.delivered
        << ", dead-lettered " << shard.dead_lettered << ", dropped "
        << shard.dropped << '\n';
  }
  out << "bids accepted: " << result.bids_accepted
      << "  trades: " << result.trades << '\n'
      << "book: " << result.book.inserts << " inserts, "
      << result.book.entries_shifted << " entries shifted, "
      << result.book.chunk_splits << " chunk splits, "
      << result.book.sorts_at_close << " sorts at close\n"
      << "drives: " << result.epoch.barriers << " (one fork-join each)\n"
      << "sim time: " << result.sim_time.micros << " us  wall: "
      << format_fixed(elapsed, 3) << " s\n"
      << "throughput: "
      << format_fixed(static_cast<double>(messages) / elapsed, 0)
      << " msg/s, "
      << format_fixed(static_cast<double>(result.bids_accepted) / elapsed, 0)
      << " bids/s, "
      << format_fixed(static_cast<double>(result.rounds) / elapsed, 2)
      << " rounds/s\n";

  if (metrics_out.has_value() &&
      !write_file(*metrics_out, err, [&result](std::ostream& file) {
        obs::write_prometheus(file, result.metrics);
      })) {
    return 1;
  }
  if (metrics_json.has_value() &&
      !write_file(*metrics_json, err, [&result](std::ostream& file) {
        obs::write_json_snapshot(file, result.metrics);
      })) {
    return 1;
  }
  if (trace_out.has_value() &&
      !write_file(*trace_out, err, [&result](std::ostream& file) {
        obs::write_chrome_trace(file, result.trace);
      })) {
    return 1;
  }
  return 0;
}

int cmd_metrics_dump(const ArgParser& args, std::ostream& out,
                     std::ostream& err) {
  // Two modes: run a small deterministic session and dump its merged
  // snapshot (the CI smoke step greps this), or --in FILE to parse an
  // existing Prometheus text file back into a snapshot — validating it
  // and optionally reformatting.  Missing or malformed input exits 1.
  ThroughputConfig config;
  config.clients = static_cast<std::size_t>(args.get_int_or("clients", 64));
  config.rounds = static_cast<std::size_t>(args.get_int_or("rounds", 2));
  config.shards = static_cast<std::size_t>(args.get_int_or("shards", 2));
  config.threads = static_cast<std::size_t>(args.get_int_or("threads", 1));
  config.seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  const Money threshold = money(args.get_double_or("threshold", 50.0));
  const std::string format = args.get_or("format", "prom");
  const std::optional<std::string> in_path = args.get("in");
  const bool quiet = args.has("quiet");
  if (const int rc = check_unused(args, err); rc != 0) return rc;
  if (config.clients == 0 || config.rounds == 0 || config.shards == 0) {
    return usage_error(err, "--clients, --rounds, --shards must be positive");
  }
  if (format != "prom" && format != "json" && format != "table") {
    return usage_error(err, "--format must be prom, json, or table");
  }

  obs::MetricsSnapshot snapshot;
  if (in_path.has_value()) {
    std::ifstream file(*in_path);
    if (!file) {
      err << "error: cannot open metrics file '" << *in_path << "'\n";
      return 1;
    }
    try {
      snapshot = ops::parse_prometheus_text(file);
    } catch (const std::exception& e) {
      err << "error: " << e.what() << '\n';
      return 1;
    }
  } else {
    const TpdProtocol tpd(threshold);
    snapshot = run_throughput_session(tpd, config).metrics;
  }

  if (quiet) return 0;
  if (format == "json") {
    obs::write_json_snapshot(out, snapshot);
    out << '\n';
  } else if (format == "table") {
    for (const std::string& line : ops::render_metrics_table(snapshot)) {
      out << line << '\n';
    }
  } else {
    obs::write_prometheus(out, snapshot);
  }
  return 0;
}

int cmd_console(const ArgParser& args, std::istream& in, std::ostream& out,
                std::ostream& err) {
  const ProtocolPtr protocol = make_protocol(args);
  ops::ConsoleConfig config;
  config.clients = static_cast<std::size_t>(args.get_int_or("clients", 64));
  config.shards = static_cast<std::size_t>(args.get_int_or("shards", 2));
  config.threads = static_cast<std::size_t>(args.get_int_or("threads", 1));
  config.seed = static_cast<std::uint64_t>(args.get_int_or("seed", 42));
  config.max_rounds =
      static_cast<std::size_t>(args.get_int_or("rounds-budget", 1024));
  config.drop_probability = args.get_double_or("drop", 0.0);
  config.duplicate_probability = args.get_double_or("duplicate", 0.0);
  config.telemetry.enabled = !args.has("no-telemetry");
  const std::optional<std::string> script_path = args.get("script");
  const std::optional<std::string> slo_path = args.get("slo-file");
  const bool json_replies = args.has("json");
  if (const int rc = check_unused(args, err); rc != 0) return rc;
  if (config.clients == 0 || config.shards == 0) {
    return usage_error(err, "--clients and --shards must be positive");
  }
  if (slo_path.has_value()) {
    std::ifstream file(*slo_path);
    if (!file) {
      err << "error: cannot open SLO file '" << *slo_path << "'\n";
      return 1;
    }
    std::string line;
    while (std::getline(file, line)) {
      if (line.empty() || line[0] == '#') continue;
      config.slo_rules.push_back(line);
    }
  }

  ops::ConsoleSession session(*protocol, config);

  const bool script_mode = script_path.has_value();
  std::ifstream script;
  if (script_mode) {
    script.open(*script_path);
    if (!script) {
      err << "error: cannot open script '" << *script_path << "'\n";
      return 1;
    }
  }
  std::istream& source = script_mode ? static_cast<std::istream&>(script) : in;

  if (!script_mode) {
    out << "fnda console — 'help' lists commands, 'quit' leaves\n";
  }
  std::string line;
  while (!session.done()) {
    if (script_mode) {
      if (!std::getline(source, line)) break;
      out << "> " << line << '\n';
    } else {
      out << "fnda> " << std::flush;
      if (!std::getline(source, line)) break;
    }
    const ops::Reply reply = session.execute(line);
    const std::string rendered = json_replies ? reply.json : reply.text();
    if (!rendered.empty()) out << rendered << '\n';
    if (!reply.ok && script_mode) {
      // Batch scripts are CI material: the first failing command fails
      // the run, like `sh -e`.
      return 1;
    }
  }
  return 0;
}

int cmd_help(std::ostream& out) {
  out << "fnda - false-name-robust double auctions (Yokoo et al., ICDCS"
         " 2001)\n\n"
         "commands:\n"
         "  clear     clear one book from CSV (side,identity,value)\n"
         "            --protocol tpd|pmd|vcg|kda|efficient|random-threshold\n"
         "            --threshold R  --theta T  --book FILE (default stdin)\n"
         "            --format text|csv|json  --seed N\n"
         "  clear-multi  Section 9 multi-unit TPD from CSV\n"
         "            (side,identity,schedule; schedule = v1;v2;... )\n"
         "            --threshold R --book FILE --format text|csv\n"
         "  simulate  Monte-Carlo surplus of one protocol\n"
         "            --buyers N --sellers M | --binomial N\n"
         "            --instances K --low --high --threads T\n"
         "  attack    exhaustive deviation search for one participant\n"
         "            --book FILE --manipulator buyer:0|seller:2\n"
         "            --protocol ... --max-declarations D\n"
         "  attack-search  the parallel pruned search engine with full\n"
         "            coverage counters (pruning, fast positions, slack)\n"
         "            --book FILE --manipulator buyer:0|seller:2\n"
         "            --protocol ... --max-declarations D --threads T\n"
         "            (0 = hardware concurrency; result is identical for\n"
         "            every T) --replicates R --seed N --prune 0|1\n"
         "            --serial 1 (run the reference oracle instead)\n"
         "            --json 1 (machine-readable result + stats + timings)\n"
         "            --metrics-out FILE (Prometheus text)\n"
         "  dynamics  iterated best response over the book's traders\n"
         "            --book FILE --protocol ... --sweeps N\n"
         "  sweep     TPD threshold sweep (Figure 1 series, CSV)\n"
         "            --participants N --step S --instances K\n"
         "  optimize  find the best threshold for a workload\n"
         "            --buyers N --sellers M --lo --hi --objective "
         "total|traders\n"
         "  market-bench  ZI-trader session on the sharded exchange\n"
         "            --clients N --rounds R --shards S --threads T\n"
         "            (T <= S; 0 = hardware concurrency) --drop P\n"
         "            --duplicate P --threshold R --seed N\n"
         "            --metrics-out FILE (Prometheus text)\n"
         "            --metrics-json FILE --trace-out FILE (Chrome trace)\n"
         "            --trace-wallclock (wall timestamps; nondeterministic)\n"
         "            --no-telemetry (runtime-disabled baseline)\n"
         "            prints live-book work counters and the drive\n"
         "            count; warns when threads oversubscribe the\n"
         "            host's CPUs; the scaling axes and the\n"
         "            --assert-ns-per-message / --assert-speedup gates\n"
         "            live in bench/market_throughput\n"
         "  metrics-dump  run a small session, dump its metrics to stdout\n"
         "            --format prom|json|table --clients N --rounds R\n"
         "            --shards S --threads T --seed N\n"
         "            --in FILE (parse a Prometheus text file instead of\n"
         "            running; exit 1 on missing/malformed input)\n"
         "            --quiet (validate only, print nothing)\n"
         "  console   live operations console over a running exchange\n"
         "            interactive REPL by default; --script FILE runs a\n"
         "            command batch (CI mode: first error exits 1)\n"
         "            --json (JSON replies) --clients N --shards S\n"
         "            --threads T --seed N --rounds-budget N\n"
         "            --drop P --duplicate P --protocol ... --threshold R\n"
         "            --slo-file FILE (one SLO rule per line)\n"
         "            --no-telemetry (commands degrade gracefully)\n"
         "            commands: run, status, metrics show|dump, hist,\n"
         "            book dump, escrow show, audit tail, trace\n"
         "            start|stop|export, shard pause|resume|drain,\n"
         "            config show|set, health, digest, help, quit\n"
         "  help      this text\n";
  return 0;
}

int run_cli(const std::vector<std::string>& args, std::istream& in,
            std::ostream& out, std::ostream& err) {
  try {
    const ArgParser parsed(args);
    const std::string& command = parsed.command();
    if (command.empty() || command == "help") return cmd_help(out);
    if (command == "clear") return cmd_clear(parsed, in, out, err);
    if (command == "clear-multi") return cmd_clear_multi(parsed, in, out, err);
    if (command == "simulate") return cmd_simulate(parsed, out, err);
    if (command == "attack") return cmd_attack(parsed, in, out, err);
    if (command == "attack-search") {
      return cmd_attack_search(parsed, in, out, err);
    }
    if (command == "dynamics") return cmd_dynamics(parsed, in, out, err);
    if (command == "sweep") return cmd_sweep(parsed, out, err);
    if (command == "optimize") return cmd_optimize(parsed, out, err);
    if (command == "market-bench") return cmd_market_bench(parsed, out, err);
    if (command == "metrics-dump") return cmd_metrics_dump(parsed, out, err);
    if (command == "console") return cmd_console(parsed, in, out, err);
    return usage_error(err, "unknown command '" + command + "'");
  } catch (const std::invalid_argument& e) {
    err << "error: " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return 1;
  }
}

}  // namespace fnda
