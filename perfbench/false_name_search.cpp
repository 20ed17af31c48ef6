// false_name_search: the offline search for each account's best
// false-name deviation (find_best_deviation, up to 2 declarations, 1
// engine thread) under TPD (r = 50) and under PMD, over random U[0,100]
// books drawn by the benchmark:
//   * small books, 1 to 6 traders per side, every account searched over
//     the instance-derived candidate grid;
//   * 250 x 250 populations, a seeded sample of accounts searched over a
//     fixed 12-point grid.
//
// One step is one account's analysis under one protocol: the
// DeviationEvaluator build plus find_best_deviation.  A run repeats
// passes; a pass draws its books and analyses kWarmupAnalyses accounts
// untimed (set-up), then times every analysis of the pass.
#include <string>

#include "closed_form.h"
#include "mechanism/manipulation.h"
#include "protocols/pmd.h"
#include "protocols/tpd.h"
#include "workloads.h"

namespace perfbench {
namespace {

using fnda::Money;
using fnda::Side;

constexpr std::size_t kSmallBooks = 40;
constexpr std::size_t kLargeBooks = 2;
constexpr std::size_t kLargeSide = 250;
constexpr std::size_t kLargeAccountsPerBook = 40;
constexpr std::size_t kGridPoints = 12;
constexpr std::size_t kWarmupAnalyses = 64;
/// Every kReferenceStride-th analysis is re-run through the serial
/// reference search, outside the timed phase.
constexpr std::size_t kReferenceStride = 24;

struct Job {
  std::size_t book = 0;
  fnda::ManipulatorSpec manipulator{Side::kBuyer, 0};
  bool large = false;
};

struct Pass {
  std::vector<fnda::SingleUnitInstance> books;
  std::vector<Job> jobs;
};

Money draw_value(SplitMix& rng) {
  // Cent resolution: ties are rare, as with the paper's continuous draws.
  return Money::from_micros(rng.uniform(0, 10'000) * 10'000);
}

Pass draw_pass(std::uint64_t seed) {
  SplitMix rng(seed);
  Pass pass;
  const fnda::ValueDomain domain{Money::from_units(0), Money::from_units(100)};
  for (std::size_t b = 0; b < kSmallBooks + kLargeBooks; ++b) {
    const bool large = b >= kSmallBooks;
    fnda::SingleUnitInstance instance;
    instance.domain = domain;
    const auto buyers = large ? kLargeSide
                              : static_cast<std::size_t>(rng.uniform(1, 6));
    const auto sellers = large ? kLargeSide
                               : static_cast<std::size_t>(rng.uniform(1, 6));
    for (std::size_t i = 0; i < buyers; ++i) {
      instance.buyer_values.push_back(draw_value(rng));
    }
    for (std::size_t i = 0; i < sellers; ++i) {
      instance.seller_values.push_back(draw_value(rng));
    }
    if (large) {
      for (std::size_t a = 0; a < kLargeAccountsPerBook; ++a) {
        const Side role = a % 2 == 0 ? Side::kBuyer : Side::kSeller;
        const auto index = static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(kLargeSide) - 1));
        pass.jobs.push_back(Job{b, {role, index}, true});
      }
    } else {
      for (std::size_t i = 0; i < buyers; ++i) {
        pass.jobs.push_back(Job{b, {Side::kBuyer, i}, false});
      }
      for (std::size_t i = 0; i < sellers; ++i) {
        pass.jobs.push_back(Job{b, {Side::kSeller, i}, false});
      }
    }
    pass.books.push_back(std::move(instance));
  }
  return pass;
}

struct Totals {
  std::vector<double> step_ms;
  double timed_s = 0.0;
  std::size_t analyses = 0;
  std::vector<double> setup_s;
  fnda::SearchStats stats;  // timed searches, summed
  std::size_t searches = 0;
  std::size_t pmd_profitable = 0;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
};

/// One account under one protocol.  Returns the search result.
fnda::SearchResult analyse(const fnda::DoubleAuctionProtocol& protocol,
                           const Pass& pass, const Job& job,
                           const fnda::SearchConfig& config,
                           const char* search_span) {
  Span span("bench.analysis");
  const std::unique_ptr<fnda::DeviationEvaluator> evaluator = [&] {
    Span build("mechanism.evaluator_build");
    fnda::EvalConfig eval;
    eval.seed = 0x5eed + job.book;
    return std::make_unique<fnda::DeviationEvaluator>(
        protocol, pass.books[job.book], job.manipulator, eval);
  }();
  Span search(search_span);
  return fnda::find_best_deviation(*evaluator, config);
}

void run_pass(std::uint64_t seed, bool trace, Report& report, Totals& totals) {
  const fnda::TpdProtocol tpd(Money::from_units(50));
  const fnda::PmdProtocol pmd;
  const std::uint64_t setup_start = now_ns();
  const Pass pass = draw_pass(seed);

  fnda::SearchConfig small_config;
  small_config.max_declarations = 2;
  small_config.threads = 1;
  fnda::SearchConfig large_config = small_config;
  for (std::size_t g = 0; g < kGridPoints; ++g) {
    large_config.grid_override.push_back(Money::from_micros(
        static_cast<std::int64_t>(g) * 100 * kMicros /
        static_cast<std::int64_t>(kGridPoints - 1)));
  }

  struct Analysis {
    const fnda::DoubleAuctionProtocol* protocol;
    const char* span;
    const Job* job;
  };
  std::vector<Analysis> analyses;
  for (const Job& job : pass.jobs) {
    analyses.push_back({&tpd, "mechanism.search.tpd", &job});
    analyses.push_back({&pmd, "mechanism.search.pmd", &job});
  }
  auto config_of = [&](const Job& job) -> const fnda::SearchConfig& {
    return job.large ? large_config : small_config;
  };

  // Set-up ends after the warm-up analyses.
  for (std::size_t k = 0; k < kWarmupAnalyses; ++k) {
    const Analysis& a = analyses[(k * 7919) % analyses.size()];
    analyse(*a.protocol, pass, *a.job, config_of(*a.job), a.span);
  }
  totals.setup_s.push_back(seconds_between(setup_start, now_ns()));

  SplitMix coin(seed ^ 0xc01full);
  for (std::size_t k = 0; k < analyses.size(); ++k) {
    const Analysis& a = analyses[k];
    const bool traced = trace && (coin.next() & 1) != 0;
    Tracer::instance().set_enabled(traced);
    const std::uint64_t t0 = now_ns();
    const fnda::SearchResult result =
        analyse(*a.protocol, pass, *a.job, config_of(*a.job), a.span);
    const std::uint64_t t1 = now_ns();
    Tracer::instance().set_enabled(false);

    const double ms = static_cast<double>(t1 - t0) / 1e6;
    totals.step_ms.push_back(ms);
    (traced ? totals.traced_ms : totals.untraced_ms).push_back(ms);
    totals.timed_s += seconds_between(t0, t1);
    ++totals.analyses;
    totals.stats.merge_from(result.stats);
    ++totals.searches;
    ++report.ops.searches_run;
    if (result.truncated) ++report.ops.searches_truncated;

    // Outside the timed step: the checks.
    const bool is_tpd = a.protocol == &tpd;
    report.check(result.best_utility >= result.truthful_utility,
                 "best utility below truthful utility");
    if (is_tpd) {
      report.check(!result.profitable(),
                   "a false-name deviation gains under TPD (Theorem 1)");
    } else if (result.profitable()) {
      ++totals.pmd_profitable;
    }
    if (k % kReferenceStride == 0) {
      fnda::EvalConfig eval;
      eval.seed = 0x5eed + a.job->book;
      const fnda::DeviationEvaluator evaluator(
          *a.protocol, pass.books[a.job->book], a.job->manipulator, eval);
      const fnda::SearchResult reference =
          fnda::find_best_deviation_serial(evaluator, config_of(*a.job));
      report.check(reference.best_utility == result.best_utility &&
                       reference.truthful_utility == result.truthful_utility,
                   "find_best_deviation disagrees with the serial reference");
    }
  }
}

}  // namespace

Report run_false_name_search(const RunOptions& options) {
  Report report;
  Totals totals;
  const std::uint64_t start = now_ns();
  for (std::uint64_t pass = 0;; ++pass) {
    run_pass(SplitMix(options.seed * 0x100000001b3ull + pass + 29).next(),
             options.trace, report, totals);
    // p99 needs 1,000 steps; stop at the first pass end past the budget.
    if (totals.analyses >= 1'000 &&
        seconds_between(start, now_ns()) >= options.seconds) {
      break;
    }
  }
  report.check(totals.pmd_profitable > 0,
               "no PMD account gains from false names (Examples 1-2 say "
               "some should)");

  if (!options.trace) {
    report_end_to_end(totals.setup_s, static_cast<double>(totals.analyses),
                      totals.timed_s, totals.step_ms, report);
    return report;
  }

  const fnda::SearchStats& s = totals.stats;
  const double searches = static_cast<double>(totals.searches);
  auto us = [](std::vector<double> ms) {
    for (double& v : ms) v *= 1e3;
    return median(ms);
  };
  report.set("mechanism.evaluator_build_us",
             us(span_ms("mechanism.evaluator_build")), "us");
  report.set("mechanism.search_us.tpd", us(span_ms("mechanism.search.tpd")),
             "us");
  report.set("mechanism.search_us.pmd", us(span_ms("mechanism.search.pmd")),
             "us");
  report.set("bench.step_p90_ms",
             percentile_checked(totals.step_ms, 90, "analysis", report), "ms");
  report.set("mechanism.search_p99_ms",
             percentile_checked(totals.step_ms, 99, "analysis", report), "ms");
  report.set("mechanism.evaluated_per_enumerated",
             static_cast<double>(s.strategies_evaluated) /
                 static_cast<double>(s.strategies_enumerated),
             "ratio");
  report.set("mechanism.pruned_subtree_per_search",
             static_cast<double>(s.pruned_in_subtree) / searches, "count");
  report.set("mechanism.fast_positions_per_search",
             static_cast<double>(s.fast_positions) / searches, "count");
  report.set("mechanism.clears_per_search",
             static_cast<double>(s.clears_performed) / searches, "count");
  report.set("trace.overhead",
             median(totals.traced_ms) / median(totals.untraced_ms) - 1.0,
             "share");
  report_self_time("bench.analysis", report);
  return report;
}

}  // namespace perfbench
