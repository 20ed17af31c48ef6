// attack_cosim: 2,000 honest ZI traders plus 64 false-name attacker
// accounts on a 2-shard exchange driven by 1 thread, TPD at r = 50.  An
// AttackScheduler with a 1-thread search pool re-plans every attacker each
// round (17-point grid, up to 3 declarations, no budget shedding) while
// the next round's honest traffic clears.
//
// A round is: open_rounds, the bounded drive_until (honest traffic, with
// the searches overlapping on the pool), join, apply_and_submit (the
// attackers' late bids), drive_to_quiescence, and plan_from on the
// cleared books.  A session builds the exchange, plays kWarmupRounds
// rounds (the first planning round runs every search cold), then times
// the rest.
#include <string>
#include <unordered_map>

#include "exchange_world.h"
#include "market/attack_scheduler.h"
#include "protocols/tpd.h"
#include "workloads.h"

namespace perfbench {
namespace {

using fnda::Money;
using fnda::Side;

constexpr std::size_t kHonest = 2'000;
constexpr std::size_t kAttackers = 64;
constexpr std::size_t kShards = 2;
constexpr std::size_t kThreads = 1;
constexpr std::size_t kGridPoints = 17;
constexpr std::size_t kMaxDeclarations = 3;
constexpr std::size_t kWarmupRounds = 4;
constexpr std::size_t kSessionRounds = 164;
constexpr std::int64_t kThresholdUnits = 50;
const fnda::SimTime kOpenFor = fnda::SimTime::millis(100);

/// Search counters of the timed rounds, summed over telemetry-on sessions.
struct SearchTotals {
  double warm_hits = 0.0;
  double warm_seeded = 0.0;
  double cold_runs = 0.0;
  double wall_ms = 0.0;
};

/// `trace`: trace a seeded half of the timed rounds and probe the core and
/// protocols layers after the last one.
SessionTimes run_session(std::uint64_t seed, bool telemetry, bool trace,
                         Report& report, OpCounts& ops, SearchTotals& search) {
  const fnda::TpdProtocol tpd(Money::from_units(kThresholdUnits));
  SessionTimes stats;
  const std::uint64_t setup_start = now_ns();

  ExchangeSpec spec;
  spec.shards = kShards;
  spec.threads = kThreads;
  spec.rounds = kSessionRounds;
  spec.max_declarations = kMaxDeclarations;
  spec.seed = seed;
  spec.telemetry = telemetry;
  ExchangeWorld world = build_exchange(tpd, spec);
  fnda::MultiServerExchange& exchange = *world.exchange;

  // Honest population first, attackers after (account order).
  SplitMix values(seed ^ 0x5eedull);
  std::unordered_map<std::uint64_t, std::int64_t> value_of_account;
  std::vector<std::vector<std::int64_t>> all_buyers(kShards);
  std::vector<std::vector<std::int64_t>> all_sellers(kShards);
  auto add = [&](Side role, bool honest) -> fnda::TradingClient& {
    const std::int64_t units = values.uniform(1, 100);
    fnda::TradingClient& trader = world.add_trader(role, units, honest);
    value_of_account[trader.account().value()] = units * kMicros;
    const std::size_t shard = exchange.shard_of(trader.account());
    (role == Side::kBuyer ? all_buyers : all_sellers)[shard].push_back(
        units * kMicros);
    return trader;
  };
  for (std::size_t i = 0; i < kHonest; ++i) {
    add(i % 2 == 0 ? Side::kBuyer : Side::kSeller, true);
  }

  fnda::AttackSchedulerConfig sched;
  sched.search.max_declarations = kMaxDeclarations;
  sched.search.allow_absence = true;
  sched.search.threads = 1;
  for (std::size_t g = 0; g < kGridPoints; ++g) {
    sched.search.grid_override.push_back(Money::from_units(
        1 + 99 * static_cast<std::int64_t>(g) /
                static_cast<std::int64_t>(kGridPoints - 1)));
  }
  sched.seed = seed ^ 0xa77ac4ull;
  sched.warm = true;
  sched.pool_threads = 1;
  sched.round_budget = 0;
  fnda::AttackScheduler scheduler(exchange, sched);
  for (std::size_t i = 0; i < kAttackers; ++i) {
    scheduler.add_attacker(add(i % 2 == 0 ? Side::kBuyer : Side::kSeller,
                               false));
  }

  std::int64_t efficient_per_round = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    efficient_per_round += efficient_surplus(all_buyers[s], all_sellers[s]);
  }

  fnda::AttackSearchCounters counters_before{};
  std::uint64_t wall_before = 0;
  std::int64_t realized = 0;
  SplitMix coin(seed ^ 0x7acedull);
  LayerProbe probe;
  std::vector<fnda::RoundId> last_rounds;
  const fnda::SimTime margin{kOpenFor.micros / 2};
  for (std::size_t r = 0; r < kSessionRounds; ++r) {
    const bool timed = r >= kWarmupRounds;
    if (r == kWarmupRounds) {
      stats.setup_s = seconds_between(setup_start, now_ns());
      counters_before = scheduler.counters();
      wall_before = scheduler.search_wall_ns();
      probe.start(exchange);
    }
    // Traced sessions trace a seeded half of their rounds; the other half
    // is the overhead baseline.
    const bool traced_round = timed && trace && (coin.next() & 1) != 0;
    Tracer::instance().set_enabled(traced_round);
    std::vector<fnda::RoundId>& rounds = last_rounds;
    std::size_t submitted = 0;
    std::uint64_t drive_ns = 0;
    const std::uint64_t t0 = now_ns();
    {
      Span round("bench.round");
      {
        Span span("market.open_rounds");
        rounds = exchange.open_rounds(kOpenFor);
      }
      std::vector<fnda::SimTime> bounds;
      for (std::size_t s = 0; s < kShards; ++s) {
        bounds.push_back(*exchange.server(s).round_closes_at() - margin);
      }
      {
        Span span("market.drive_until");
        const std::uint64_t d0 = now_ns();
        exchange.drive_until(bounds);
        drive_ns += now_ns() - d0;
      }
      {
        Span span("market.attack_join");
        scheduler.join();
      }
      {
        Span span("market.attack_apply");
        submitted = scheduler.apply_and_submit();
      }
      {
        Span span("market.drive_to_quiescence");
        const std::uint64_t d0 = now_ns();
        exchange.drive_to_quiescence();
        drive_ns += now_ns() - d0;
      }
      if (r + 1 < kSessionRounds) {
        Span span("market.attack_plan");
        scheduler.plan_from(rounds);
      }
    }
    const std::uint64_t t1 = now_ns();
    Tracer::instance().set_enabled(false);

    // Outside the timed step: validation and surplus accounting.
    const std::size_t accepted = validate_round(exchange, rounds, ops);
    ops.bids_submitted += kHonest + submitted;
    for (std::size_t s = 0; s < kShards; ++s) {
      const fnda::Outcome* outcome = exchange.server(s).outcome_of(rounds[s]);
      if (outcome == nullptr) continue;
      const fnda::IdentityRegistry& registry = exchange.registry(s);
      for (const fnda::Fill& fill : outcome->fills()) {
        const std::int64_t value =
            value_of_account.at(registry.owner(fill.identity).value());
        realized += fill.side == Side::kBuyer ? value : -value;
      }
    }
    if (timed) stats.add_round(t0, t1, drive_ns, accepted, traced_round);
  }
  scheduler.join();
  if (trace) {
    probe.finish(exchange, last_rounds, kSessionRounds - kWarmupRounds, seed,
                 stats.layers);
  }

  const fnda::AttackSearchCounters& counters = scheduler.counters();
  if (telemetry) {
    search.warm_hits +=
        static_cast<double>(counters.warm_hits - counters_before.warm_hits);
    search.warm_seeded +=
        static_cast<double>(counters.warm_seeded - counters_before.warm_seeded);
    search.cold_runs +=
        static_cast<double>(counters.cold_runs - counters_before.cold_runs);
    search.wall_ms +=
        static_cast<double>(scheduler.search_wall_ns() - wall_before) / 1e6;
  }
  ops.searches_run += counters.searches;
  ops.searches_shed += counters.shed;

  // Theorem 1, live: under TPD no false-name plan gains.
  report.check(scheduler.planned_gain_total() == 0.0,
               "TPD attack plans gained " +
                   std::to_string(scheduler.planned_gain_total()));
  report.check(scheduler.profitable_searches() == 0,
               std::to_string(scheduler.profitable_searches()) +
                   " profitable searches under TPD");
  const std::int64_t efficient =
      efficient_per_round * static_cast<std::int64_t>(kSessionRounds);
  report.check(realized <= efficient,
               "realised surplus " + std::to_string(realized) +
                   " exceeds the efficient " + std::to_string(efficient));
  close_and_check(world, report, ops);
  return stats;
}

}  // namespace

Report run_attack_cosim(const RunOptions& options) {
  Report report;
  // Untraced runs: sessions until the time budget is spent.  Traced runs
  // alternate sessions with telemetry on (half their rounds traced, the
  // other half the overhead baseline) and off (the telemetry baseline).
  std::vector<SessionTimes> on;
  std::vector<SessionTimes> off;
  SearchTotals search;
  const std::uint64_t start = now_ns();
  for (std::uint64_t session = 0;; ++session) {
    const bool telemetry = !options.trace || session % 2 == 0;
    const std::uint64_t session_seed =
        SplitMix(options.seed * 0x100000001b3ull + session + 17).next();
    (telemetry ? on : off)
        .push_back(run_session(session_seed, telemetry, options.trace, report,
                               report.ops, search));
    if ((!options.trace || session >= 1) &&
        seconds_between(start, now_ns()) >= options.seconds) {
      break;
    }
  }
  report_exchange_run(on, off, options.trace, report);
  if (!options.trace) return report;

  report.set("market.drive_until_ms", median(span_ms("market.drive_until")),
             "ms");
  report.set("market.attack_plan_ms", median(span_ms("market.attack_plan")),
             "ms");
  report.set("market.attack_join_wait_ms",
             median(span_ms("market.attack_join")), "ms");
  report.set("market.attack_apply_ms", median(span_ms("market.attack_apply")),
             "ms");
  // Per session of kSessionRounds - kWarmupRounds timed rounds.
  const double n = static_cast<double>(on.size());
  report.set("mechanism.warm_hits", search.warm_hits / n, "count");
  report.set("mechanism.warm_seeded", search.warm_seeded / n, "count");
  report.set("mechanism.cold_runs", search.cold_runs / n, "count");
  report.set("mechanism.search_wall_ms", search.wall_ms / n, "ms");
  return report;
}

}  // namespace perfbench
