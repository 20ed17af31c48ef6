// zi_exchange: 10,000 truthful zero-intelligence traders (values
// U[1,100], half buyers) on a 4-shard exchange driven by 2 threads, TPD at
// r = 50, telemetry at its default, a lossless bus.
//
// A run repeats sessions.  A session builds the exchange and its traders,
// plays kWarmupRounds rounds (set-up), then times kSessionRounds -
// kWarmupRounds rounds, each from open_rounds to the settled close of
// drive_to_quiescence.  Every round of every shard is checked against
// TPD's closed form on the values the benchmark drew.
#include <string>

#include "exchange_world.h"
#include "protocols/tpd.h"
#include "workloads.h"

namespace perfbench {
namespace {

using fnda::Money;
using fnda::Side;

constexpr std::size_t kTraders = 10'000;
constexpr std::size_t kShards = 4;
constexpr std::size_t kThreads = 2;
constexpr std::size_t kWarmupRounds = 3;
constexpr std::size_t kSessionRounds = 31;
constexpr std::int64_t kThresholdUnits = 50;

/// `trace`: trace a seeded half of the timed rounds and probe the core and
/// protocols layers after the last one.
SessionTimes run_session(std::uint64_t seed, bool telemetry, bool trace,
                         Report& report, OpCounts& ops) {
  const fnda::TpdProtocol tpd(Money::from_units(kThresholdUnits));
  SessionTimes stats;
  const std::uint64_t setup_start = now_ns();

  ExchangeSpec spec;
  spec.shards = kShards;
  spec.threads = kThreads;
  spec.rounds = kSessionRounds;
  spec.seed = seed;
  spec.telemetry = telemetry;
  ExchangeWorld world = build_exchange(tpd, spec);
  fnda::MultiServerExchange& exchange = *world.exchange;
  SplitMix values(seed ^ 0x21e7c4a9ull);
  for (std::size_t i = 0; i < kTraders; ++i) {
    world.add_trader(i % 2 == 0 ? Side::kBuyer : Side::kSeller,
                     values.uniform(1, 100), true);
  }

  std::vector<TpdClosedForm> expected;
  for (std::size_t s = 0; s < kShards; ++s) {
    expected.push_back(tpd_closed_form(world.honest_buyers[s],
                                       world.honest_sellers[s],
                                       kThresholdUnits * kMicros));
  }

  SplitMix coin(seed ^ 0x7acedull);
  LayerProbe probe;
  std::vector<fnda::RoundId> rounds;
  for (std::size_t r = 0; r < kSessionRounds; ++r) {
    const bool timed = r >= kWarmupRounds;
    if (r == kWarmupRounds) {
      stats.setup_s = seconds_between(setup_start, now_ns());
      probe.start(exchange);
    }
    const bool traced_round = timed && trace && (coin.next() & 1) != 0;
    Tracer::instance().set_enabled(traced_round);
    std::uint64_t t0 = 0;
    std::uint64_t t1 = 0;
    std::uint64_t t2 = 0;
    {
      Span round("bench.round");
      t0 = now_ns();
      {
        Span span("market.open_rounds");
        rounds = exchange.open_rounds(fnda::SimTime::millis(100));
      }
      t1 = now_ns();
      {
        Span span("market.drive_to_quiescence");
        exchange.drive_to_quiescence();
      }
      t2 = now_ns();
    }
    Tracer::instance().set_enabled(false);

    // Outside the timed step: validation and the closed-form check.
    const std::size_t accepted = validate_round(exchange, rounds, ops);
    ops.bids_submitted += kTraders;
    for (std::size_t s = 0; s < kShards; ++s) {
      const fnda::Outcome* outcome = exchange.server(s).outcome_of(rounds[s]);
      if (outcome == nullptr) continue;
      bool ok = outcome->trade_count() == expected[s].trades;
      for (const fnda::Fill& fill : outcome->fills()) {
        ok = ok && fill.price.micros() == (fill.side == Side::kBuyer
                                               ? expected[s].buyer_price
                                               : expected[s].seller_price);
      }
      report.check(ok, "shard " + std::to_string(s) + " round " +
                           std::to_string(r) +
                           ": outcome differs from TPD's closed form");
    }
    report.check(accepted == kTraders,
                 "round " + std::to_string(r) + " accepted " +
                     std::to_string(accepted) + " of " +
                     std::to_string(kTraders) + " bids");
    if (timed) stats.add_round(t0, t2, t2 - t1, accepted, traced_round);
  }
  if (trace) {
    probe.finish(exchange, rounds, kSessionRounds - kWarmupRounds, seed,
                 stats.layers);
  }

  std::size_t client_accepted = 0;
  for (const fnda::TradingClient* trader : world.traders) {
    client_accepted += trader->bids_accepted();
  }
  report.check(client_accepted == kTraders * kSessionRounds,
               "clients saw " + std::to_string(client_accepted) +
                   " accepted bids, expected " +
                   std::to_string(kTraders * kSessionRounds));
  close_and_check(world, report, ops);
  return stats;
}

}  // namespace

Report run_zi_exchange(const RunOptions& options) {
  Report report;
  const std::string example_check = check_closed_form_on_paper_examples();
  report.check(example_check.empty(), example_check);

  // Untraced runs: sessions until the time budget is spent and at least
  // 100 rounds are timed (a p90 needs 10 beyond it).  Traced runs alternate
  // sessions with telemetry on (half their rounds traced, the other half the
  // overhead baseline) and off (the telemetry baseline, untraced).
  std::vector<SessionTimes> on;
  std::vector<SessionTimes> off;
  const std::uint64_t start = now_ns();
  std::size_t timed_rounds = 0;
  for (std::uint64_t session = 0;; ++session) {
    const bool telemetry = !options.trace || session % 2 == 0;
    const std::uint64_t session_seed =
        SplitMix(options.seed * 0x100000001b3ull + session).next();
    (telemetry ? on : off)
        .push_back(run_session(session_seed, telemetry, options.trace, report,
                               report.ops));
    if (telemetry) timed_rounds += kSessionRounds - kWarmupRounds;
    const bool enough = timed_rounds >= 100 && (!options.trace || session >= 1);
    if (enough && seconds_between(start, now_ns()) >= options.seconds) break;
  }

  report_exchange_run(on, off, options.trace, report);
  if (!options.trace) return report;

  // Where the history-growth spikes fall: each timed round's median over
  // the telemetry-on sessions.
  std::string rounds_line = "round_p50_ms by round, from round " +
                            std::to_string(kWarmupRounds + 1) + ":";
  for (std::size_t r = 0; r < kSessionRounds - kWarmupRounds; ++r) {
    std::vector<double> at_r;
    for (const SessionTimes& s : on) at_r.push_back(s.round_ms[r]);
    rounds_line += " " + std::to_string(median(at_r)).substr(0, 5);
  }
  report.note(rounds_line);
  return report;
}

}  // namespace perfbench
