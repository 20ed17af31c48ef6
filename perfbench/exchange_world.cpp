#include "exchange_world.h"

#include <algorithm>
#include <string>

#include "core/live_book.h"
#include "core/validation.h"
#include "protocols/pmd.h"

namespace perfbench {

using fnda::Money;
using fnda::Side;

fnda::TradingClient& ExchangeWorld::add_trader(Side role,
                                               std::int64_t value_units,
                                               bool honest) {
  fnda::TradingClient& trader =
      exchange->add_trader(role, Money::from_units(value_units));
  cash_granted_micros += exchange->config().initial_cash.micros();
  if (role == Side::kSeller) {
    ++goods_granted;
    if (rounds > 1) {
      exchange->grant_goods(trader.account(), rounds - 1);
      goods_granted += rounds - 1;
    }
  }
  if (honest) {
    const std::size_t shard = exchange->shard_of(trader.account());
    (role == Side::kBuyer ? honest_buyers : honest_sellers)[shard].push_back(
        value_units * kMicros);
  }
  traders.push_back(&trader);
  return trader;
}

ExchangeWorld build_exchange(const fnda::DoubleAuctionProtocol& protocol,
                             const ExchangeSpec& spec) {
  fnda::MultiExchangeConfig config;
  config.shards = spec.shards;
  config.threads = spec.threads;
  config.server.domain =
      fnda::ValueDomain{Money::from_units(0), Money::from_units(100)};
  // Round r's ranked book must survive while round r + 1 completes.
  config.server.retained_rounds = 2;
  // One deposit per declaration per round; never let escrow overdraw.
  config.initial_cash = Money::from_units(
      static_cast<std::int64_t>((spec.rounds + 1) * 10 *
                                (spec.max_declarations + 1)) +
      1'000);
  config.seed = spec.seed;
  config.telemetry.enabled = spec.telemetry;

  ExchangeWorld world;
  world.exchange =
      std::make_unique<fnda::MultiServerExchange>(protocol, config);
  world.rounds = spec.rounds;
  world.honest_buyers.resize(world.exchange->shard_count());
  world.honest_sellers.resize(world.exchange->shard_count());
  return world;
}

std::size_t validate_round(const fnda::MultiServerExchange& exchange,
                           const std::vector<fnda::RoundId>& rounds,
                           OpCounts& ops) {
  std::size_t accepted = 0;
  for (std::size_t s = 0; s < rounds.size(); ++s) {
    const fnda::AuctionServer& server = exchange.server(s);
    const fnda::Outcome* outcome = server.outcome_of(rounds[s]);
    const fnda::SortedBook* book = server.ranked_of(rounds[s]);
    ++ops.clearings_run;
    if (outcome == nullptr || book == nullptr ||
        !fnda::validate_outcome(*book, *outcome).empty()) {
      ++ops.clearings_invalid;
      continue;
    }
    accepted += book->buyer_count() + book->seller_count();
  }
  return accepted;
}

namespace {

void probe_live_book(const fnda::SortedBook& ranked, std::uint64_t seed,
                     LayerSample& out) {
  struct Decl {
    Side side;
    fnda::IdentityId identity;
    Money value;
  };
  std::vector<Decl> decls;
  for (const fnda::BidEntry& e : ranked.buyers()) {
    decls.push_back({Side::kBuyer, e.identity, e.value});
  }
  for (const fnda::BidEntry& e : ranked.sellers()) {
    decls.push_back({Side::kSeller, e.identity, e.value});
  }
  SplitMix shuffle(seed);
  std::vector<double> add_ns;
  std::vector<double> finalize_us;
  fnda::LiveBook book(ranked.domain());
  for (int rep = 0; rep < 9; ++rep) {
    for (std::size_t k = decls.size(); k > 1; --k) {
      std::swap(decls[k - 1], decls[shuffle.next() % k]);
    }
    book.reset(ranked.domain());
    const std::uint64_t t0 = now_ns();
    for (const Decl& d : decls) book.add(d.side, d.identity, d.value);
    const std::uint64_t t1 = now_ns();
    fnda::Rng rng(seed + static_cast<std::uint64_t>(rep));
    book.finalize_ties(rng);
    const std::uint64_t t2 = now_ns();
    add_ns.push_back(static_cast<double>(t1 - t0) /
                     static_cast<double>(decls.size()));
    finalize_us.push_back(static_cast<double>(t2 - t1) / 1e3);
  }
  out.live_book_add_ns = median(add_ns);
  out.finalize_ties_us = median(finalize_us);
}

/// Times clear_sorted on a retained book; returns the trade count.
std::size_t probe_clear(const fnda::SortedBook& ranked,
                        const fnda::DoubleAuctionProtocol& protocol,
                        std::vector<double>& out_us) {
  fnda::Rng rng(1);
  std::size_t trades = 0;
  for (int rep = 0; rep < 25; ++rep) {
    const std::uint64_t t0 = now_ns();
    const fnda::Outcome outcome = protocol.clear_sorted(ranked, rng);
    out_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    trades = outcome.trade_count();
  }
  return trades;
}

}  // namespace

void LayerProbe::start(const fnda::MultiServerExchange& exchange) {
  bus_ = exchange.bus_stats();
  epoch_ = exchange.epoch_totals();
  rss_mb_ = current_rss_mb();
}

void LayerProbe::finish(const fnda::MultiServerExchange& exchange,
                        const std::vector<fnda::RoundId>& rounds,
                        std::size_t timed_rounds, std::uint64_t seed,
                        LayerSample& out) const {
  out.rounds = timed_rounds;
  out.delivered = exchange.bus_stats().delivered - bus_.delivered;
  out.barriers = exchange.epoch_totals().barriers - epoch_.barriers;
  out.rss_mb_per_round =
      (current_rss_mb() - rss_mb_) / static_cast<double>(timed_rounds);
  std::size_t max_delivered = 0;
  double sum_delivered = 0.0;
  const std::vector<fnda::BusStats> shards = exchange.shard_bus_stats();
  for (const fnda::BusStats& shard : shards) {
    max_delivered = std::max(max_delivered, shard.delivered);
    sum_delivered += static_cast<double>(shard.delivered);
  }
  out.shard_skew = static_cast<double>(max_delivered) /
                   (sum_delivered / static_cast<double>(shards.size()));
  const fnda::LiveBookStats book = exchange.book_stats();
  out.entries_shifted_per_insert =
      static_cast<double>(book.entries_shifted) /
      static_cast<double>(std::max<std::uint64_t>(book.inserts, 1));
  out.sorts_at_close = static_cast<double>(book.sorts_at_close);
  const fnda::PmdProtocol pmd;
  for (std::size_t s = 0; s < rounds.size(); ++s) {
    const fnda::SortedBook* ranked = exchange.server(s).ranked_of(rounds[s]);
    if (ranked == nullptr) continue;
    const fnda::Outcome* stored = exchange.server(s).outcome_of(rounds[s]);
    if (stored == nullptr ||
        probe_clear(*ranked, exchange.protocol(), out.tpd_clear_us) !=
            stored->trade_count() ||
        probe_clear(*ranked, pmd, out.pmd_clear_us) >
            std::min(ranked->buyer_count(), ranked->seller_count())) {
      ++out.probe_mismatches;
    }
    if (s == 0) probe_live_book(*ranked, seed, out);
  }
}

void SessionTimes::add_round(std::uint64_t start_ns, std::uint64_t end_ns,
                             std::uint64_t drive_ns, std::size_t accepted,
                             bool traced) {
  const double ms = static_cast<double>(end_ns - start_ns) / 1e6;
  round_ms.push_back(ms);
  (traced ? traced_round_ms : untraced_round_ms).push_back(ms);
  timed_s += seconds_between(start_ns, end_ns);
  bids_accepted += accepted;
  layers.drive_ns += static_cast<double>(drive_ns);
  layers.bids += accepted;
}

namespace {

void report_exchange_layers(const std::vector<LayerSample>& samples,
                            Report& report) {
  double drive_ns = 0.0;
  double delivered = 0.0;
  double bids = 0.0;
  double barriers = 0.0;
  double rounds = 0.0;
  std::size_t mismatches = 0;
  std::vector<double> skew, add_ns, finalize_us, shifted, sorts, tpd_us,
      pmd_us;
  for (const LayerSample& s : samples) {
    drive_ns += s.drive_ns;
    delivered += static_cast<double>(s.delivered);
    bids += static_cast<double>(s.bids);
    barriers += static_cast<double>(s.barriers);
    rounds += static_cast<double>(s.rounds);
    mismatches += s.probe_mismatches;
    skew.push_back(s.shard_skew);
    add_ns.push_back(s.live_book_add_ns);
    finalize_us.push_back(s.finalize_ties_us);
    shifted.push_back(s.entries_shifted_per_insert);
    sorts.push_back(s.sorts_at_close);
    append(tpd_us, s.tpd_clear_us);
    append(pmd_us, s.pmd_clear_us);
  }
  report.set("market.ns_per_msg", drive_ns / delivered, "ns");
  report.set("market.msgs_per_bid", delivered / bids, "count");
  report.set("market.epoch_barriers_per_round", barriers / rounds, "count");
  report.set("market.shard_skew", median(skew), "ratio");
  // Only a process's first session grows its resident set; later ones
  // reuse the heap the earlier ones freed.
  report.set("market.rss_mb_per_round", samples.front().rss_mb_per_round,
             "MB");
  report.set("core.live_book_add_ns", median(add_ns), "ns");
  report.set("core.finalize_ties_us", median(finalize_us), "us");
  report.set("core.entries_shifted_per_insert", median(shifted), "count");
  report.set("core.sorts_at_close", median(sorts), "count");
  report.set("protocols.tpd_clear_us", median(tpd_us), "us");
  report.set("protocols.pmd_clear_us", median(pmd_us), "us");
  report.check(mismatches == 0,
               "re-clearing a retained book disagrees with its round");
}

}  // namespace

void report_exchange_run(const std::vector<SessionTimes>& on,
                         const std::vector<SessionTimes>& off, bool trace,
                         Report& report) {
  std::vector<double> setup, round_ms, traced_ms, untraced_ms, off_ms;
  std::vector<LayerSample> layers;
  double bids = 0.0;
  double seconds = 0.0;
  for (const SessionTimes& s : on) {
    setup.push_back(s.setup_s);
    append(round_ms, s.round_ms);
    append(traced_ms, s.traced_round_ms);
    append(untraced_ms, s.untraced_round_ms);
    layers.push_back(s.layers);
    bids += static_cast<double>(s.bids_accepted);
    seconds += s.timed_s;
  }
  if (!trace) {
    report_end_to_end(setup, bids, seconds, round_ms, report);
    return;
  }
  for (const SessionTimes& s : off) append(off_ms, s.round_ms);
  report_exchange_layers(layers, report);
  report.set("market.open_rounds_ms", median(span_ms("market.open_rounds")),
             "ms");
  report.set("market.drive_ms", median(span_ms("market.drive_to_quiescence")),
             "ms");
  report.set("trace.overhead", median(traced_ms) / median(untraced_ms) - 1.0,
             "share");
  // Share of an untraced round's time that telemetry costs.
  report.set("obs.telemetry_share", 1.0 - median(off_ms) / median(untraced_ms),
             "share");
  report.set("bench.step_p90_ms",
             percentile_checked(round_ms, 90, "round", report), "ms");
  report_self_time("bench.round", report);
}

void close_and_check(ExchangeWorld& world, Report& report, OpCounts& ops) {
  fnda::MultiServerExchange& exchange = *world.exchange;
  for (const fnda::TradingClient* trader : world.traders) {
    ops.bids_rejected += trader->bids_rejected();
  }
  const fnda::BusStats bus = exchange.bus_stats();
  ops.messages_sent += bus.sent;
  ops.messages_dropped += bus.dropped;
  ops.messages_dead_lettered += bus.dead_lettered;
  report.check(bus.sent == bus.delivered + bus.dropped + bus.dead_lettered -
                               bus.duplicated,
               "bus conservation: sent != delivered + dropped + dead-lettered"
               " - duplicated");

  exchange.close_market();
  // Deposits live in the cash ledger (escrow is a pseudo-account), so the
  // ledger total is cash plus escrow.
  report.check(exchange.cash_total().micros() == world.cash_granted_micros,
               "cash plus escrow not conserved: " +
                   std::to_string(exchange.cash_total().micros()) + " vs " +
                   std::to_string(world.cash_granted_micros));
  report.check(exchange.goods_total() == world.goods_granted,
               "goods not conserved: " +
                   std::to_string(exchange.goods_total()) + " vs " +
                   std::to_string(world.goods_granted));
  report.check(exchange.escrow_total_held().micros() == 0,
               "escrow not empty after close_market");
  report.check(exchange.book_stats().sorts_at_close == 0,
               "LiveBook sorted at round close");
}

}  // namespace perfbench
