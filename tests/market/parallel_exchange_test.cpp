// Regression tests for the multi-threaded sharded exchange.
//
// The contract under test: the parallel engine's output is a pure
// function of (config, seed) — bit-identical for every worker-thread
// count, equal to the pre-change engines at equal seeds — bounded drives
// stop each shard exactly at its bound, and a throwing handler propagates
// cleanly without poisoning the next drive.
#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "market/exchange.h"
#include "market/multi_exchange.h"
#include "market/throughput.h"
#include "protocols/tpd.h"

namespace fnda {
namespace {

Money money(std::int64_t units) { return Money::from_units(units); }

// ---------------------------------------------------------------------------
// Golden digests of the PRE-CHANGE shared-queue MultiServerExchange
// (captured from the engine as of the previous commit, seed 42, 4 shards,
// 120 traders, 3 rounds, jitter 0).  Identity *numbering* changed with
// per-shard strided registries, so the digest covers everything
// account-level and aggregate: trades, revenue, the fill price/side
// sequence, bus totals, audit counts, ledger totals, and the clock.

struct GoldenRound {
  std::size_t trades;
  std::int64_t revenue_micros;
  std::uint64_t price_hash;
};

constexpr GoldenRound kGoldenRounds[4] = {
    {10u, 260000000ll, 9284622164738206275ull},
    {11u, 44000000ll, 16415840471058883043ull},
    {7u, 238000000ll, 1969116543166298083ull},
    {13u, 52000000ll, 7248508972865565475ull},
};

MultiServerExchange make_golden_exchange(const TpdProtocol& tpd,
                                         std::size_t threads) {
  MultiExchangeConfig config;
  config.shards = 4;
  config.threads = threads;
  config.seed = 42;
  config.bus.base_latency = SimTime{1000};
  config.bus.jitter = SimTime{0};
  config.server.domain = ValueDomain{money(0), money(100)};
  MultiServerExchange exchange(tpd, config);
  for (std::size_t i = 0; i < 120; ++i) {
    const Side role = (i % 2 == 0) ? Side::kBuyer : Side::kSeller;
    const Money value =
        money(role == Side::kBuyer
                  ? 40 + static_cast<std::int64_t>((i * 7) % 60)
                  : 1 + static_cast<std::int64_t>((i * 5) % 50));
    TradingClient& trader = exchange.add_trader(role, value);
    if (role == Side::kSeller) exchange.grant_goods(trader.account(), 2);
  }
  return exchange;
}

std::uint64_t fill_hash(const Outcome& outcome) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const Fill& fill : outcome.fills()) {
    hash ^= static_cast<std::uint64_t>(fill.price.micros()) * 31 +
            (fill.side == Side::kBuyer ? 17 : 71);
    hash *= 1099511628211ull;
  }
  return hash;
}

// The digest must hold for every worker count.
class GoldenDigestTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GoldenDigestTest, MatchesPreChangeEngine) {
  const std::size_t threads = GetParam();
  const TpdProtocol tpd(money(50));
  MultiServerExchange exchange = make_golden_exchange(tpd, threads);

  for (std::size_t r = 0; r < 3; ++r) {
    const std::vector<RoundId> rounds = exchange.run_round();
    for (std::size_t s = 0; s < 4; ++s) {
      const Outcome* outcome = exchange.server(s).outcome_of(rounds[s]);
      ASSERT_NE(outcome, nullptr) << "round " << r << " shard " << s;
      EXPECT_EQ(outcome->trade_count(), kGoldenRounds[s].trades);
      EXPECT_EQ(outcome->auctioneer_revenue().micros(),
                kGoldenRounds[s].revenue_micros);
      EXPECT_EQ(fill_hash(*outcome), kGoldenRounds[s].price_hash);
    }
  }

  std::size_t accepted = 0;
  for (const auto& trader : exchange.traders()) {
    accepted += trader->bids_accepted();
    EXPECT_EQ(trader->bids_rejected(), 0u);
  }
  EXPECT_EQ(accepted, 360u);

  const BusStats bus = exchange.bus_stats();
  EXPECT_EQ(bus.sent, 1686u);
  EXPECT_EQ(bus.delivered, 1686u);
  EXPECT_EQ(bus.duplicated, 0u);
  EXPECT_EQ(bus.dropped, 0u);
  EXPECT_EQ(bus.dead_lettered, 0u);
  EXPECT_EQ(exchange.now(), SimTime{303000});

  EXPECT_EQ(exchange.merged_audit().size(), 507u);
  EXPECT_EQ(exchange.audit_count(AuditKind::kRoundOpened), 12u);
  EXPECT_EQ(exchange.audit_count(AuditKind::kBidAccepted), 360u);
  EXPECT_EQ(exchange.audit_count(AuditKind::kRoundCleared), 12u);
  EXPECT_EQ(exchange.audit_count(AuditKind::kDelivery), 123u);
  EXPECT_EQ(exchange.audit_count(AuditKind::kDeliveryFailed), 0u);
  EXPECT_EQ(exchange.audit_count(AuditKind::kDepositConfiscated), 0u);

  EXPECT_EQ(exchange.cash_balance(AccountId{0}), Money::from_micros(1782000000));
  EXPECT_EQ(exchange.cash_total(), Money::from_micros(120000000000ll));
  EXPECT_EQ(exchange.goods_total(), 180u);
  EXPECT_EQ(exchange.escrow_total_held(), Money::from_micros(3600000000ll));
  EXPECT_EQ(exchange.close_market(), Money::from_micros(3600000000ll));
}

// threads > shards exercises the clamp; the engine must not care.
INSTANTIATE_TEST_SUITE_P(ThreadCounts, GoldenDigestTest,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{8}));

// ---------------------------------------------------------------------------
// Full bit-identity across thread counts, on a lossy/jittery bus so every
// RNG stream is consulted.  The digest is exhaustive: fill sequences with
// identity ids, the merged audit dump (exact strings, exact order),
// per-shard BusStats, and per-trader counters.

struct SessionDigest {
  std::vector<std::string> audit_dump;
  std::vector<std::tuple<std::uint64_t, std::int64_t, int>> fills;
  std::vector<std::size_t> shard_delivered;
  std::vector<std::size_t> shard_dead_lettered;
  std::vector<std::size_t> shard_dropped;
  std::vector<std::size_t> shard_sent;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t retransmissions = 0;
  std::int64_t exchange_cash = 0;
  std::int64_t refunded = 0;
  std::int64_t now = 0;

  bool operator==(const SessionDigest&) const = default;
};

/// Digests a finished session: `rounds` are the per-round shard ids it
/// ran; closes the market.
SessionDigest digest_session(MultiServerExchange& exchange,
                             const std::vector<std::vector<RoundId>>& rounds) {
  SessionDigest digest;
  for (const std::vector<RoundId>& round : rounds) {
    for (std::size_t s = 0; s < round.size(); ++s) {
      if (const Outcome* outcome = exchange.server(s).outcome_of(round[s])) {
        for (const Fill& fill : outcome->fills()) {
          digest.fills.emplace_back(fill.identity.value(),
                                    fill.price.micros(),
                                    fill.side == Side::kBuyer ? 1 : 0);
        }
      }
    }
  }
  for (const AuditRecord& record : exchange.merged_audit()) {
    digest.audit_dump.push_back(std::to_string(record.at.micros) + "|" +
                                std::to_string(record.round.value()) + "|" +
                                to_string(record.kind) + "|" + record.detail);
  }
  for (const BusStats& stats : exchange.shard_bus_stats()) {
    digest.shard_delivered.push_back(stats.delivered);
    digest.shard_dead_lettered.push_back(stats.dead_lettered);
    digest.shard_dropped.push_back(stats.dropped);
    digest.shard_sent.push_back(stats.sent);
  }
  for (const auto& trader : exchange.traders()) {
    digest.accepted += trader->bids_accepted();
    digest.rejected += trader->bids_rejected();
    digest.retransmissions += trader->retransmissions();
  }
  digest.exchange_cash = exchange.cash_balance(AccountId{0}).micros();
  digest.now = exchange.now().micros;
  digest.refunded = exchange.close_market().micros();
  return digest;
}

MultiServerExchange make_lossy_exchange(const TpdProtocol& tpd,
                                        std::size_t threads) {
  MultiExchangeConfig config;
  config.shards = 4;
  config.threads = threads;
  config.seed = 1234;
  config.bus.jitter = SimTime{500};
  config.bus.drop_probability = 0.02;
  config.bus.duplicate_probability = 0.02;
  config.client.retry_interval = SimTime::millis(20);
  config.server.domain = ValueDomain{money(0), money(100)};
  config.server.announce_interval = SimTime::millis(25);
  MultiServerExchange exchange(tpd, config);

  for (std::size_t i = 0; i < 160; ++i) {
    const Side role = (i % 2 == 0) ? Side::kBuyer : Side::kSeller;
    const Money value =
        money(role == Side::kBuyer
                  ? 30 + static_cast<std::int64_t>((i * 11) % 70)
                  : 1 + static_cast<std::int64_t>((i * 13) % 60));
    TradingClient& trader = exchange.add_trader(role, value);
    if (role == Side::kSeller) exchange.grant_goods(trader.account(), 3);
  }
  return exchange;
}

SessionDigest run_lossy_session(std::size_t threads) {
  const TpdProtocol tpd(money(50));
  MultiServerExchange exchange = make_lossy_exchange(tpd, threads);
  std::vector<std::vector<RoundId>> rounds;
  for (std::size_t r = 0; r < 4; ++r) rounds.push_back(exchange.run_round());
  const SessionDigest digest = digest_session(exchange, rounds);

  // Merged conservation must hold no matter what the bus dropped/duped.
  const BusStats bus = exchange.bus_stats();
  EXPECT_EQ(bus.sent + bus.duplicated,
            bus.delivered + bus.dropped + bus.dead_lettered);
  EXPECT_GT(digest.accepted, 0u);
  return digest;
}

TEST(ParallelExchangeTest, LossySessionBitIdenticalAcrossThreadCounts) {
  const SessionDigest one = run_lossy_session(1);
  const SessionDigest two = run_lossy_session(2);
  const SessionDigest eight = run_lossy_session(8);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

TEST(ParallelExchangeTest, ThroughputSessionIdenticalAcrossThreadCounts) {
  // The absolute values are golden: captured from the sort-at-close
  // engine before the incremental LiveBook replaced it.  The live path
  // must reproduce them bit for bit at every thread count.
  const TpdProtocol tpd(money(50));
  ThroughputConfig config;
  config.clients = 400;
  config.rounds = 3;
  config.shards = 4;
  config.jitter = SimTime{500};
  config.drop_probability = 0.01;
  config.seed = 7;

  ThroughputResult base;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    config.threads = threads;
    const ThroughputResult result = run_throughput_session(tpd, config);

    EXPECT_EQ(result.bids_accepted, 1169u) << "threads=" << threads;
    EXPECT_EQ(result.trades, 291u) << "threads=" << threads;
    EXPECT_EQ(result.sim_time, SimTime{304493}) << "threads=" << threads;
    EXPECT_EQ(result.bus.sent, 5355u) << "threads=" << threads;
    EXPECT_EQ(result.bus.delivered, 5306u) << "threads=" << threads;
    EXPECT_EQ(result.bus.dropped, 49u) << "threads=" << threads;
    EXPECT_EQ(result.bus.duplicated, 0u) << "threads=" << threads;

    // The incremental engine inserted every server-accepted bid (more
    // than the client-side ack count: the lossy bus dropped 14 acks),
    // finalized each shard's round, and never sorted at close.
    EXPECT_EQ(result.book.inserts, 1183u);
    EXPECT_EQ(result.book.rounds_finalized,
              config.rounds * config.shards);
    EXPECT_EQ(result.book.sorts_at_close, 0u);

    if (threads == 1u) {
      base = result;
      continue;
    }
    EXPECT_EQ(result.book.entries_shifted, base.book.entries_shifted);
    EXPECT_EQ(result.book.chunk_splits, base.book.chunk_splits);
    EXPECT_EQ(result.book.tie_entries_permuted,
              base.book.tie_entries_permuted);
    ASSERT_EQ(result.shard_bus.size(), base.shard_bus.size());
    for (std::size_t s = 0; s < base.shard_bus.size(); ++s) {
      EXPECT_EQ(result.shard_bus[s].sent, base.shard_bus[s].sent);
      EXPECT_EQ(result.shard_bus[s].delivered, base.shard_bus[s].delivered);
    }
  }
}

// ---------------------------------------------------------------------------
// shards == 1 must reproduce the single-server ExchangeSimulation output
// exactly — same RNG streams, same message ids, same audit dump — even on
// a lossy, jittery bus.

TEST(ParallelExchangeTest, SingleShardMatchesExchangeSimulation) {
  const TpdProtocol tpd(money(50));

  BusConfig bus;
  bus.jitter = SimTime{500};
  bus.drop_probability = 0.05;
  bus.duplicate_probability = 0.05;

  ExchangeConfig single;
  single.bus = bus;
  single.seed = 99;
  single.client.retry_interval = SimTime::millis(20);
  single.server.domain = ValueDomain{money(0), money(100)};
  ExchangeSimulation expected(tpd, single);

  MultiExchangeConfig sharded;
  sharded.shards = 1;
  sharded.threads = 1;
  sharded.bus = bus;
  sharded.seed = 99;
  sharded.client.retry_interval = SimTime::millis(20);
  sharded.server.domain = ValueDomain{money(0), money(100)};
  MultiServerExchange actual(tpd, sharded);

  for (std::size_t i = 0; i < 60; ++i) {
    const Side role = (i % 2 == 0) ? Side::kBuyer : Side::kSeller;
    const Money value = money(role == Side::kBuyer
                                  ? 45 + static_cast<std::int64_t>(i % 50)
                                  : 1 + static_cast<std::int64_t>(i % 40));
    expected.add_trader(role, value);
    actual.add_trader(role, value);
  }

  for (std::size_t r = 0; r < 3; ++r) {
    const RoundId expected_round = expected.run_round();
    const std::vector<RoundId> actual_rounds = actual.run_round();
    ASSERT_EQ(actual_rounds.size(), 1u);
    EXPECT_EQ(actual_rounds[0], expected_round);
  }

  EXPECT_EQ(actual.now(), expected.queue().now());
  const BusStats& want = expected.bus().stats();
  const BusStats got = actual.bus_stats();
  EXPECT_EQ(got.sent, want.sent);
  EXPECT_EQ(got.delivered, want.delivered);
  EXPECT_EQ(got.duplicated, want.duplicated);
  EXPECT_EQ(got.dropped, want.dropped);
  EXPECT_EQ(got.dead_lettered, want.dead_lettered);

  // The audit logs must match line for line — timestamps, identity ids,
  // amounts, order.
  EXPECT_EQ(actual.audit(0).dump(), expected.audit().dump());
  EXPECT_EQ(actual.close_market(), expected.close_market());
}

// ---------------------------------------------------------------------------
// Bounded drives: shard s executes only events strictly before bounds[s],
// the rest stay queued, and finishing the round afterwards is
// indistinguishable from having driven it unbounded.

TEST(ParallelExchangeTest, BoundedDriveStopsAtEachShardBound) {
  const TpdProtocol tpd(money(50));
  const SessionDigest reference = run_lossy_session(1);
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    MultiServerExchange exchange = make_lossy_exchange(tpd, threads);
    std::vector<std::vector<RoundId>> rounds;
    for (std::size_t r = 0; r < 4; ++r) {
      rounds.push_back(exchange.open_rounds(SimTime::millis(100)));
      // A different bound per shard, inside the round, with one marker
      // event just before it and one exactly on it.
      std::vector<SimTime> bounds;
      std::vector<int> before(exchange.shard_count(), 0);
      std::vector<int> at(exchange.shard_count(), 0);
      for (std::size_t s = 0; s < exchange.shard_count(); ++s) {
        const SimTime bound =
            *exchange.server(s).round_closes_at() -
            SimTime::millis(10 * static_cast<std::int64_t>(s + 1));
        bounds.push_back(bound);
        exchange.queue(s).schedule_at(bound - SimTime{1},
                                      [&before, s] { ++before[s]; });
        exchange.queue(s).schedule_at(bound, [&at, s] { ++at[s]; });
      }
      exchange.drive_until(bounds);
      for (std::size_t s = 0; s < exchange.shard_count(); ++s) {
        EXPECT_EQ(before[s], 1) << "threads=" << threads << " shard " << s;
        EXPECT_EQ(at[s], 0) << "threads=" << threads << " shard " << s;
        EXPECT_EQ(exchange.queue(s).now(), bounds[s] - SimTime{1});
        EXPECT_EQ(exchange.queue(s).next_time(), bounds[s]);
        EXPECT_TRUE(exchange.server(s).round_open());
      }
      exchange.drive_to_quiescence();
      for (std::size_t s = 0; s < exchange.shard_count(); ++s) {
        EXPECT_EQ(at[s], 1) << "threads=" << threads << " shard " << s;
      }
    }
    EXPECT_EQ(exchange.epoch_totals().barriers, 8u);
    EXPECT_EQ(digest_session(exchange, rounds), reference)
        << "threads=" << threads;
  }
}

TEST(ParallelExchangeTest, BoundedDriveNeedsOneBoundPerShard) {
  const TpdProtocol tpd(money(50));
  MultiServerExchange exchange = make_golden_exchange(tpd, 2);
  EXPECT_THROW(exchange.drive_until({SimTime{1}}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Failure: an exception inside one shard's endpoint stops that shard, lets
// every other shard finish its drive, and resurfaces on the driving
// thread; when several shards fail, the lowest-index failure wins.

struct ThrowingEndpoint : Endpoint {
  std::string what;
  void on_message(const Envelope&) override {
    throw std::runtime_error(what);
  }
};

struct CountingEndpoint : Endpoint {
  std::size_t received = 0;
  void on_message(const Envelope&) override { ++received; }
};

MultiExchangeConfig faulty_config(std::size_t threads) {
  MultiExchangeConfig config;
  config.shards = 4;
  config.threads = threads;
  config.seed = 9;
  config.server.domain = ValueDomain{money(0), money(100)};
  return config;
}

/// A 4-shard exchange with a counting endpoint on every shard and a
/// throwing one on shards 2 and 3.
struct FaultyExchange {
  static constexpr std::size_t kShards = 4;

  FaultyExchange(const TpdProtocol& tpd, std::size_t threads)
      : exchange(tpd, faulty_config(threads)) {
    for (std::size_t s = 0; s < kShards; ++s) {
      counter_ids[s] = exchange.bus(s).attach("counter", counters[s]);
    }
    for (const std::size_t s : {std::size_t{2}, std::size_t{3}}) {
      throwers[s].what = "shard " + std::to_string(s);
      thrower_ids[s] = exchange.bus(s).attach("thrower", throwers[s]);
    }
  }

  /// Every counter gets a message now and another one second later; the
  /// throwers get theirs 10 ms in, between the two.
  void load() {
    const RoundOpenMsg msg{RoundId{0}, SimTime{}};
    for (std::size_t s = 0; s < kShards; ++s) {
      MessageBus& bus = exchange.bus(s);
      EventQueue& queue = exchange.queue(s);
      const AddressId counter = counter_ids[s];
      bus.send(counter, counter, msg);
      if (s >= 2) {
        queue.schedule_at(queue.now() + SimTime::millis(10),
                          [&bus, counter, to = thrower_ids[s], msg] {
                            bus.send(counter, to, msg);
                          });
      }
      queue.schedule_at(queue.now() + SimTime::seconds(1),
                        [&bus, counter, msg] { bus.send(counter, counter, msg); });
    }
  }

  MultiServerExchange exchange;
  CountingEndpoint counters[kShards];
  AddressId counter_ids[kShards];
  ThrowingEndpoint throwers[kShards];
  AddressId thrower_ids[kShards];
};

TEST(ParallelExchangeTest, WorkerExceptionPropagatesCleanly) {
  const TpdProtocol tpd(money(50));
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    FaultyExchange faulty(tpd, threads);
    faulty.load();
    try {
      faulty.exchange.drive_to_quiescence();
      ADD_FAILURE() << "no exception at threads=" << threads;
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "shard 2") << "threads=" << threads;
    }
    // Healthy shards ran to quiescence; the failed ones stopped at the
    // throw and kept their later work queued.
    for (std::size_t s = 0; s < FaultyExchange::kShards; ++s) {
      const bool failed = s >= 2;
      EXPECT_EQ(faulty.counters[s].received, failed ? 1u : 2u)
          << "threads=" << threads << " shard " << s;
      EXPECT_EQ(faulty.exchange.queue(s).pending(), failed ? 1u : 0u)
          << "threads=" << threads << " shard " << s;
    }
  }
}

// A drive after a failed drive resumes the failed shards' queued work
// (without replaying the delivery that threw) and the exchange keeps
// trading: errors are per-drive state.
TEST(ParallelExchangeTest, DriverRecoversAfterFailure) {
  const TpdProtocol tpd(money(50));
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    FaultyExchange faulty(tpd, threads);
    MultiServerExchange& exchange = faulty.exchange;
    for (std::size_t i = 0; i < 40; ++i) {
      exchange.add_trader(i % 2 == 0 ? Side::kBuyer : Side::kSeller,
                          money(i % 2 == 0 ? 80 : 20));
    }
    faulty.load();
    EXPECT_THROW(exchange.drive_to_quiescence(), std::runtime_error);
    exchange.drive_to_quiescence();
    for (std::size_t s = 0; s < FaultyExchange::kShards; ++s) {
      EXPECT_EQ(faulty.counters[s].received, 2u)
          << "threads=" << threads << " shard " << s;
      EXPECT_EQ(exchange.queue(s).pending(), 0u);
    }
    const std::vector<RoundId> rounds = exchange.run_round();
    std::size_t trades = 0;
    for (std::size_t s = 0; s < rounds.size(); ++s) {
      const Outcome* outcome = exchange.server(s).outcome_of(rounds[s]);
      ASSERT_NE(outcome, nullptr) << "threads=" << threads << " shard " << s;
      trades += outcome->trade_count();
    }
    EXPECT_GT(trades, 0u);
    EXPECT_EQ(exchange.epoch_totals().barriers, 3u);
  }
}

// ---------------------------------------------------------------------------
// Drive accounting: one join per drive, whatever the thread count.

TEST(ParallelExchangeTest, EpochStatsCountOneJoinPerDrive) {
  const TpdProtocol tpd(money(50));
  ThroughputConfig config;
  config.clients = 240;
  config.rounds = 3;
  config.shards = 4;
  config.seed = 5;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    config.threads = threads;
    const ThroughputResult result = run_throughput_session(tpd, config);
    EXPECT_EQ(result.epoch.barriers, config.rounds) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Thread-count validation at the session layer: 0 resolves to hardware
// concurrency clamped to shards; the exchange reports what it ran with.

TEST(ParallelExchangeTest, ThreadZeroResolvesToHardwareClampedToShards) {
  const TpdProtocol tpd(money(50));
  MultiExchangeConfig config;
  config.shards = 2;
  config.threads = 0;
  MultiServerExchange exchange(tpd, config);
  EXPECT_GE(exchange.thread_count(), 1u);
  EXPECT_LE(exchange.thread_count(), 2u);
}

}  // namespace
}  // namespace fnda
