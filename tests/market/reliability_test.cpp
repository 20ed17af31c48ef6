// Reliability features: idempotent bid resubmission at the server and
// at-least-once client retransmission over a lossy bus, plus the
// market-close refund sweep.
#include <gtest/gtest.h>

#include "market/exchange.h"
#include "protocols/tpd.h"

namespace fnda {
namespace {

TEST(ReliabilityTest, RetryRecoversFromHeavyLoss) {
  // 40% drop, retries on: with up to 6 retransmissions per bid spaced
  // well inside the round, every bid should land with overwhelming
  // probability (miss chance 0.4^7 ~ 0.16%).
  const TpdProtocol tpd(money(4.5));
  ExchangeConfig config;
  config.seed = 11;
  config.bus.drop_probability = 0.4;
  config.client.retry_interval = SimTime::millis(5);
  config.client.max_retries = 6;
  config.server.announce_interval = SimTime::millis(10);
  ExchangeSimulation exchange(tpd, config);
  exchange.add_trader(Side::kBuyer, money(9));
  exchange.add_trader(Side::kBuyer, money(7));
  exchange.add_trader(Side::kSeller, money(2));
  exchange.add_trader(Side::kSeller, money(3));

  const RoundId round = exchange.run_round(SimTime::millis(100));
  const Outcome* outcome = exchange.server().outcome_of(round);
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->trade_count(), 2u);

  std::size_t retransmissions = 0;
  for (const auto& trader : exchange.traders()) {
    retransmissions += trader->retransmissions();
  }
  EXPECT_GT(retransmissions, 0u) << "40% loss should force retries";
}

TEST(ReliabilityTest, WithoutRetriesLossDropsBids) {
  const TpdProtocol tpd(money(4.5));
  ExchangeConfig config;
  config.seed = 13;
  config.bus.drop_probability = 0.5;
  ExchangeSimulation exchange(tpd, config);
  for (int i = 0; i < 6; ++i) {
    exchange.add_trader(Side::kBuyer, money(90));
    exchange.add_trader(Side::kSeller, money(2));
  }
  const RoundId round = exchange.run_round();
  // With 50% loss and no retries, it is overwhelmingly unlikely that all
  // 12 bids arrive.
  const auto* outcome = exchange.server().outcome_of(round);
  ASSERT_NE(outcome, nullptr);
  std::size_t accepted = 0;
  for (const auto& trader : exchange.traders()) {
    accepted += trader->bids_accepted();
  }
  EXPECT_LT(accepted, 12u);
}

TEST(ReliabilityTest, DuplicatedTransportDoesNotDoubleCount) {
  const TpdProtocol tpd(money(4.5));
  ExchangeConfig config;
  config.seed = 17;
  config.bus.duplicate_probability = 1.0;  // every message duplicated
  ExchangeSimulation exchange(tpd, config);
  TradingClient& buyer = exchange.add_trader(Side::kBuyer, money(9));
  TradingClient& seller = exchange.add_trader(Side::kSeller, money(2));

  const RoundId round = exchange.run_round();
  const Outcome* outcome = exchange.server().outcome_of(round);
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->trade_count(), 1u);
  // Client-side dedup: one ack, one fill each despite duplication.
  EXPECT_EQ(buyer.bids_accepted(), 1u);
  EXPECT_EQ(buyer.fills().size(), 1u);
  EXPECT_EQ(seller.fills().size(), 1u);
  EXPECT_EQ(exchange.audit().count(AuditKind::kBidAccepted), 2u);
}

TEST(ReliabilityTest, RepeatedRoundAnnouncementsYieldOneBidPerRound) {
  // Heartbeats every 5 ms re-announce each 100 ms round ~20 times, and
  // the bus duplicates every message: each client still bids exactly
  // once per round, with one fresh identity per declaration.
  const TpdProtocol tpd(money(50));
  ExchangeConfig config;
  config.seed = 29;
  config.bus.duplicate_probability = 1.0;
  config.server.announce_interval = SimTime::millis(5);
  ExchangeSimulation exchange(tpd, config);
  TradingClient& buyer = exchange.add_trader(Side::kBuyer, money(80));
  TradingClient& seller = exchange.add_trader(Side::kSeller, money(20));
  for (int r = 0; r < 3; ++r) exchange.run_round(SimTime::millis(100));

  for (const TradingClient* client : {&buyer, &seller}) {
    EXPECT_EQ(client->rounds_seen(), 3u);
    EXPECT_EQ(client->identities().size(), 3u);
    EXPECT_EQ(client->bids_accepted(), 3u);
    EXPECT_EQ(client->bids_rejected(), 0u);
  }
  EXPECT_EQ(exchange.audit().count(AuditKind::kBidAccepted), 6u);
  EXPECT_EQ(exchange.audit().count(AuditKind::kBidRejected), 0u);
}

TEST(ReliabilityTest, BusyClientDeduplicatesEveryDuplicate) {
  // One account with 48 declarations receives far more messages per
  // round than its dedup window holds (acks, fills, heartbeats), every
  // one of them duplicated: each ack and fill is still counted once.
  const TpdProtocol tpd(money(50));
  ExchangeConfig config;
  config.seed = 31;
  config.bus.duplicate_probability = 1.0;
  config.server.announce_interval = SimTime::millis(10);
  ExchangeSimulation exchange(tpd, config);
  Strategy ring;
  for (int i = 0; i < 48; ++i) {
    ring.declarations.push_back(Declaration{Side::kBuyer, money(60 + i % 30)});
  }
  TradingClient& busy = exchange.add_trader(Side::kBuyer, money(90), ring);
  for (int i = 0; i < 40; ++i) {
    TradingClient& seller = exchange.add_trader(Side::kSeller, money(5 + i));
    exchange.goods().grant(seller.account(), 2);
  }
  std::size_t fills = 0;
  for (int r = 0; r < 2; ++r) {
    const RoundId round = exchange.run_round(SimTime::millis(100));
    const Outcome* outcome = exchange.server().outcome_of(round);
    ASSERT_NE(outcome, nullptr);
    for (const Fill& fill : outcome->fills()) {
      if (exchange.registry().owner(fill.identity) == busy.account()) ++fills;
    }
  }
  EXPECT_GT(fills, 0u);
  EXPECT_EQ(busy.bids_accepted(), 96u);
  EXPECT_EQ(busy.bids_rejected(), 0u);
  EXPECT_EQ(busy.fills().size(), fills);
}

TEST(ReliabilityTest, RetryWithLossAndDuplicationStaysExactlyOnce) {
  const TpdProtocol tpd(money(50));
  ExchangeConfig config;
  config.seed = 19;
  config.bus.drop_probability = 0.25;
  config.bus.duplicate_probability = 0.25;
  config.client.retry_interval = SimTime::millis(4);
  config.client.max_retries = 8;
  config.server.announce_interval = SimTime::millis(10);
  ExchangeSimulation exchange(tpd, config);
  for (int i = 0; i < 5; ++i) {
    exchange.add_trader(Side::kBuyer, money(80));
    exchange.add_trader(Side::kSeller, money(10));
  }
  const RoundId round = exchange.run_round(SimTime::millis(120));
  const Outcome* outcome = exchange.server().outcome_of(round);
  ASSERT_NE(outcome, nullptr);
  // Every identity bid at most once in the book despite retransmissions
  // and duplicates: trade count is exactly min(buyers, sellers) = 5.
  EXPECT_EQ(outcome->trade_count(), 5u);
  EXPECT_EQ(exchange.audit().count(AuditKind::kBidRejected), 0u);
}

TEST(ReliabilityTest, CloseMarketRefundsAllRemainingDeposits) {
  const TpdProtocol tpd(money(4.5));
  ExchangeSimulation exchange(tpd);
  TradingClient& buyer = exchange.add_trader(Side::kBuyer, money(9));
  TradingClient& seller = exchange.add_trader(Side::kSeller, money(2));
  exchange.run_round();

  EXPECT_GT(exchange.escrow().total_held(), Money{});
  const Money refunded = exchange.close_market();
  EXPECT_EQ(refunded, money(20));  // two identities x 10
  EXPECT_EQ(exchange.escrow().total_held(), Money{});
  // Deposits are back in the owners' spendable cash.
  EXPECT_EQ(exchange.cash().balance(buyer.account()),
            money(1000 - 4.5));
  EXPECT_EQ(exchange.cash().balance(seller.account()),
            money(1000 + 4.5));
  EXPECT_EQ(exchange.audit().count(AuditKind::kDepositRefunded), 2u);
}

TEST(ReliabilityTest, CloseMarketSkipsConfiscatedDeposits) {
  const TpdProtocol tpd(money(4.5));
  ExchangeSimulation exchange(tpd);
  exchange.add_trader(Side::kSeller, money(2));
  exchange.add_trader(Side::kBuyer, money(9));
  TradingClient& attacker = exchange.add_trader(Side::kBuyer, money(7));
  Strategy attack;
  attack.declarations = {Declaration{Side::kBuyer, money(7)},
                         Declaration{Side::kSeller, money(3)}};
  attacker.set_strategy(attack);
  exchange.run_round();
  ASSERT_EQ(exchange.audit().count(AuditKind::kDepositConfiscated), 1u);

  // 4 identities posted 10 each; 1 was confiscated -> 30 refunded.
  EXPECT_EQ(exchange.close_market(), money(30));
}

TEST(ReliabilityTest, CloseMarketRefusesWhileRoundOpen) {
  const TpdProtocol tpd(money(4.5));
  ExchangeSimulation exchange(tpd);
  exchange.add_trader(Side::kBuyer, money(9));
  exchange.server().open_round(SimTime::millis(50));
  EXPECT_THROW(exchange.close_market(), std::logic_error);
  exchange.queue().run();  // drain so teardown is clean
}

}  // namespace
}  // namespace fnda
