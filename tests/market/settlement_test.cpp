#include "market/settlement.h"

#include <gtest/gtest.h>

namespace fnda {
namespace {

class SettlementTest : public ::testing::Test {
 protected:
  IdentityRegistry registry_;
  CashLedger cash_;
  GoodsLedger goods_;
  EscrowService escrow_{cash_, registry_};
  SettlementEngine engine_{registry_, cash_, goods_, escrow_};
  AccountId exchange_ = IdentityRegistry::exchange_account();

  struct Trader {
    AccountId account;
    IdentityId identity;
  };

  Trader make_trader(bool endow_good) {
    Trader t;
    t.account = registry_.create_account();
    t.identity = registry_.register_identity(t.account);
    cash_.grant(t.account, money(100));
    escrow_.post(t.identity, t.account, money(10));
    if (endow_good) goods_.grant(t.account, 1);
    return t;
  }
};

TEST_F(SettlementTest, DeliveredTradeMovesCashAndGood) {
  const Trader buyer = make_trader(false);
  const Trader seller = make_trader(true);

  Outcome outcome;
  outcome.add_buy(BidId{0}, buyer.identity, money(7));
  outcome.add_sell(BidId{1}, seller.identity, money(4));

  const SettlementReport report = engine_.settle(RoundId{0}, outcome);
  ASSERT_EQ(report.deliveries.size(), 1u);
  EXPECT_TRUE(report.deliveries[0].delivered);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.exchange_spread, money(3));

  EXPECT_EQ(goods_.units(buyer.account), 1u);
  EXPECT_EQ(goods_.units(seller.account), 0u);
  EXPECT_EQ(cash_.balance(buyer.account), money(100 - 10 - 7));
  EXPECT_EQ(cash_.balance(seller.account), money(100 - 10 + 4));
  EXPECT_EQ(cash_.balance(exchange_), money(3));
}

TEST_F(SettlementTest, FalseNameSellerConfiscatedAndPairCancelled) {
  const Trader buyer = make_trader(false);
  // An attacker account with NO good behind its seller identity.
  const Trader attacker = make_trader(false);

  Outcome outcome;
  outcome.add_buy(BidId{0}, buyer.identity, money(7));
  outcome.add_sell(BidId{1}, attacker.identity, money(4));

  const SettlementReport report = engine_.settle(RoundId{1}, outcome);
  ASSERT_EQ(report.deliveries.size(), 1u);
  EXPECT_FALSE(report.deliveries[0].delivered);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.confiscated_total, money(10));

  // Pair cancelled: the buyer paid nothing, holds nothing.
  EXPECT_EQ(goods_.units(buyer.account), 0u);
  EXPECT_EQ(cash_.balance(buyer.account), money(90));  // only the deposit out
  // Attacker lost its deposit to the exchange.
  EXPECT_EQ(escrow_.held(attacker.identity), Money{});
  EXPECT_EQ(cash_.balance(exchange_), money(10));
  EXPECT_EQ(report.exchange_spread, Money{});
}

TEST_F(SettlementTest, MixedRoundSettlesEachPairIndependently) {
  const Trader buyer1 = make_trader(false);
  const Trader buyer2 = make_trader(false);
  const Trader honest = make_trader(true);
  const Trader cheat = make_trader(false);

  Outcome outcome;
  outcome.add_buy(BidId{0}, buyer1.identity, money(6));
  outcome.add_buy(BidId{1}, buyer2.identity, money(6));
  outcome.add_sell(BidId{2}, honest.identity, money(5));
  outcome.add_sell(BidId{3}, cheat.identity, money(5));

  const SettlementReport report = engine_.settle(RoundId{2}, outcome);
  EXPECT_EQ(report.deliveries.size(), 2u);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(goods_.units(buyer1.account), 1u);  // matched with honest
  EXPECT_EQ(goods_.units(buyer2.account), 0u);  // matched with cheat
  EXPECT_EQ(report.exchange_spread, money(1));
  EXPECT_EQ(report.confiscated_total, money(10));
}

TEST_F(SettlementTest, SellerWithTwoIdentitiesOneGoodFailsSecondSale) {
  // Lemma 2's seller-side analogue: an account selling through two names
  // can deliver only once.
  const Trader buyer1 = make_trader(false);
  const Trader buyer2 = make_trader(false);
  Trader seller = make_trader(true);
  const IdentityId second = registry_.register_identity(seller.account);
  escrow_.post(second, seller.account, money(10));

  Outcome outcome;
  outcome.add_buy(BidId{0}, buyer1.identity, money(8));
  outcome.add_buy(BidId{1}, buyer2.identity, money(8));
  outcome.add_sell(BidId{2}, seller.identity, money(5));
  outcome.add_sell(BidId{3}, second, money(5));

  const SettlementReport report = engine_.settle(RoundId{3}, outcome);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.confiscated_total, money(10));
  EXPECT_EQ(goods_.units(seller.account), 0u);
  // One delivery succeeded, one pair cancelled.
  EXPECT_EQ(goods_.units(buyer1.account) + goods_.units(buyer2.account), 1u);
}

TEST_F(SettlementTest, EmptyOutcomeEmptyReport) {
  const SettlementReport report = engine_.settle(RoundId{4}, Outcome{});
  EXPECT_TRUE(report.deliveries.empty());
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.confiscated_total, Money{});
}

TEST_F(SettlementTest, CashAndGoodsConservedAcrossSettlement) {
  const Trader buyer = make_trader(false);
  const Trader seller = make_trader(true);
  const Trader cheat = make_trader(false);
  const Trader buyer2 = make_trader(false);

  const Money cash_before = cash_.total();
  const std::size_t goods_before = goods_.total();

  Outcome outcome;
  outcome.add_buy(BidId{0}, buyer.identity, money(7));
  outcome.add_buy(BidId{1}, buyer2.identity, money(7));
  outcome.add_sell(BidId{2}, seller.identity, money(4));
  outcome.add_sell(BidId{3}, cheat.identity, money(4));
  engine_.settle(RoundId{5}, outcome);

  EXPECT_EQ(cash_.total(), cash_before);
  EXPECT_EQ(goods_.total(), goods_before);
}

}  // namespace
}  // namespace fnda
