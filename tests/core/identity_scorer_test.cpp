// The identity-indexed surplus scorer, realized_surplus(outcome,
// instance), must reproduce the TrueValuations scorer bit for bit on
// every outcome a truthful book can produce (rebates included) and throw
// std::out_of_range on any fill whose identity the instance does not
// own.  build_truthful_book must write the same book instantiate_truthful
// builds, into a reused OrderBook.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/instance.h"
#include "protocols/efficient.h"
#include "protocols/kda.h"
#include "protocols/pmd.h"
#include "protocols/random_threshold.h"
#include "protocols/tpd.h"
#include "protocols/tpd_rebate.h"
#include "protocols/vcg.h"

namespace fnda {
namespace {

void expect_bits_equal(double a, double b, const char* field) {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof ba);
  std::memcpy(&bb, &b, sizeof bb);
  EXPECT_EQ(ba, bb) << field << ": " << a << " vs " << b;
}

void expect_same_report(const SurplusReport& a, const SurplusReport& b) {
  expect_bits_equal(a.total, b.total, "total");
  expect_bits_equal(a.except_auctioneer, b.except_auctioneer,
                    "except_auctioneer");
  expect_bits_equal(a.auctioneer, b.auctioneer, "auctioneer");
  expect_bits_equal(a.buyers, b.buyers, "buyers");
  expect_bits_equal(a.sellers, b.sellers, "sellers");
}

/// Values on a cent grid, or from three values only (long tie runs).
SingleUnitInstance random_instance(Rng& rng, std::size_t max_side,
                                   bool tie_heavy) {
  SingleUnitInstance instance;
  auto draw = [&]() {
    if (tie_heavy) {
      return Money::from_units(30 + 20 * static_cast<std::int64_t>(rng.below(3)));
    }
    return Money::from_double(static_cast<double>(rng.below(10001)) / 100.0);
  };
  const std::size_t m = rng.below(max_side + 1);
  const std::size_t n = rng.below(max_side + 1);
  for (std::size_t i = 0; i < m; ++i) instance.buyer_values.push_back(draw());
  for (std::size_t j = 0; j < n; ++j) instance.seller_values.push_back(draw());
  return instance;
}

TEST(IdentityScorerTest, MatchesHashedScorerExactlyForEveryProtocol) {
  const TpdProtocol tpd(money(50));
  const PmdProtocol pmd;
  const KDoubleAuction kda(0.5);
  const EfficientClearing efficient;
  const VcgDoubleAuction vcg;
  const RandomThresholdProtocol random_threshold(money(50));
  const TpdWithRebates tpd_rebate(money(50));
  const std::vector<const DoubleAuctionProtocol*> protocols = {
      &tpd, &pmd, &kda, &efficient, &vcg, &random_threshold, &tpd_rebate};

  OrderBook reused;  // rebuilt in place for every instance
  Rng rng(0x5c0de);
  std::size_t fills = 0;
  bool saw_rebate = false;
  for (int trial = 0; trial < 150; ++trial) {
    const SingleUnitInstance instance =
        random_instance(rng, trial % 5 == 0 ? 120 : 12, trial % 3 == 1);
    const InstantiatedMarket market = instantiate_truthful(instance);
    build_truthful_book(instance, reused);
    ASSERT_EQ(reused.buyers(), market.book.buyers());
    ASSERT_EQ(reused.sellers(), market.book.sellers());

    const SortedBook sorted(reused, rng);
    for (const DoubleAuctionProtocol* protocol : protocols) {
      SCOPED_TRACE(testing::Message()
                   << protocol->name() << " trial " << trial);
      Rng clear_rng(rng());
      const Outcome outcome = protocol->clear_sorted(sorted, clear_rng);
      fills += outcome.fills().size();
      saw_rebate = saw_rebate || outcome.rebates_total() > Money{};
      expect_same_report(realized_surplus(outcome, instance),
                         realized_surplus(outcome, market.truth));
    }
  }
  EXPECT_GT(fills, 0u);
  EXPECT_TRUE(saw_rebate) << "tpd-rebate never rebated: rebates untested";
}

TEST(IdentityScorerTest, IdentityOutsideTheInstanceThrows) {
  SingleUnitInstance instance;
  instance.buyer_values = {money(9), money(8)};
  instance.seller_values = {money(2), money(3), money(4)};
  const InstantiatedMarket market = instantiate_truthful(instance);

  struct Case {
    const char* what;
    Side side;
    std::uint64_t identity;
  };
  const std::vector<Case> cases = {
      {"buyer index past the last buyer", Side::kBuyer, 2},
      {"seller index past the last seller", Side::kSeller,
       kSellerIdentityBase + 3},
      {"buyer identity on the seller side", Side::kSeller, 0},
      {"seller identity on the buyer side", Side::kBuyer, kSellerIdentityBase},
      {"false-name identity", Side::kBuyer, kExtraIdentityBase},
      {"false-name identity as a seller", Side::kSeller, kExtraIdentityBase},
      {"largest identity", Side::kSeller, ~std::uint64_t{0}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    Outcome outcome;
    outcome.add_buy(BidId{0}, IdentityId{0}, money(5));  // a known fill first
    if (c.side == Side::kBuyer) {
      outcome.add_buy(BidId{1}, IdentityId{c.identity}, money(5));
    } else {
      outcome.add_sell(BidId{1}, IdentityId{c.identity}, money(5));
    }
    EXPECT_THROW(realized_surplus(outcome, instance), std::out_of_range);
    EXPECT_THROW(realized_surplus(outcome, market.truth), std::out_of_range);
  }

  // The last identity on each side is still inside the instance.
  Outcome edge;
  edge.add_buy(BidId{0}, IdentityId{1}, money(5));
  edge.add_sell(BidId{1}, IdentityId{kSellerIdentityBase + 2}, money(5));
  expect_same_report(realized_surplus(edge, instance),
                     realized_surplus(edge, market.truth));
  EXPECT_DOUBLE_EQ(realized_surplus(edge, instance).total, 8.0 - 4.0);
}

TEST(BuildTruthfulBookTest, ReuseRestartsIdsAndAdoptsTheDomain) {
  OrderBook book;
  SingleUnitInstance wide;
  wide.buyer_values = {money(90), money(10), money(50)};
  wide.seller_values = {money(20)};
  build_truthful_book(wide, book);
  ASSERT_EQ(book.buyer_count(), 3u);

  SingleUnitInstance narrow;
  narrow.domain = ValueDomain{money(0), money(40)};
  narrow.buyer_values = {money(30)};
  narrow.seller_values = {money(5), money(7)};
  build_truthful_book(narrow, book);
  EXPECT_EQ(book.buyers(), instantiate_truthful(narrow).book.buyers());
  EXPECT_EQ(book.sellers(), instantiate_truthful(narrow).book.sellers());
  EXPECT_EQ(book.domain().highest, money(40));

  // The reused book keeps enforcing its domain, like a fresh one.
  SingleUnitInstance out_of_domain = narrow;
  out_of_domain.buyer_values = {money(41)};
  EXPECT_THROW(build_truthful_book(out_of_domain, book),
               std::invalid_argument);
  EXPECT_THROW(book.reset(ValueDomain{money(5), money(5)}),
               std::invalid_argument);
}

}  // namespace
}  // namespace fnda
