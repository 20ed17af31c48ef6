#include "protocols/tpd_rebate.h"

#include "protocols/tpd.h"

#include <gtest/gtest.h>

#include "core/surplus.h"
#include "core/validation.h"
#include "mechanism/manipulation.h"
#include "mechanism/properties.h"

namespace fnda {
namespace {

// A book where TPD (r = 4.5) runs case 2 and collects revenue: buyers
// 9, 8, 7, 4.8; sellers 2, 3, 4 -> i = 4 > j = 3; buyers pay b(4) = 4.8,
// sellers get 4.5, revenue = 3 * 0.3 = 0.9.
SingleUnitInstance revenue_instance() {
  SingleUnitInstance instance;
  instance.buyer_values = {money(9), money(8), money(7), money(4.8)};
  instance.seller_values = {money(2), money(3), money(4)};
  return instance;
}

TEST(TpdRebateTest, RebatesComeOutOfTheRevenue) {
  const InstantiatedMarket market = instantiate_truthful(revenue_instance());
  Rng rng(1);
  const Outcome outcome = TpdWithRebates(money(4.5)).clear(market.book, rng);
  // Trades identical to plain TPD.
  EXPECT_EQ(outcome.trade_count(), 3u);
  EXPECT_GT(outcome.rebates_total(), Money{});
  // Every rebate is non-negative and the outcome stays structurally valid
  // under the deficit relaxation (rebates may exceed revenue on some
  // books; not on this one).
  EXPECT_TRUE(
      validate_outcome(market.book, outcome, ValidationOptions{true}).empty());
  // Traders keep more than under plain TPD.
  const SurplusReport report = realized_surplus(outcome, market.truth);
  EXPECT_GT(report.except_auctioneer, 0.0);
  EXPECT_LT(report.auctioneer, 0.9 + 1e-9);
}

TEST(TpdRebateTest, RebateIndependentOfOwnDeclaration) {
  // The rebate of identity i is computed from the book WITHOUT i, so
  // changing i's declared value must not change i's rebate (as long as
  // its identity stays in the book).
  SingleUnitInstance instance = revenue_instance();
  const TpdWithRebates protocol(money(4.5));

  auto rebate_of_buyer0 = [&](Money declared) {
    OrderBook book;
    book.add_buyer(IdentityId{0}, declared);
    for (std::size_t i = 1; i < instance.buyer_values.size(); ++i) {
      book.add_buyer(IdentityId{i}, instance.buyer_values[i]);
    }
    for (std::size_t j = 0; j < instance.seller_values.size(); ++j) {
      book.add_seller(IdentityId{100 + j}, instance.seller_values[j]);
    }
    Rng rng(1);
    return protocol.clear(book, rng).rebate_of(IdentityId{0});
  };

  const Money base = rebate_of_buyer0(money(9));
  EXPECT_EQ(rebate_of_buyer0(money(6)), base);
  EXPECT_EQ(rebate_of_buyer0(money(0.5)), base);
}

TEST(TpdRebateTest, MisreportIcPreserved) {
  // For a FIXED set of identities, rebates don't depend on own reports,
  // so single own-side misreports still never beat truth.
  const TpdWithRebates protocol(money(50));
  IcCheckConfig config;
  config.instances = 20;
  config.manipulators_per_instance = 2;
  config.instance_spec.max_buyers = 5;
  config.instance_spec.max_sellers = 5;
  config.search.max_declarations = 1;
  config.search.allow_absence = false;  // absence drops a rebate by design
  config.seed = 0x2eb1;
  const IcCheckReport report = check_incentive_compatibility(protocol, config);
  for (const IcViolation& violation : report.violations) {
    // Only wrong-side single bids may appear (they add an identity's
    // rebate); own-side misreports must be clean.
    EXPECT_NE(violation.strategy.declarations[0].side,
              violation.manipulator.role)
        << violation.strategy.to_string();
  }
}

TEST(TpdRebateTest, FalseNamesMilkTheRebatePool) {
  // The negative result: free identities each collect a rebate share, so
  // minting pseudonyms IS profitable — naive redistribution destroys the
  // paper's robustness property.
  const TpdWithRebates protocol(money(4.5));
  const DeviationEvaluator evaluator(protocol, revenue_instance(),
                                     {Side::kBuyer, 0});
  SearchConfig search;
  search.max_declarations = 2;
  const SearchResult result = find_best_deviation(evaluator, search);
  EXPECT_TRUE(result.profitable(1e-9))
      << "expected a profitable false-name deviation under rebates";
  // And plain TPD on the same instance is robust (control).
  const TpdProtocol plain(money(4.5));
  const DeviationEvaluator control(plain, revenue_instance(),
                                   {Side::kBuyer, 0});
  EXPECT_FALSE(find_best_deviation(control, search).profitable(1e-9));
}

TEST(TpdRebateTest, BalancedMarketStillPaysCounterfactualRebates) {
  // Buyers 9, 8; sellers 2, 3; r = 5: i == j, the market itself collects
  // NOTHING.  But each rebate is computed on the book WITHOUT that
  // participant, which unbalances it: removing a buyer forces case 3
  // (revenue 2), removing a seller forces case 2 (revenue 3).  Rebates
  // total 2 * 2/4 + 2 * 3/4 = 2.5 against zero collected — the classic
  // redistribution deficit, and the second reason (beyond false names)
  // this repair fails.
  SingleUnitInstance instance;
  instance.buyer_values = {money(9), money(8)};
  instance.seller_values = {money(2), money(3)};
  const InstantiatedMarket market = instantiate_truthful(instance);
  Rng rng(1);
  const Outcome outcome = TpdWithRebates(money(5)).clear(market.book, rng);
  EXPECT_EQ(outcome.rebates_total(), money(2.5));
  EXPECT_EQ(outcome.auctioneer_revenue(), money(-2.5));
  // The strict validator flags the subsidy; the relaxation accepts it.
  EXPECT_FALSE(validate_outcome(market.book, outcome).empty());
  EXPECT_TRUE(
      validate_outcome(market.book, outcome, ValidationOptions{true}).empty());
}

TEST(TpdRebateTest, EmptyBook) {
  OrderBook book;
  Rng rng(1);
  const Outcome outcome = TpdWithRebates(money(5)).clear(book, rng);
  EXPECT_EQ(outcome.trade_count(), 0u);
  EXPECT_EQ(outcome.rebates_total(), Money{});
}


TEST(TpdRebateTest, RankArithmeticRebatesBitEqualToReclearPath) {
  // clear_sorted computes R(-i) by rank arithmetic for identities with a
  // single declaration.  Reference: every rebate through the rebuild-
  // and-reclear path.  Books have ties (values on a coarse grid), repeated
  // identities (within and across lanes), empty sides, and thresholds on
  // and off the value grid.
  Rng rng(0x7eba7e);
  std::size_t repeated_books = 0;
  std::size_t rebated_books = 0;
  for (int trial = 0; trial < 400; ++trial) {
    OrderBook book(ValueDomain{money(0), money(20)});
    std::vector<IdentityId> used;
    auto identity = [&] {
      if (!used.empty() && rng.bernoulli(0.2)) {
        return used[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(used.size()) - 1))];
      }
      used.push_back(IdentityId{static_cast<std::uint64_t>(trial * 100) +
                                used.size()});
      return used.back();
    };
    const std::int64_t buyers = rng.uniform_int(0, 12);
    const std::int64_t sellers = rng.uniform_int(0, 12);
    for (std::int64_t i = 0; i < buyers; ++i) {
      book.add_buyer(identity(), money(0.5 * rng.uniform_int(0, 40)));
    }
    for (std::int64_t j = 0; j < sellers; ++j) {
      book.add_seller(identity(), money(0.5 * rng.uniform_int(0, 40)));
    }
    const Money threshold =
        rng.bernoulli(0.5) ? money(0.5 * rng.uniform_int(0, 40))
                           : money(0.25 + 0.5 * rng.uniform_int(0, 39));
    Rng rank_rng(static_cast<std::uint64_t>(trial));
    const SortedBook ranked(book, rank_rng);

    Rng unused(1);
    const Outcome fast = TpdWithRebates(threshold).clear_sorted(ranked, unused);

    Outcome reference = TpdProtocol::clear_sorted(ranked, threshold);
    const auto n =
        static_cast<std::int64_t>(ranked.buyer_count() + ranked.seller_count());
    auto add_reference = [&](const BidEntry& entry) {
      const Money revenue =
          TpdWithRebates::revenue_without(ranked, entry.identity, threshold);
      if (revenue > Money{}) {
        reference.add_rebate(entry.identity,
                             Money::from_micros(revenue.micros() / n));
      }
    };
    for (const BidEntry& entry : ranked.buyers()) add_reference(entry);
    for (const BidEntry& entry : ranked.sellers()) add_reference(entry);

    ASSERT_EQ(fast.fills(), reference.fills()) << "trial " << trial;
    ASSERT_EQ(fast.rebates_total(), reference.rebates_total())
        << "trial " << trial;
    ASSERT_EQ(fast.auctioneer_revenue(), reference.auctioneer_revenue());
    for (const IdentityId id : used) {
      ASSERT_EQ(fast.rebate_of(id), reference.rebate_of(id))
          << "trial " << trial << " " << id;
    }
    repeated_books += used.size() < static_cast<std::size_t>(buyers + sellers);
    rebated_books += fast.rebates_total() > Money{};
  }
  // The sample exercises both paths.
  EXPECT_GT(repeated_books, 50u);
  EXPECT_GT(rebated_books, 50u);
}

}  // namespace
}  // namespace fnda
