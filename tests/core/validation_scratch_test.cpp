// The dense validation overload (SortedBook + ValidationScratch) must be
// a drop-in replacement for the hashed overloads: byte-identical
// ValidationErrors, in the same order, for valid outcomes, for every
// violation kind, for books that repeat a bid id (the first occurrence
// wins in both), and for books whose sparse ids force the hashed
// fallback.  The experiment runner binds each instance's ranking once
// and validates every protocol's clearing against the bound lanes.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/instance.h"
#include "core/validation.h"
#include "protocols/efficient.h"
#include "protocols/kda.h"
#include "protocols/pmd.h"
#include "protocols/random_threshold.h"
#include "protocols/tpd.h"
#include "protocols/tpd_rebate.h"
#include "protocols/vcg.h"

namespace fnda {
namespace {

/// Checks the three overloads agree on `outcome` (the OrderBook one only
/// when a raw book is given) and returns the common error list.
ValidationErrors expect_same_errors(const SortedBook& sorted,
                                    const Outcome& outcome,
                                    ValidationScratch& scratch,
                                    const ValidationOptions& options = {},
                                    const OrderBook* raw = nullptr) {
  const ValidationErrors mapped = validate_outcome(sorted, outcome, options);
  const ValidationErrors dense =
      validate_outcome(sorted, outcome, scratch, options);
  EXPECT_EQ(dense, mapped);
  if (raw != nullptr) {
    EXPECT_EQ(validate_outcome(*raw, outcome, options), mapped);
  }
  return mapped;
}

/// Example-1-style book: ids 0..3 dense, identities 0,1 / 10,11.
struct Fixture {
  OrderBook raw;
  SortedBook sorted;
  BidId buy_high, buy_low, sell_low, sell_high;

  Fixture() {
    buy_high = raw.add_buyer(IdentityId{0}, money(9));
    buy_low = raw.add_buyer(IdentityId{1}, money(4));
    sell_low = raw.add_seller(IdentityId{10}, money(2));
    sell_high = raw.add_seller(IdentityId{11}, money(8));
    Rng rng(1);
    sorted.rebuild(raw, rng);
  }
};

TEST(DenseValidationTest, ValidProtocolOutcomesAgreeOnRandomBooks) {
  const TpdProtocol tpd(money(50));
  const PmdProtocol pmd;
  const KDoubleAuction kda(0.5);
  const EfficientClearing efficient;
  const VcgDoubleAuction vcg;
  const RandomThresholdProtocol random_threshold(money(50));
  const TpdWithRebates tpd_rebate(money(50));
  const std::vector<const DoubleAuctionProtocol*> protocols = {
      &tpd, &pmd, &kda, &efficient, &vcg, &random_threshold, &tpd_rebate};
  ValidationOptions allow_deficit;
  allow_deficit.allow_deficit = true;

  ValidationScratch scratch;  // reused across books of varying size
  Rng rng(0xd3a5e);
  std::size_t trades = 0;
  for (int trial = 0; trial < 60; ++trial) {
    SingleUnitInstance instance;
    const std::size_t m = rng.below(trial % 3 == 0 ? 40 : 9);
    const std::size_t n = rng.below(trial % 3 == 0 ? 40 : 9);
    for (std::size_t i = 0; i < m; ++i) {
      instance.buyer_values.push_back(
          Money::from_units(static_cast<std::int64_t>(rng.below(101))));
    }
    for (std::size_t j = 0; j < n; ++j) {
      instance.seller_values.push_back(
          Money::from_units(static_cast<std::int64_t>(rng.below(101))));
    }
    const InstantiatedMarket market = instantiate_truthful(instance);
    const SortedBook sorted(market.book, rng);
    for (const DoubleAuctionProtocol* protocol : protocols) {
      SCOPED_TRACE(testing::Message()
                   << protocol->name() << " trial " << trial);
      Rng clear_rng(rng());
      const Outcome outcome = protocol->clear_sorted(sorted, clear_rng);
      trades += outcome.trade_count();
      const ValidationErrors errors = expect_same_errors(
          sorted, outcome, scratch, allow_deficit, &market.book);
      EXPECT_TRUE(errors.empty());
      // VCG's deficit is the one finding the default options report.
      const ValidationErrors strict =
          expect_same_errors(sorted, outcome, scratch, {}, &market.book);
      EXPECT_EQ(strict.empty(), !(outcome.auctioneer_revenue() < Money{}));
    }
  }
  EXPECT_GT(trades, 0u);
}

TEST(DenseValidationTest, EveryViolationKindMatchesTheHashedPath) {
  Fixture f;
  ValidationScratch scratch;
  struct Case {
    const char* kind;
    Outcome outcome;
  };
  std::vector<Case> cases;

  Outcome unbalanced;
  unbalanced.add_buy(f.buy_high, IdentityId{0}, money(5));
  cases.push_back({"goods not conserved", unbalanced});

  Outcome unknown;
  unknown.add_buy(BidId{999}, IdentityId{0}, money(5));
  unknown.add_sell(f.sell_low, IdentityId{10}, money(5));
  cases.push_back({"fill references unknown buyer bid bid-999", unknown});

  Outcome unknown_in_range;  // id 3 exists, but only as a seller bid
  unknown_in_range.add_buy(f.sell_high, IdentityId{11}, money(8));
  unknown_in_range.add_sell(f.sell_low, IdentityId{10}, money(5));
  cases.push_back({"fill references unknown buyer bid", unknown_in_range});

  Outcome wrong_identity;
  wrong_identity.add_buy(f.buy_high, IdentityId{7}, money(5));
  wrong_identity.add_sell(f.sell_low, IdentityId{10}, money(5));
  cases.push_back({"does not match bid", wrong_identity});

  Outcome buyer_ir;
  buyer_ir.add_buy(f.buy_low, IdentityId{1}, money(6));
  buyer_ir.add_sell(f.sell_low, IdentityId{10}, money(2));
  cases.push_back({"buyer IR violated", buyer_ir});

  Outcome seller_ir;
  seller_ir.add_buy(f.buy_high, IdentityId{0}, money(9));
  seller_ir.add_sell(f.sell_high, IdentityId{11}, money(3));
  cases.push_back({"seller IR violated", seller_ir});

  Outcome double_fill;
  double_fill.add_buy(f.buy_high, IdentityId{0}, money(5));
  double_fill.add_buy(f.buy_high, IdentityId{0}, money(5));
  double_fill.add_sell(f.sell_low, IdentityId{10}, money(5));
  double_fill.add_sell(f.sell_high, IdentityId{11}, money(5));
  cases.push_back({"filled more than once", double_fill});

  Outcome deficit;
  deficit.add_buy(f.buy_high, IdentityId{0}, money(3));
  deficit.add_sell(f.sell_low, IdentityId{10}, money(5));
  cases.push_back({"auctioneer subsidises the market", deficit});

  Outcome everything;  // several findings in one outcome: order must match
  everything.add_buy(f.buy_low, IdentityId{5}, money(6));
  everything.add_buy(f.buy_low, IdentityId{1}, money(1));
  everything.add_buy(BidId{12345}, IdentityId{0}, money(1));
  everything.add_sell(f.sell_high, IdentityId{11}, money(7));
  cases.push_back({"goods not conserved", everything});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.kind);
    const ValidationErrors errors =
        expect_same_errors(f.sorted, c.outcome, scratch, {}, &f.raw);
    ASSERT_FALSE(errors.empty());
    EXPECT_NE(errors.front().find(c.kind), std::string::npos)
        << errors.front();
    EXPECT_THROW(expect_valid_outcome(f.sorted, c.outcome, scratch),
                 std::logic_error);
  }
  EXPECT_GE(expect_same_errors(f.sorted, cases.back().outcome, scratch).size(),
            5u);

  ValidationOptions allow_deficit;
  allow_deficit.allow_deficit = true;
  EXPECT_TRUE(
      expect_same_errors(f.sorted, deficit, scratch, allow_deficit, &f.raw)
          .empty());
}

TEST(DenseValidationTest, DuplicatedBidIdsResolveToTheFirstOccurrence) {
  // Lanes in rank order; bid 1 appears twice among the buyers with
  // different identities and values, and bid 2 on both sides.
  const std::vector<BidEntry> buyers = {
      {BidId{1}, IdentityId{0}, money(9)},
      {BidId{1}, IdentityId{5}, money(6)},
      {BidId{2}, IdentityId{1}, money(4)}};
  const std::vector<BidEntry> sellers = {
      {BidId{2}, IdentityId{10}, money(2)},
      {BidId{3}, IdentityId{11}, money(8)}};
  const SortedBook sorted = SortedBook::from_ranked({}, buyers, sellers);
  ValidationScratch scratch;

  Outcome first;  // matches the first bid-1 entry
  first.add_buy(BidId{1}, IdentityId{0}, money(8));
  first.add_sell(BidId{2}, IdentityId{10}, money(8));
  EXPECT_TRUE(expect_same_errors(sorted, first, scratch).empty());

  Outcome second;  // matches only the shadowed second entry
  second.add_buy(BidId{1}, IdentityId{5}, money(8));
  second.add_sell(BidId{2}, IdentityId{10}, money(8));
  const ValidationErrors errors = expect_same_errors(sorted, second, scratch);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors.front(),
            "fill identity id-5 does not match bid bid-1 identity id-0");
}

TEST(DenseValidationTest, SparseIdsFallBackToHashingWithIdenticalErrors) {
  // Ids far beyond 2 * (bid count) are not dense-eligible.
  const std::vector<BidEntry> buyers = {
      {BidId{4'000'000'000ull}, IdentityId{0}, money(9)},
      {BidId{7}, IdentityId{1}, money(4)}};
  const std::vector<BidEntry> sellers = {
      {BidId{123'456'789ull}, IdentityId{10}, money(2)}};
  const SortedBook sorted = SortedBook::from_ranked({}, buyers, sellers);
  ValidationScratch scratch;

  Outcome valid;
  valid.add_buy(BidId{4'000'000'000ull}, IdentityId{0}, money(5));
  valid.add_sell(BidId{123'456'789ull}, IdentityId{10}, money(5));
  EXPECT_TRUE(expect_same_errors(sorted, valid, scratch).empty());

  Outcome broken;
  broken.add_buy(BidId{7}, IdentityId{1}, money(5));
  broken.add_buy(BidId{7}, IdentityId{3}, money(1));
  broken.add_sell(BidId{123'456'789ull}, IdentityId{10}, money(1));
  broken.add_sell(BidId{8}, IdentityId{10}, money(9));
  const ValidationErrors errors = expect_same_errors(sorted, broken, scratch);
  EXPECT_GE(errors.size(), 4u);

  // An empty book is not dense-eligible either.
  const SortedBook empty = SortedBook::from_ranked({}, {}, {});
  EXPECT_EQ(expect_same_errors(empty, broken, scratch).size(), 5u);
}

TEST(DenseValidationTest, ReusedScratchCarriesNothingAcrossBooks) {
  ValidationScratch scratch;
  // A large book first: its ids 0..199 fill the scratch arrays.
  OrderBook big;
  for (std::size_t i = 0; i < 100; ++i) {
    big.add_buyer(IdentityId{i}, money(60));
  }
  for (std::size_t j = 0; j < 100; ++j) {
    big.add_seller(IdentityId{kSellerIdentityBase + j}, money(40));
  }
  Rng rng(3);
  const SortedBook big_sorted(big, rng);
  Outcome big_outcome;
  big_outcome.add_buy(BidId{50}, IdentityId{50}, money(50));
  big_outcome.add_sell(BidId{150}, IdentityId{kSellerIdentityBase + 50},
                       money(50));
  EXPECT_TRUE(expect_same_errors(big_sorted, big_outcome, scratch).empty());

  // Then the small fixture: bid 50 must be unknown and the fill count of
  // bid 0 must start from zero again.
  Fixture f;
  EXPECT_FALSE(expect_same_errors(f.sorted, big_outcome, scratch).empty());
  Outcome once;
  once.add_buy(f.buy_high, IdentityId{0}, money(5));
  once.add_sell(f.sell_low, IdentityId{10}, money(5));
  EXPECT_TRUE(expect_same_errors(f.sorted, once, scratch, {}, &f.raw).empty());
  EXPECT_TRUE(expect_same_errors(f.sorted, once, scratch, {}, &f.raw).empty());
}

TEST(DenseValidationTest, BindOnceThenValidateManyMatchesFreshValidations) {
  Fixture f;
  Outcome valid;
  valid.add_buy(f.buy_high, IdentityId{0}, money(5));
  valid.add_sell(f.sell_low, IdentityId{10}, money(5));
  Outcome double_fill;
  double_fill.add_buy(f.buy_high, IdentityId{0}, money(5));
  double_fill.add_buy(f.buy_high, IdentityId{0}, money(5));
  double_fill.add_sell(f.sell_low, IdentityId{10}, money(5));
  double_fill.add_sell(f.sell_high, IdentityId{11}, money(5));
  Outcome unknown;
  unknown.add_buy(BidId{999}, IdentityId{0}, money(5));
  unknown.add_sell(f.sell_low, IdentityId{10}, money(5));
  Outcome everything;
  everything.add_buy(f.buy_low, IdentityId{5}, money(6));
  everything.add_buy(f.buy_low, IdentityId{1}, money(1));
  everything.add_buy(BidId{12345}, IdentityId{0}, money(1));
  everything.add_sell(f.sell_high, IdentityId{11}, money(7));
  Outcome seller_ir;
  seller_ir.add_buy(f.buy_high, IdentityId{0}, money(9));
  seller_ir.add_sell(f.sell_high, IdentityId{11}, money(3));
  // Violations back to back and between valid outcomes: a fill count
  // left behind by one outcome would show up in the next as a spurious
  // "filled more than once".
  const std::vector<const Outcome*> outcomes = {
      &valid,      &double_fill, &valid, &double_fill, &double_fill,
      &unknown,    &valid,       &everything, &everything, &valid,
      &seller_ir,  &valid};

  ValidationScratch bound;
  bind_validation_scratch(f.sorted, bound);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "outcome " << i);
    ValidationScratch fresh;
    EXPECT_EQ(validate_bound_outcome(f.sorted, *outcomes[i], bound),
              validate_outcome(f.sorted, *outcomes[i], fresh));
  }
  EXPECT_THROW(expect_valid_bound_outcome(f.sorted, double_fill, bound),
               std::logic_error);
  EXPECT_NO_THROW(expect_valid_bound_outcome(f.sorted, valid, bound));

  // Every protocol's outcome on random books, one bind per book, sparse
  // ids (the hashed fallback) included.
  const TpdProtocol tpd(money(50));
  const PmdProtocol pmd;
  const KDoubleAuction kda(0.5);
  const VcgDoubleAuction vcg;
  const TpdWithRebates tpd_rebate(money(50));
  const std::vector<const DoubleAuctionProtocol*> protocols = {
      &tpd, &pmd, &kda, &vcg, &tpd_rebate};
  Rng rng(0xb17d);
  for (int trial = 0; trial < 30; ++trial) {
    SingleUnitInstance instance;
    for (std::size_t i = rng.below(30); i > 0; --i) {
      instance.buyer_values.push_back(
          Money::from_units(static_cast<std::int64_t>(rng.below(101))));
    }
    for (std::size_t j = rng.below(30); j > 0; --j) {
      instance.seller_values.push_back(
          Money::from_units(static_cast<std::int64_t>(rng.below(101))));
    }
    const SortedBook sorted(instantiate_truthful(instance).book, rng);
    bind_validation_scratch(sorted, bound);
    for (const DoubleAuctionProtocol* protocol : protocols) {
      SCOPED_TRACE(testing::Message()
                   << protocol->name() << " trial " << trial);
      Rng clear_rng(rng());
      const Outcome outcome = protocol->clear_sorted(sorted, clear_rng);
      ValidationScratch fresh;
      EXPECT_EQ(validate_bound_outcome(sorted, outcome, bound),
                validate_outcome(sorted, outcome, fresh));
      EXPECT_EQ(validate_bound_outcome(sorted, double_fill, bound),
                validate_outcome(sorted, double_fill, fresh));
    }
  }
  const SortedBook sparse = SortedBook::from_ranked(
      {}, {{BidId{4'000'000'000ull}, IdentityId{0}, money(9)}},
      {{BidId{123'456'789ull}, IdentityId{10}, money(2)}});
  bind_validation_scratch(sparse, bound);
  EXPECT_FALSE(bound.dense);
  for (const Outcome* outcome : outcomes) {
    ValidationScratch fresh;
    EXPECT_EQ(validate_bound_outcome(sparse, *outcome, bound),
              validate_outcome(sparse, *outcome, fresh));
  }
}

}  // namespace
}  // namespace fnda
