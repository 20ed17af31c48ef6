#include "market/audit.h"

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace fnda {
namespace {

TEST(AuditLogTest, AppendsAndCounts) {
  AuditLog log;
  log.append(SimTime{10}, RoundId{0}, AuditKind::kRoundOpened, "");
  log.append(SimTime{20}, RoundId{0}, AuditKind::kBidAccepted, "id-1 buyer@9");
  log.append(SimTime{20}, RoundId{0}, AuditKind::kBidAccepted, "id-2 seller@4");
  log.append(SimTime{30}, RoundId{0}, AuditKind::kRoundCleared, "1 trades");

  EXPECT_EQ(log.records().size(), 4u);
  EXPECT_EQ(log.count(AuditKind::kBidAccepted), 2u);
  EXPECT_EQ(log.count(AuditKind::kDepositConfiscated), 0u);
}

TEST(AuditLogTest, FiltersByRound) {
  AuditLog log;
  log.append(SimTime{1}, RoundId{0}, AuditKind::kRoundOpened, "");
  log.append(SimTime{2}, RoundId{1}, AuditKind::kRoundOpened, "");
  log.append(SimTime{3}, RoundId{1}, AuditKind::kRoundCleared, "");
  EXPECT_EQ(log.for_round(RoundId{0}).size(), 1u);
  EXPECT_EQ(log.for_round(RoundId{1}).size(), 2u);
  EXPECT_TRUE(log.for_round(RoundId{7}).empty());
}

TEST(AuditLogTest, DumpFormat) {
  AuditLog log;
  log.append(SimTime{12000}, RoundId{0}, AuditKind::kBidAccepted,
             "id-3 buyer@9");
  const std::string dump = log.dump();
  EXPECT_EQ(dump, "t=12000 round-0 bid-accepted id-3 buyer@9\n");
}

TEST(AuditLogTest, KindNames) {
  EXPECT_STREQ(to_string(AuditKind::kDeliveryFailed), "delivery-failed");
  EXPECT_STREQ(to_string(AuditKind::kDepositConfiscated),
               "deposit-confiscated");
  EXPECT_STREQ(to_string(AuditKind::kDepositRefunded), "deposit-refunded");
}


TEST(AuditLogTest, TypedRecordsFormatLikeTheirText) {
  AuditLog log;
  log.bid_accepted(SimTime{1}, RoundId{2}, IdentityId{7}, Side::kBuyer,
                   money(9.5));
  log.bid_rejected(SimTime{2}, RoundId{2}, IdentityId{8}, Side::kSeller,
                   money(0.25), RejectReason::kInsufficientDeposit);
  log.round_cleared(SimTime{3}, RoundId{2}, 3, money(1.5));
  log.delivery(SimTime{3}, RoundId{2}, IdentityId{3}, IdentityId{4});
  log.delivery_failed(SimTime{3}, RoundId{2}, IdentityId{3});
  log.deposit(SimTime{3}, RoundId{2}, AuditKind::kDepositConfiscated,
              IdentityId{3}, money(10));
  log.deposit(SimTime{9}, RoundId::invalid(), AuditKind::kDepositRefunded,
              IdentityId{5}, money(10));
  log.append(SimTime{9}, RoundId{3}, AuditKind::kRoundOpened, "");
  log.append(SimTime{9}, RoundId{3}, AuditKind::kRoundCleared, "free text");

  const std::vector<std::string> details = {
      "id-7 buyer@9.5", "id-8 seller@0.25: insufficient deposit",
      "3 trades, revenue 1.5", "id-3 -> id-4", "id-3", "id-3 10", "id-5 10",
      "", "free text"};
  ASSERT_EQ(log.size(), details.size());
  const std::vector<AuditRecord> records = log.records();
  for (std::size_t i = 0; i < details.size(); ++i) {
    EXPECT_EQ(records[i].detail, details[i]) << i;
    EXPECT_EQ(log.record(i).detail, details[i]) << i;
  }
  EXPECT_EQ(records[1].kind, AuditKind::kBidRejected);
  EXPECT_EQ(records[6].round, RoundId::invalid());
  EXPECT_EQ(log.count(AuditKind::kDepositConfiscated), 1u);
  EXPECT_EQ(log.count(AuditKind::kRoundCleared), 2u);
  EXPECT_EQ(log.for_round(RoundId{2}).size(), 6u);
  EXPECT_EQ(to_string(records[6]),
            "t=9 round-18446744073709551615 deposit-refunded id-5 10");
  EXPECT_EQ(to_string(records[7]), "t=9 round-3 round-opened");
}

TEST(AuditLogTest, RejectionReasons) {
  EXPECT_STREQ(to_string(RejectReason::kRoundNotOpen), "round not open");
  EXPECT_STREQ(to_string(RejectReason::kIdentityAlreadyBid),
               "identity already bid this round");
  EXPECT_STREQ(to_string(RejectReason::kInsufficientDeposit),
               "insufficient deposit");
  EXPECT_STREQ(to_string(RejectReason::kValueOutsideDomain),
               "value outside domain");
}

TEST(AuditLogTest, ReadTimeFormattingMatchesStreamFormatting) {
  // The typed records' text must equal what the stream operators print
  // for the same ids and amounts, across magnitudes and fractions.
  Rng rng(0xa0d17);
  AuditLog log;
  std::vector<std::string> expected;
  for (int i = 0; i < 500; ++i) {
    const IdentityId identity{static_cast<std::uint64_t>(
        rng.uniform_int(0, std::int64_t{1} << 40))};
    const IdentityId other{static_cast<std::uint64_t>(rng.uniform_int(0, 99))};
    const Money amount =
        Money::from_micros(rng.uniform_int(-5'000'000'000, 5'000'000'000));
    const Side side = rng.bernoulli(0.5) ? Side::kBuyer : Side::kSeller;
    std::ostringstream bid, pair, held, cleared;
    bid << identity << ' ' << to_string(side) << '@' << amount;
    pair << identity << " -> " << other;
    held << identity << ' ' << amount;
    cleared << static_cast<std::size_t>(i) << " trades, revenue " << amount;
    log.bid_accepted(SimTime{i}, RoundId{0}, identity, side, amount);
    log.delivery(SimTime{i}, RoundId{0}, identity, other);
    log.deposit(SimTime{i}, RoundId{0}, AuditKind::kDepositRefunded, identity,
                amount);
    log.round_cleared(SimTime{i}, RoundId{0}, static_cast<std::size_t>(i),
                      amount);
    expected.insert(expected.end(),
                    {bid.str(), pair.str(), held.str(), cleared.str()});
  }
  ASSERT_EQ(log.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(log.record(i).detail, expected[i]) << i;
  }
}

}  // namespace
}  // namespace fnda
