#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "market/escrow.h"
#include "market/identity.h"

namespace fnda {
namespace {

TEST(IdentityRegistryTest, AccountsAreSequentialAndDistinctFromExchange) {
  IdentityRegistry registry;
  const AccountId a = registry.create_account();
  const AccountId b = registry.create_account();
  EXPECT_NE(a, b);
  EXPECT_NE(a, IdentityRegistry::exchange_account());
  EXPECT_EQ(registry.account_count(), 2u);
}

TEST(IdentityRegistryTest, IdentitiesMapToOwners) {
  IdentityRegistry registry;
  const AccountId account = registry.create_account();
  const IdentityId id1 = registry.register_identity(account);
  const IdentityId id2 = registry.register_identity(account);
  EXPECT_NE(id1, id2);
  EXPECT_EQ(registry.owner(id1), account);
  EXPECT_EQ(registry.owner(id2), account);
  EXPECT_EQ(registry.identity_count(), 2u);
}

TEST(IdentityRegistryTest, UnknownIdentityThrows) {
  IdentityRegistry registry;
  EXPECT_THROW(registry.owner(IdentityId{99}), std::out_of_range);
}

TEST(IdentityRegistryTest, IdentitiesOfListsAllPseudonyms) {
  IdentityRegistry registry;
  const AccountId honest = registry.create_account();
  const AccountId cheat = registry.create_account();
  registry.register_identity(honest);
  const IdentityId fake1 = registry.register_identity(cheat);
  const IdentityId fake2 = registry.register_identity(cheat);
  const auto fakes = registry.identities_of(cheat);
  EXPECT_EQ(fakes.size(), 2u);
  EXPECT_NE(std::find(fakes.begin(), fakes.end(), fake1), fakes.end());
  EXPECT_NE(std::find(fakes.begin(), fakes.end(), fake2), fakes.end());
}

class EscrowTest : public ::testing::Test {
 protected:
  CashLedger cash_;
  IdentityRegistry registry_;
  EscrowService escrow_{cash_, registry_};
  AccountId trader_ = registry_.create_account();
  AccountId exchange_ = IdentityRegistry::exchange_account();
  IdentityId identity_ = registry_.register_identity(trader_);

  void SetUp() override { cash_.grant(trader_, money(100)); }
};

TEST_F(EscrowTest, PostMovesCashIntoEscrow) {
  escrow_.post(identity_, trader_, money(10));
  EXPECT_EQ(escrow_.held(identity_), money(10));
  EXPECT_EQ(cash_.balance(trader_), money(90));
  EXPECT_EQ(cash_.total(), money(100));  // conservation
}

TEST_F(EscrowTest, PostsAccumulate) {
  escrow_.post(identity_, trader_, money(10));
  escrow_.post(identity_, trader_, money(5));
  EXPECT_EQ(escrow_.held(identity_), money(15));
  EXPECT_EQ(escrow_.total_held(), money(15));
}

TEST_F(EscrowTest, RefundRestoresCash) {
  escrow_.post(identity_, trader_, money(10));
  escrow_.refund(identity_, trader_);
  EXPECT_EQ(escrow_.held(identity_), Money{});
  EXPECT_EQ(cash_.balance(trader_), money(100));
}

TEST_F(EscrowTest, ConfiscateGoesToExchange) {
  escrow_.post(identity_, trader_, money(10));
  const Money seized = escrow_.confiscate(identity_, exchange_);
  EXPECT_EQ(seized, money(10));
  EXPECT_EQ(escrow_.held(identity_), Money{});
  EXPECT_EQ(cash_.balance(exchange_), money(10));
  EXPECT_EQ(cash_.balance(trader_), money(90));
}

TEST_F(EscrowTest, ConfiscateEmptyIsNoop) {
  EXPECT_EQ(escrow_.confiscate(identity_, exchange_), Money{});
  EXPECT_EQ(cash_.balance(exchange_), Money{});
}

TEST_F(EscrowTest, RefundEmptyIsNoop) {
  escrow_.refund(identity_, trader_);
  EXPECT_EQ(cash_.balance(trader_), money(100));
}

TEST_F(EscrowTest, DoubleConfiscateSeizesOnce) {
  escrow_.post(identity_, trader_, money(10));
  EXPECT_EQ(escrow_.confiscate(identity_, exchange_), money(10));
  EXPECT_EQ(escrow_.confiscate(identity_, exchange_), Money{});
  EXPECT_EQ(cash_.balance(exchange_), money(10));
}


// --- dense per-identity tables -----------------------------------------

TEST(IdentityRegistryTest, StridedOwnerThrowsOutsideMintedIds) {
  // Shard 1 of 3: mints 1, 4, 7, ...
  IdentityRegistry registry(1, 3);
  const AccountId account{5};
  const IdentityId first = registry.register_identity(account);
  const IdentityId second = registry.register_identity(account);
  EXPECT_EQ(first, IdentityId{1});
  EXPECT_EQ(second, IdentityId{4});
  EXPECT_EQ(registry.owner(second), account);
  EXPECT_THROW(registry.owner(IdentityId{2}), std::out_of_range);  // residue
  EXPECT_THROW(registry.owner(IdentityId{3}), std::out_of_range);  // residue
  EXPECT_THROW(registry.owner(IdentityId{0}), std::out_of_range);  // below
  EXPECT_THROW(registry.owner(IdentityId{7}), std::out_of_range);  // unminted
  EXPECT_THROW(registry.owner(IdentityId::invalid()), std::out_of_range);
  EXPECT_EQ(registry.ordinal(IdentityId{7}), 2u);
  EXPECT_EQ(registry.ordinal(IdentityId{5}), IdentityRegistry::kNoOrdinal);
  EXPECT_EQ(registry.identity_at(2), IdentityId{7});
}

TEST(IdentityRegistryTest, IdentitiesOfIsInMintOrder) {
  IdentityRegistry registry(2, 4);
  const AccountId a{1};
  const AccountId b{2};
  std::vector<IdentityId> minted_a;
  for (int i = 0; i < 6; ++i) {
    minted_a.push_back(registry.register_identity(a));
    registry.register_identity(b);
  }
  EXPECT_EQ(registry.identities_of(a), minted_a);
  EXPECT_EQ(registry.identities_of(b).size(), 6u);
  EXPECT_TRUE(registry.identities_of(AccountId{3}).empty());
}

class DenseEscrowTest : public ::testing::Test {
 protected:
  IdentityRegistry registry_{1, 2};  // shard 1 of 2: 1, 3, 5, ...
  CashLedger cash_;
  EscrowService escrow_{cash_, registry_};
  AccountId trader_{7};
  AccountId exchange_ = IdentityRegistry::exchange_account();

  void SetUp() override { cash_.grant(trader_, money(1000)); }
};

TEST_F(DenseEscrowTest, NeverPostedIdentityHoldsNothing) {
  const IdentityId posted = registry_.register_identity(trader_);
  const IdentityId idle = registry_.register_identity(trader_);
  escrow_.post(posted, trader_, money(10));
  for (const IdentityId identity :
       {idle, IdentityId{2}, IdentityId{41}, IdentityId::invalid()}) {
    EXPECT_EQ(escrow_.held(identity), Money{});
    escrow_.refund(identity, trader_);
    EXPECT_EQ(escrow_.confiscate(identity, exchange_), Money{});
  }
  EXPECT_EQ(cash_.balance(trader_), money(990));
  EXPECT_EQ(cash_.balance(exchange_), Money{});
  EXPECT_EQ(escrow_.total_held(), money(10));
}

TEST_F(DenseEscrowTest, RepeatedPostsAccumulate) {
  const IdentityId identity = registry_.register_identity(trader_);
  escrow_.post(identity, trader_, money(10));
  escrow_.post(identity, trader_, money(2.5));
  escrow_.post(identity, trader_, money(1));
  EXPECT_EQ(escrow_.held(identity), money(13.5));
  EXPECT_EQ(escrow_.total_held(), money(13.5));
  EXPECT_EQ(cash_.total(), money(1000));  // escrow is a cash holder
}

TEST_F(DenseEscrowTest, PostOutsideNamespaceThrows) {
  EXPECT_THROW(escrow_.post(IdentityId{2}, trader_, money(10)),
               std::out_of_range);
  EXPECT_THROW(escrow_.post(IdentityId::invalid(), trader_, money(10)),
               std::out_of_range);
  EXPECT_EQ(cash_.balance(trader_), money(1000));
}

TEST_F(DenseEscrowTest, DepositSweepIsInMintOrder) {
  std::vector<IdentityId> minted;
  for (int i = 0; i < 8; ++i) {
    minted.push_back(registry_.register_identity(trader_));
  }
  // Post in reverse mint order, skip one, and empty another.
  for (auto it = minted.rbegin(); it != minted.rend(); ++it) {
    if (*it == minted[3]) continue;
    escrow_.post(*it, trader_, money(10));
  }
  escrow_.refund(minted[5], trader_);
  const std::vector<IdentityId> expected = {minted[0], minted[1], minted[2],
                                            minted[4], minted[6], minted[7]};
  EXPECT_EQ(escrow_.identities_with_deposits(), expected);
}

TEST_F(DenseEscrowTest, RunningTotalMatchesWalkedSum) {
  std::vector<IdentityId> minted;
  for (int i = 0; i < 40; ++i) {
    minted.push_back(registry_.register_identity(trader_));
  }
  Rng rng(0xe5c7);
  for (int step = 0; step < 2000; ++step) {
    const IdentityId identity = minted[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(minted.size()) - 1))];
    switch (rng.uniform_int(0, 3)) {
      case 0:
      case 1:
        escrow_.post(identity, trader_,
                     Money::from_micros(rng.uniform_int(1, 20'000'000)));
        break;
      case 2:
        escrow_.refund(identity, trader_);
        break;
      default:
        escrow_.confiscate(identity, exchange_);
        break;
    }
    Money walked;
    for (const IdentityId any : minted) walked += escrow_.held(any);
    ASSERT_EQ(escrow_.total_held(), walked) << "step " << step;
  }
  // Conservation: the trader's cash plus the exchange's seizures plus
  // escrow is what the trader started with.
  EXPECT_EQ(cash_.total(), money(1000));
}

}  // namespace
}  // namespace fnda
