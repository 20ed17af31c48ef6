// Security-deposit escrow (Section 6's penalty mechanism).
//
// "If one completes his/her transaction, or his/her bid is not included in
// the actual trades, the security deposit would be returned.  If one does
// not complete his/her transaction while his/her bid is included in the
// actual trades, the security deposit would be confiscated."
//
// Deposits are posted per identity (the server cannot tell identities
// apart, so it must charge each one).  Confiscated deposits go to the
// exchange account.
//
// Every identity ever minted keeps its slot, so the table is dense and
// indexed by the identity's mint ordinal in the shard's registry: one
// Money per identity, no hashing, and market-close sweeps run in mint
// order.
#pragma once

#include <vector>

#include "common/ids.h"
#include "common/money.h"
#include "market/identity.h"
#include "market/ledger.h"
#include "obs/metrics.h"

namespace fnda {

class EscrowService {
 public:
  /// Escrow for the identities `registry` mints: the table is indexed by
  /// their mint ordinals, so a strided shard namespace stays dense.
  /// `registry` must outlive the escrow.
  EscrowService(CashLedger& cash, const IdentityRegistry& registry)
      : cash_(cash), registry_(registry) {}

  /// Moves `amount` from `payer`'s cash into escrow for `identity`.
  /// Additional posts accumulate.  Throws std::out_of_range for an
  /// identity outside the registry's namespace.
  void post(IdentityId identity, AccountId payer, Money amount);

  /// Returns the full deposit to `payee`'s cash (no-op without one).
  void refund(IdentityId identity, AccountId payee);

  /// Seizes the full deposit for the exchange.  Returns the amount seized
  /// (zero without a deposit).
  Money confiscate(IdentityId identity, AccountId exchange);

  /// The identity's deposit; zero for any identity that never posted.
  Money held(IdentityId identity) const;
  /// Sum of all deposits, kept as a running total (O(1)).
  Money total_held() const { return total_; }

  /// Identities currently holding a non-zero deposit (market-close
  /// sweep), in ascending ordinal (= mint) order.
  std::vector<IdentityId> identities_with_deposits() const;

  /// Registers deposit-flow counters (posts, refunds, seizures — counts
  /// and micros) plus a snapshot-time gauge over total_held().
  void bind_metrics(obs::MetricsRegistry& registry);

 private:
  CashLedger& cash_;
  const IdentityRegistry& registry_;
  /// Deposit per identity ordinal; grows to the highest ordinal posted.
  std::vector<Money> deposits_;
  Money total_;

  obs::Counter* posted_counter_ = nullptr;
  obs::Counter* refunded_counter_ = nullptr;
  obs::Counter* seized_counter_ = nullptr;
  obs::Counter* seized_micros_counter_ = nullptr;
  /// Escrow is itself a cash holder; use a dedicated pseudo-account so the
  /// CashLedger's conservation invariant covers posted deposits too.
  static constexpr AccountId escrow_account() {
    return AccountId{static_cast<std::uint64_t>(-2)};
  }
};

}  // namespace fnda
