// Trading clients.
//
// A client is one *account* pursuing one strategy.  On every round-open
// broadcast it mints a fresh identity per declaration (false names are
// free), posts the required deposit, and submits its bids over the bus.
// Truthful clients have a single own-side declaration; attackers carry
// whatever Strategy they were configured with.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/flat_set.h"
#include "market/bus.h"
#include "market/clock.h"
#include "market/escrow.h"
#include "market/identity.h"
#include "mechanism/strategy.h"
#include "mechanism/utility.h"

namespace fnda {

struct ClientConfig {
  /// Deposit posted for each freshly minted identity.
  Money deposit_per_identity = Money::from_units(10);
  /// Retransmit an unacked bid after this long; zero disables retries.
  /// The server acks identical retransmissions idempotently, so retrying
  /// over a lossy bus is safe.
  SimTime retry_interval{0};
  /// Retransmissions per bid before giving up.
  std::size_t max_retries = 3;
};

class TradingClient : public Endpoint {
 public:
  TradingClient(std::string address, AccountId account, Side role,
                Money true_value, EventQueue& queue, MessageBus& bus,
                IdentityRegistry& registry, EscrowService& escrow,
                std::string server_address, ClientConfig config = {});

  /// Replaces the default truthful strategy.
  void set_strategy(Strategy strategy) { strategy_ = std::move(strategy); }

  /// Deferred mode (adversarial co-simulation): round-open announcements
  /// are latched instead of answered, and the bids go out only when the
  /// scheduler calls `submit_pending()` — after it has finished planning
  /// this round's strategy against the previous round's book.  The
  /// submission path (identity minting, deposits, retries) is byte-for-
  /// byte the immediate one, just time-shifted to the caller's instant.
  void set_deferred(bool deferred) { deferred_ = deferred; }

  /// Submits the latched round's bids with the current strategy; no-op
  /// when no announcement is pending.  Returns the number of declarations
  /// submitted.
  std::size_t submit_pending();

  /// True when a round-open announcement is latched and unanswered.
  bool has_pending_round() const { return pending_.has_value(); }

  void on_message(const Envelope& envelope) override;

  AccountId account() const { return account_; }
  Side role() const { return role_; }
  Money true_value() const { return true_value_; }
  const std::string& address() const { return address_; }
  AddressId address_id() const { return address_id_; }

  /// Aggregate cleared position across all of this account's identities,
  /// reconstructed from fill notices.
  const AccountPosition& position() const { return position_; }

  /// Quasi-linear utility of the position as *announced* (before
  /// settlement cancellations); the exchange-level utility from ledgers is
  /// the authoritative number.
  double announced_utility(const UtilityModel& model = UtilityModel{}) const {
    return model.evaluate(role_, true_value_, position_);
  }

  std::size_t bids_accepted() const { return accepted_; }
  std::size_t bids_rejected() const { return rejected_; }
  std::size_t retransmissions() const { return retransmissions_; }
  std::size_t rounds_seen() const { return rounds_seen_; }
  std::size_t settlement_failures() const { return settlement_failures_; }
  const std::vector<FillNoticeMsg>& fills() const { return fills_; }
  const std::vector<IdentityId>& identities() const { return identities_; }

 private:
  void on_round_open(const RoundOpenMsg& msg);
  void submit_round(const RoundOpenMsg& msg);
  void submit_with_retry(const SubmitBidMsg& msg, SimTime deadline,
                         std::size_t retries_left);

  std::string address_;
  AddressId address_id_;
  AccountId account_;
  Side role_;
  Money true_value_;
  EventQueue& queue_;
  MessageBus& bus_;
  IdentityRegistry& registry_;
  EscrowService& escrow_;
  AddressId server_id_;
  ClientConfig config_;
  Strategy strategy_;

  /// Ids retained per dedup generation.  A duplicate carries its
  /// original's message id and arrives within one latency window of it,
  /// while a client receives a few dozen messages per round at most, so a
  /// small window catches every duplicate — the bus default (65,536 per
  /// generation) would let each client's filter grow towards 2 MB.
  static constexpr std::size_t kDedupWindow = 64;

  std::vector<IdentityId> identities_;
  std::vector<FillNoticeMsg> fills_;
  AccountPosition position_;
  DedupFilter dedup_{kDedupWindow};
  std::size_t accepted_ = 0;
  std::size_t rejected_ = 0;
  std::size_t rounds_seen_ = 0;
  std::size_t settlement_failures_ = 0;
  std::size_t retransmissions_ = 0;
  /// This round's identities whose bid the server has acknowledged
  /// (either way).  Cleared when the next round is announced: every
  /// driver runs the exchange to quiescence before opening a round, so
  /// no ack for an earlier round is still in flight by then.
  FlatU64Set acked_;
  /// Lowest round id not yet bid in: round-open heartbeats repeat
  /// announcements, and a server's round ids only rise.
  std::uint64_t next_round_ = 0;
  /// Deferred mode: latch announcements for submit_pending().
  bool deferred_ = false;
  std::optional<RoundOpenMsg> pending_;
};

}  // namespace fnda
