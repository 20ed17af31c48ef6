// Append-only audit log.
//
// Every externally visible event at the exchange — round lifecycle, bid
// acceptance/rejection, clears, deliveries, confiscations, refunds — is
// recorded with its simulated timestamp.  The log supports filtering for
// tests and a compact dump for the examples.
//
// The log keeps every record of the session, so it stores them at a small
// fixed size: the exchange's own events are typed 40-byte records (ids,
// amounts, side, rejection reason) whose detail text is formatted only
// when a record is read.  Free-text records (append) keep their string in
// a side table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/money.h"
#include "core/bid.h"
#include "market/clock.h"

namespace fnda {

enum class AuditKind : std::uint8_t {
  kRoundOpened,
  kBidAccepted,
  kBidRejected,
  kRoundCleared,
  kDelivery,
  kDeliveryFailed,
  kDepositConfiscated,
  kDepositRefunded,
};

const char* to_string(AuditKind kind);

/// Why the server rejected a submission.
enum class RejectReason : std::uint8_t {
  kRoundNotOpen,
  kIdentityAlreadyBid,
  kInsufficientDeposit,
  kValueOutsideDomain,
};

/// The reason as the server reports it ("insufficient deposit", ...).
const char* to_string(RejectReason reason);

/// One record as read back: the detail line is formatted on the way out.
struct AuditRecord {
  SimTime at;
  RoundId round;
  AuditKind kind;
  std::string detail;
};

/// "t=12000 round-0 bid-accepted id-3 buyer@9" (no detail, no trailing
/// space when the detail is empty).
std::string to_string(const AuditRecord& record);

class AuditLog {
 public:
  /// Free-text record.
  void append(SimTime at, RoundId round, AuditKind kind, std::string detail);

  // Typed records; the comment shows each one's detail text.
  /// "id-7 buyer@9.5"
  void bid_accepted(SimTime at, RoundId round, IdentityId identity, Side side,
                    Money value);
  /// "id-7 buyer@9.5: insufficient deposit"
  void bid_rejected(SimTime at, RoundId round, IdentityId identity, Side side,
                    Money value, RejectReason reason);
  /// "3 trades, revenue 1.5"
  void round_cleared(SimTime at, RoundId round, std::size_t trades,
                     Money revenue);
  /// "id-3 -> id-4"
  void delivery(SimTime at, RoundId round, IdentityId seller,
                IdentityId buyer);
  /// "id-3"
  void delivery_failed(SimTime at, RoundId round, IdentityId seller);
  /// "id-3 10" (kDepositConfiscated or kDepositRefunded)
  void deposit(SimTime at, RoundId round, AuditKind kind, IdentityId identity,
               Money amount);

  std::size_t size() const { return records_.size(); }
  SimTime time_of(std::size_t index) const { return records_[index].at; }
  /// The record at `index` (0 = oldest), detail formatted.
  AuditRecord record(std::size_t index) const;

  /// Every record, formatted (a copy; prefer size()/record() to read a
  /// few).
  std::vector<AuditRecord> records() const;
  std::size_t count(AuditKind kind) const;
  std::vector<AuditRecord> for_round(RoundId round) const;

  /// One to_string(record) line per record, each ending in '\n'.
  std::string dump() const;

 private:
  /// How a stored record's detail is formatted.
  enum class Shape : std::uint8_t {
    kEmpty,     // no detail
    kText,      // texts_[a]
    kBid,       // identity a, side, value b
    kRejected,  // kBid plus ": " reason
    kCleared,   // a trades, revenue b
    kPair,      // identity a -> identity b
    kIdentity,  // identity a
    kAmount,    // identity a, amount b
  };
  struct Stored {
    SimTime at;
    RoundId round;
    std::uint64_t a = 0;
    std::int64_t b = 0;
    AuditKind kind{};
    Shape shape{};
    bool seller = false;
    RejectReason reason{};
  };
  static_assert(sizeof(Stored) <= 40);

  void push(SimTime at, RoundId round, AuditKind kind, Shape shape,
            std::uint64_t a, std::int64_t b, Side side = Side::kBuyer,
            RejectReason reason = RejectReason::kRoundNotOpen);
  void append_detail(std::string& out, const Stored& stored) const;

  std::vector<Stored> records_;
  std::vector<std::string> texts_;
};

}  // namespace fnda
