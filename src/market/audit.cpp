#include "market/audit.h"

#include <utility>

namespace fnda {
namespace {

// Detail text is exactly what the stream operators print (ids are prefix
// + decimal, Money is Money::to_string), without paying for a stream per
// record.
template <typename Tag>
void append_id(std::string& out, TypedId<Tag> id) {
  out += Tag::prefix();
  out += std::to_string(id.value());
}

}  // namespace

const char* to_string(AuditKind kind) {
  switch (kind) {
    case AuditKind::kRoundOpened: return "round-opened";
    case AuditKind::kBidAccepted: return "bid-accepted";
    case AuditKind::kBidRejected: return "bid-rejected";
    case AuditKind::kRoundCleared: return "round-cleared";
    case AuditKind::kDelivery: return "delivery";
    case AuditKind::kDeliveryFailed: return "delivery-failed";
    case AuditKind::kDepositConfiscated: return "deposit-confiscated";
    case AuditKind::kDepositRefunded: return "deposit-refunded";
  }
  return "?";
}

const char* to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::kRoundNotOpen: return "round not open";
    case RejectReason::kIdentityAlreadyBid:
      return "identity already bid this round";
    case RejectReason::kInsufficientDeposit: return "insufficient deposit";
    case RejectReason::kValueOutsideDomain: return "value outside domain";
  }
  return "?";
}

std::string to_string(const AuditRecord& record) {
  std::string out = "t=";
  out += std::to_string(record.at.micros);
  out += ' ';
  append_id(out, record.round);
  out += ' ';
  out += to_string(record.kind);
  if (!record.detail.empty()) {
    out += ' ';
    out += record.detail;
  }
  return out;
}

void AuditLog::push(SimTime at, RoundId round, AuditKind kind, Shape shape,
                    std::uint64_t a, std::int64_t b, Side side,
                    RejectReason reason) {
  records_.push_back(
      Stored{at, round, a, b, kind, shape, side == Side::kSeller, reason});
}

void AuditLog::append(SimTime at, RoundId round, AuditKind kind,
                      std::string detail) {
  if (detail.empty()) {
    push(at, round, kind, Shape::kEmpty, 0, 0);
    return;
  }
  push(at, round, kind, Shape::kText, texts_.size(), 0);
  texts_.push_back(std::move(detail));
}

void AuditLog::bid_accepted(SimTime at, RoundId round, IdentityId identity,
                            Side side, Money value) {
  push(at, round, AuditKind::kBidAccepted, Shape::kBid, identity.value(),
       value.micros(), side);
}

void AuditLog::bid_rejected(SimTime at, RoundId round, IdentityId identity,
                            Side side, Money value, RejectReason reason) {
  push(at, round, AuditKind::kBidRejected, Shape::kRejected, identity.value(),
       value.micros(), side, reason);
}

void AuditLog::round_cleared(SimTime at, RoundId round, std::size_t trades,
                             Money revenue) {
  push(at, round, AuditKind::kRoundCleared, Shape::kCleared, trades,
       revenue.micros());
}

void AuditLog::delivery(SimTime at, RoundId round, IdentityId seller,
                        IdentityId buyer) {
  push(at, round, AuditKind::kDelivery, Shape::kPair, seller.value(),
       static_cast<std::int64_t>(buyer.value()));
}

void AuditLog::delivery_failed(SimTime at, RoundId round, IdentityId seller) {
  push(at, round, AuditKind::kDeliveryFailed, Shape::kIdentity, seller.value(),
       0);
}

void AuditLog::deposit(SimTime at, RoundId round, AuditKind kind,
                       IdentityId identity, Money amount) {
  push(at, round, kind, Shape::kAmount, identity.value(), amount.micros());
}

void AuditLog::append_detail(std::string& out, const Stored& stored) const {
  const IdentityId identity{stored.a};
  switch (stored.shape) {
    case Shape::kEmpty:
      return;
    case Shape::kText:
      out += texts_[stored.a];
      return;
    case Shape::kBid:
    case Shape::kRejected:
      append_id(out, identity);
      out += ' ';
      out += to_string(stored.seller ? Side::kSeller : Side::kBuyer);
      out += '@';
      out += Money::from_micros(stored.b).to_string();
      if (stored.shape == Shape::kRejected) {
        out += ": ";
        out += to_string(stored.reason);
      }
      return;
    case Shape::kCleared:
      out += std::to_string(stored.a);
      out += " trades, revenue ";
      out += Money::from_micros(stored.b).to_string();
      return;
    case Shape::kPair:
      append_id(out, identity);
      out += " -> ";
      append_id(out, IdentityId{static_cast<std::uint64_t>(stored.b)});
      return;
    case Shape::kIdentity:
      append_id(out, identity);
      return;
    case Shape::kAmount:
      append_id(out, identity);
      out += ' ';
      out += Money::from_micros(stored.b).to_string();
      return;
  }
}

AuditRecord AuditLog::record(std::size_t index) const {
  const Stored& stored = records_[index];
  AuditRecord result{stored.at, stored.round, stored.kind, {}};
  append_detail(result.detail, stored);
  return result;
}

std::vector<AuditRecord> AuditLog::records() const {
  std::vector<AuditRecord> result;
  result.reserve(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    result.push_back(record(i));
  }
  return result;
}

std::size_t AuditLog::count(AuditKind kind) const {
  std::size_t n = 0;
  for (const Stored& stored : records_) {
    if (stored.kind == kind) ++n;
  }
  return n;
}

std::vector<AuditRecord> AuditLog::for_round(RoundId round) const {
  std::vector<AuditRecord> result;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].round == round) result.push_back(record(i));
  }
  return result;
}

std::string AuditLog::dump() const {
  std::string out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    out += to_string(record(i));
    out += '\n';
  }
  return out;
}

}  // namespace fnda
