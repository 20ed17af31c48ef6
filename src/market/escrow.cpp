#include "market/escrow.h"

#include <stdexcept>

namespace fnda {

void EscrowService::bind_metrics(obs::MetricsRegistry& registry) {
  posted_counter_ = &registry.counter("fnda_escrow_posted_total");
  refunded_counter_ = &registry.counter("fnda_escrow_refunded_total");
  seized_counter_ = &registry.counter("fnda_escrow_seized_total");
  seized_micros_counter_ =
      &registry.counter("fnda_escrow_seized_micros_total");
  registry.gauge_fn(
      "fnda_escrow_held_micros",
      [this] { return total_held().micros(); }, obs::GaugeMerge::kSum);
}

void EscrowService::post(IdentityId identity, AccountId payer, Money amount) {
  const std::size_t slot = registry_.ordinal(identity);
  if (slot == IdentityRegistry::kNoOrdinal) {
    throw std::out_of_range("EscrowService::post: identity outside namespace");
  }
  if (slot >= deposits_.size()) deposits_.resize(slot + 1);
  cash_.transfer(payer, escrow_account(), amount);
  deposits_[slot] += amount;
  total_ += amount;
  if (posted_counter_ != nullptr) posted_counter_->add();
}

void EscrowService::refund(IdentityId identity, AccountId payee) {
  const std::size_t slot = registry_.ordinal(identity);
  if (slot >= deposits_.size() || deposits_[slot] == Money{}) return;
  cash_.transfer(escrow_account(), payee, deposits_[slot]);
  total_ -= deposits_[slot];
  deposits_[slot] = Money{};
  if (refunded_counter_ != nullptr) refunded_counter_->add();
}

Money EscrowService::confiscate(IdentityId identity, AccountId exchange) {
  const std::size_t slot = registry_.ordinal(identity);
  if (slot >= deposits_.size() || deposits_[slot] == Money{}) return Money{};
  const Money seized = deposits_[slot];
  cash_.transfer(escrow_account(), exchange, seized);
  total_ -= seized;
  deposits_[slot] = Money{};
  if (seized_counter_ != nullptr) {
    seized_counter_->add();
    seized_micros_counter_->add(static_cast<std::uint64_t>(seized.micros()));
  }
  return seized;
}

Money EscrowService::held(IdentityId identity) const {
  const std::size_t slot = registry_.ordinal(identity);
  return slot < deposits_.size() ? deposits_[slot] : Money{};
}

std::vector<IdentityId> EscrowService::identities_with_deposits() const {
  std::vector<IdentityId> result;
  for (std::size_t slot = 0; slot < deposits_.size(); ++slot) {
    if (deposits_[slot] <= Money{}) continue;
    result.push_back(registry_.identity_at(slot));
  }
  return result;
}

}  // namespace fnda
