// Account and identity management.
//
// The paper's threat model in one class: accounts are real economic
// actors, identities are names minted at will.  The auction server never
// queries the account behind an identity (that is the whole point of a
// false-name bid); only settlement — physical delivery — pierces the veil,
// via owner(), which models "the fact that s_y is a false-name bid is
// brought to light".
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ids.h"

namespace fnda {

class IdentityRegistry {
 public:
  /// Reserved account for the exchange/auctioneer itself.
  static constexpr AccountId exchange_account() { return AccountId{0}; }

  IdentityRegistry() = default;
  /// Strided identity namespace: shard `s` of an S-shard exchange uses
  /// (first = s, stride = S), so every shard mints globally unique
  /// identity ids with no shared counter — and the ids a shard mints do
  /// not depend on what other shards do, which keeps parallel runs
  /// bit-identical.
  IdentityRegistry(std::uint64_t first_identity, std::uint64_t identity_stride)
      : first_identity_(first_identity),
        identity_stride_(identity_stride == 0 ? 1 : identity_stride) {}

  /// Opens a fresh trader account.
  AccountId create_account();

  /// Mints a new identity owned by `account`.  Unlimited and cheap —
  /// identifying participants on the Internet is "virtually impossible".
  IdentityId register_identity(AccountId account);

  /// The account behind an identity.  Settlement-time only.
  /// Throws std::out_of_range for identities this registry did not mint
  /// (another shard's residue class, past the minted count, invalid()).
  AccountId owner(IdentityId identity) const;

  /// All identities minted by one account (audit views), in mint order.
  std::vector<IdentityId> identities_of(AccountId account) const;

  /// Mint ordinal of an identity in this registry's namespace,
  /// (id - first) / stride, or kNoOrdinal when the id is outside the
  /// namespace.  Pure arithmetic: an in-namespace id need not be minted
  /// yet.  Per-identity stores (escrow deposits) index dense tables by it.
  static constexpr std::size_t kNoOrdinal = ~std::size_t{0};
  std::size_t ordinal(IdentityId identity) const {
    const std::uint64_t value = identity.value();
    if (value < first_identity_ || identity == IdentityId::invalid()) {
      return kNoOrdinal;
    }
    const std::uint64_t offset = value - first_identity_;
    if (offset % identity_stride_ != 0) return kNoOrdinal;
    return static_cast<std::size_t>(offset / identity_stride_);
  }
  /// The identity with a given mint ordinal (inverse of ordinal()).
  IdentityId identity_at(std::size_t ordinal) const {
    return IdentityId{first_identity_ + ordinal * identity_stride_};
  }

  std::size_t account_count() const { return next_account_ - 1; }
  std::size_t identity_count() const { return owners_.size(); }

 private:
  /// Owner per mint ordinal: identities are minted densely in their
  /// residue class, so one AccountId per identity and no hashing.
  std::vector<AccountId> owners_;
  std::uint64_t next_account_ = 1;  // 0 is the exchange
  std::uint64_t first_identity_ = 0;
  std::uint64_t identity_stride_ = 1;
};

}  // namespace fnda
