#include "market/identity.h"

#include <stdexcept>

namespace fnda {

AccountId IdentityRegistry::create_account() {
  return AccountId{next_account_++};
}

IdentityId IdentityRegistry::register_identity(AccountId account) {
  const IdentityId identity = identity_at(owners_.size());
  owners_.push_back(account);
  return identity;
}

AccountId IdentityRegistry::owner(IdentityId identity) const {
  const std::size_t index = ordinal(identity);
  if (index >= owners_.size()) {
    throw std::out_of_range("IdentityRegistry::owner: unknown identity");
  }
  return owners_[index];
}

std::vector<IdentityId> IdentityRegistry::identities_of(
    AccountId account) const {
  std::vector<IdentityId> result;
  for (std::size_t i = 0; i < owners_.size(); ++i) {
    if (owners_[i] == account) result.push_back(identity_at(i));
  }
  return result;
}

}  // namespace fnda
