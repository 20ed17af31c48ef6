// Outcome invariant checking.
//
// These checks encode the properties Section 2 demands of any acceptable
// protocol run: material feasibility, individual rationality with respect
// to *declared* values, and a budget-balancing (never subsidising)
// auctioneer.  Tests and the market server run every outcome through them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/order_book.h"
#include "core/outcome.h"

namespace fnda {

/// Validation findings; empty means the outcome satisfies every invariant.
using ValidationErrors = std::vector<std::string>;

/// Relaxations for protocols that intentionally break an invariant.
struct ValidationOptions {
  /// VCG runs a budget deficit by design; set this to skip the
  /// non-negative-auctioneer-revenue check.
  bool allow_deficit = false;
};

/// Checks `outcome` against the book it was cleared from:
///   - units bought == units sold (goods are conserved);
///   - every fill references a bid present in the book, on the right side;
///   - no single-unit bid fills more than once;
///   - declared individual rationality: a buyer never pays above its
///     declared value, a seller never receives below its declared value;
///   - auctioneer revenue is non-negative.
ValidationErrors validate_outcome(const OrderBook& book,
                                  const Outcome& outcome,
                                  const ValidationOptions& options = {});

/// Same checks against a rank-ordered view: the invariants are functions
/// of the declaration *set*, so a SortedBook (or any incrementally
/// maintained ranking of the same declarations) validates identically.
/// This is the overload the market server's live-book clearing path uses.
ValidationErrors validate_outcome(const SortedBook& book,
                                  const Outcome& outcome,
                                  const ValidationOptions& options = {});

/// Reusable lookup scratch for the per-round hot path.  Books assign bid
/// ids densely (0..n-1 across both sides), so the per-call hash tables
/// the plain overloads build become persistent-capacity arrays indexed by
/// id; a round-frequency caller passing the same scratch re-validates
/// with zero allocation after warm-up.  Falls back to the hashed path —
/// same errors, same order, byte-identical strings — if the ids of the
/// book at hand turn out not to be dense.
struct ValidationScratch {
  std::vector<const BidEntry*> buyer_by_id;
  std::vector<const BidEntry*> seller_by_id;
  /// All zero between validations: each one resets what it counted.
  std::vector<std::uint32_t> fill_counts;
  /// Whether the last bind found dense ids (else: the hashed path).
  bool dense = false;
};

ValidationErrors validate_outcome(const SortedBook& book,
                                  const Outcome& outcome,
                                  ValidationScratch& scratch,
                                  const ValidationOptions& options = {});

/// Binds `scratch` to `book` once for several outcomes cleared from it:
/// the id-indexed lanes are filled here, so each validate_bound_outcome
/// afterwards touches only its own outcome's fills.  Re-bind whenever the
/// book changes.
void bind_validation_scratch(const SortedBook& book,
                             ValidationScratch& scratch);

/// validate_outcome against the book `scratch` was last bound to (pass
/// that same book); same errors, same order, same strings.
ValidationErrors validate_bound_outcome(const SortedBook& book,
                                        const Outcome& outcome,
                                        ValidationScratch& scratch,
                                        const ValidationOptions& options = {});

/// Throws std::logic_error listing all violations if any check fails.
void expect_valid_outcome(const OrderBook& book, const Outcome& outcome,
                          const ValidationOptions& options = {});
void expect_valid_outcome(const SortedBook& book, const Outcome& outcome,
                          const ValidationOptions& options = {});
void expect_valid_outcome(const SortedBook& book, const Outcome& outcome,
                          ValidationScratch& scratch,
                          const ValidationOptions& options = {});
void expect_valid_bound_outcome(const SortedBook& book,
                                const Outcome& outcome,
                                ValidationScratch& scratch,
                                const ValidationOptions& options = {});

}  // namespace fnda
