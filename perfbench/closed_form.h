// Reference figures the benchmark computes apart from the program: TPD's
// closed form (§5 of the paper), the Pareto-efficient surplus, and a
// seeded generator for the benchmark's own inputs.  Values are integer
// micro-units, the program's Money representation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64: the benchmark draws its inputs with this, not with the
/// program's generators, so the reference figures do not share code with
/// what they check.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo + 1);
    return lo + static_cast<std::int64_t>(next() % span);
  }

 private:
  std::uint64_t state_;
};

inline constexpr std::int64_t kMicros = 1'000'000;

/// TPD at threshold r on one truthful book: with i buyers at or above r
/// and j sellers at or below r, min(i, j) trade.  If i == j everyone pays
/// and receives r; if i > j buyers pay b(j+1) and sellers receive r; if
/// i < j buyers pay r and sellers receive s(i+1).
struct TpdClosedForm {
  std::size_t trades = 0;
  std::int64_t buyer_price = 0;
  std::int64_t seller_price = 0;
};

inline TpdClosedForm tpd_closed_form(std::vector<std::int64_t> buyers,
                                     std::vector<std::int64_t> sellers,
                                     std::int64_t r) {
  std::sort(buyers.begin(), buyers.end(), std::greater<>());
  std::sort(sellers.begin(), sellers.end());
  std::size_t i = 0;
  while (i < buyers.size() && buyers[i] >= r) ++i;
  std::size_t j = 0;
  while (j < sellers.size() && sellers[j] <= r) ++j;
  TpdClosedForm form;
  form.trades = std::min(i, j);
  form.buyer_price = i > j ? buyers[j] : r;
  form.seller_price = i < j ? sellers[i] : r;
  return form;
}

/// Pareto-efficient surplus: pair the highest buyers with the lowest
/// sellers while the pair gains from trade.
inline std::int64_t efficient_surplus(std::vector<std::int64_t> buyers,
                                      std::vector<std::int64_t> sellers) {
  std::sort(buyers.begin(), buyers.end(), std::greater<>());
  std::sort(sellers.begin(), sellers.end());
  std::int64_t total = 0;
  for (std::size_t k = 0; k < std::min(buyers.size(), sellers.size()); ++k) {
    if (buyers[k] <= sellers[k]) break;
    total += buyers[k] - sellers[k];
  }
  return total;
}

/// Checks tpd_closed_form against the paper's Examples 3 and 4 (buyers
/// 9 > 8 > 7 > 4).  Returns an empty string when every case matches.
inline std::string check_closed_form_on_paper_examples() {
  auto m = [](double units) {
    return static_cast<std::int64_t>(units * kMicros + 0.5);
  };
  const std::vector<std::int64_t> buyers = {m(9), m(8), m(7), m(4)};
  struct Case {
    const char* what;
    std::vector<std::int64_t> buyers;
    std::vector<std::int64_t> sellers;
    double r;
    std::size_t trades;
    double buyer_price;
    double seller_price;
  };
  std::vector<std::int64_t> buyers_fake = buyers;
  buyers_fake.push_back(m(4.8));
  const Case cases[] = {
      {"Example 3, truthful", buyers, {m(2), m(3), m(4), m(5)}, 4.5, 3, 4.5,
       4.5},
      {"Example 3, false buyer 4.8", buyers_fake, {m(2), m(3), m(4), m(5)},
       4.5, 3, 4.8, 4.5},
      {"Example 4, r = 6", buyers, {m(2), m(3), m(4), m(12)}, 6, 3, 6, 6},
      {"Example 4, r = 7.5", buyers, {m(2), m(3), m(4), m(12)}, 7.5, 2, 7.5,
       4},
      {"Example 4, r = 7.5, false seller 6", buyers,
       {m(2), m(3), m(4), m(6), m(12)}, 7.5, 2, 7.5, 4},
  };
  for (const Case& c : cases) {
    const TpdClosedForm form = tpd_closed_form(c.buyers, c.sellers, m(c.r));
    if (form.trades != c.trades || form.buyer_price != m(c.buyer_price) ||
        form.seller_price != m(c.seller_price)) {
      return std::string("closed-form TPD disagrees with ") + c.what;
    }
  }
  return {};
}

}  // namespace perfbench
