// Golden pin for the experiment runner: the exact bit patterns of every
// RunningStats in a ComparisonResult (count, mean, variance, sum, min,
// max of the Pareto benchmark and of all four accumulators per protocol),
// folded into one FNV-1a digest per (runner, book).  The seven protocols
// cover every scoring path: deficit-running VCG (validated with
// allow_deficit), the randomized lottery protocol, and tpd-rebate, whose
// rebates flow into except_auctioneer.  Any change to the draw order, the
// RNG streams, the accumulation order, validation side effects or the
// surplus arithmetic moves a digest; a faster scorer must leave them all
// untouched.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "protocols/efficient.h"
#include "protocols/kda.h"
#include "protocols/pmd.h"
#include "protocols/random_threshold.h"
#include "protocols/tpd.h"
#include "protocols/tpd_rebate.h"
#include "protocols/vcg.h"
#include "sim/experiment.h"

namespace fnda {
namespace {

class StatsDigest {
 public:
  void add(const RunningStats& stats) {
    fold(static_cast<std::uint64_t>(stats.count()));
    for (const double x : {stats.mean(), stats.variance(), stats.sum(),
                           stats.min(), stats.max()}) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &x, sizeof bits);
      fold(bits);
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  void fold(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffu;
      hash_ *= 1099511628211ull;
    }
  }
  std::uint64_t hash_ = 1469598103934665603ull;
};

std::uint64_t digest(const ComparisonResult& result) {
  StatsDigest d;
  d.add(result.pareto);
  d.add(result.pareto_trades);
  for (const ProtocolSummary& s : result.protocols) {
    d.add(s.total);
    d.add(s.except_auctioneer);
    d.add(s.auctioneer);
    d.add(s.trades);
  }
  return d.value();
}

/// Human-readable dump printed when a digest moves, so a failure shows
/// which accumulator drifted.
std::string describe(const ComparisonResult& result) {
  std::ostringstream os;
  os.precision(17);
  os << "pareto mean " << result.pareto.mean() << " trades "
     << result.pareto_trades.mean() << '\n';
  for (const ProtocolSummary& s : result.protocols) {
    os << s.name << ": total " << s.total.mean() << " except "
       << s.except_auctioneer.mean() << " auctioneer " << s.auctioneer.mean()
       << " trades " << s.trades.mean() << '\n';
  }
  return os.str();
}

struct GoldenBook {
  const char* name;
  InstanceGenerator generator;
  std::size_t instances;
  std::uint64_t sequential;  ///< run_comparison
  std::uint64_t parallel;    ///< run_comparison_parallel, any thread count
};

class ComparisonGoldenTest : public testing::Test {
 protected:
  const TpdProtocol tpd_{money(50)};
  const PmdProtocol pmd_;
  const KDoubleAuction kda_{0.5};
  const EfficientClearing efficient_;
  const VcgDoubleAuction vcg_;
  const RandomThresholdProtocol random_threshold_{money(50)};
  const TpdWithRebates tpd_rebate_{money(50)};
  const std::vector<const DoubleAuctionProtocol*> protocols_ = {
      &tpd_, &pmd_, &kda_, &efficient_, &vcg_, &random_threshold_,
      &tpd_rebate_};

  ExperimentConfig config(std::size_t instances) const {
    ExperimentConfig c;
    c.instances = instances;
    c.seed = 20010416;
    c.validation.allow_deficit = true;  // VCG runs a deficit by design
    return c;
  }
};

const std::vector<GoldenBook>& golden_books() {
  static const std::vector<GoldenBook> books = {
      {"5x5", fixed_count_generator(5, 5), 300, 0x170d0aea43b679d3ull,
       0xec5b05255af70a43ull},
      {"binomial(40)", binomial_count_generator(40), 200,
       0x9722a4f6f1afda4eull, 0x085afee166888759ull},
      {"500x500", fixed_count_generator(500, 500), 12, 0x70d3aba8cf1a77e2ull,
       0x96964681d91cd4f8ull},
  };
  return books;
}

TEST_F(ComparisonGoldenTest, SequentialRunnerIsBitIdenticalToPin) {
  for (const GoldenBook& book : golden_books()) {
    SCOPED_TRACE(book.name);
    const ComparisonResult result =
        run_comparison(book.generator, protocols_, config(book.instances));
    ASSERT_EQ(result.pareto.count(), book.instances);
    EXPECT_EQ(digest(result), book.sequential)
        << std::hex << "0x" << digest(result) << '\n'
        << describe(result);
  }
}

TEST_F(ComparisonGoldenTest, ParallelRunnerIsBitIdenticalToPinAtThreads1And4) {
  for (const GoldenBook& book : golden_books()) {
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE(testing::Message() << book.name << " threads " << threads);
      const ComparisonResult result = run_comparison_parallel(
          book.generator, protocols_, config(book.instances), threads);
      ASSERT_EQ(result.pareto.count(), book.instances);
      EXPECT_EQ(digest(result), book.parallel)
          << std::hex << "0x" << digest(result) << '\n'
          << describe(result);
    }
  }
}

}  // namespace
}  // namespace fnda
