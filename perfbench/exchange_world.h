// The one place the benchmark constructs a MultiServerExchange, plus the
// per-round checks both exchange workloads share.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bench.h"
#include "closed_form.h"
#include "market/multi_exchange.h"

namespace perfbench {

struct ExchangeSpec {
  std::size_t shards = 4;
  std::size_t threads = 2;
  /// Rounds the session will run (sizes the cash and goods endowments).
  std::size_t rounds = 1;
  /// Most declarations any trader posts per round (deposit headroom).
  std::size_t max_declarations = 1;
  std::uint64_t seed = 1;
  bool telemetry = true;
};

/// A live exchange plus the benchmark's own record of what it granted and
/// which values it drew, per shard.
struct ExchangeWorld {
  std::unique_ptr<fnda::MultiServerExchange> exchange;
  std::size_t rounds = 0;
  std::int64_t cash_granted_micros = 0;
  std::size_t goods_granted = 0;
  /// Truthful traders' values by shard and side (what ZI traders bid).
  std::vector<std::vector<std::int64_t>> honest_buyers;
  std::vector<std::vector<std::int64_t>> honest_sellers;
  std::vector<fnda::TradingClient*> traders;

  /// Adds a trader, endowing a seller with one unit for every round.
  fnda::TradingClient& add_trader(fnda::Side role, std::int64_t value_units,
                                  bool honest);
};

ExchangeWorld build_exchange(const fnda::DoubleAuctionProtocol& protocol,
                             const ExchangeSpec& spec);

/// After the session's last round: bids the clients saw rejected, cash
/// and goods conservation, and zero escrow once the market is closed.
/// Closes the market.
void close_and_check(ExchangeWorld& world, Report& report, OpCounts& ops);

/// Market, core and protocols figures of one session's timed rounds: the
/// counters the exchange exposes, read before and after, plus probes run
/// after the last round on its retained books.
struct LayerSample {
  double drive_ns = 0.0;      ///< filled by the caller
  std::size_t bids = 0;       ///< accepted in timed rounds, by the caller
  std::size_t rounds = 0;
  std::size_t delivered = 0;
  std::size_t barriers = 0;
  double shard_skew = 0.0;
  double rss_mb_per_round = 0.0;
  double live_book_add_ns = 0.0;
  double finalize_ties_us = 0.0;
  double entries_shifted_per_insert = 0.0;
  double sorts_at_close = 0.0;
  std::vector<double> tpd_clear_us;
  std::vector<double> pmd_clear_us;
  /// Probe clearings whose trade count differs from the stored outcome's
  /// (TPD, the exchange's protocol) or exceeds the short side (PMD).
  std::size_t probe_mismatches = 0;
};

class LayerProbe {
 public:
  /// Before the first timed round.
  void start(const fnda::MultiServerExchange& exchange);
  /// After the last timed round (`rounds`: its ids, one per shard).
  /// Replays shard 0's retained book into a fresh LiveBook in a seeded
  /// shuffled order and clears every retained book under TPD and PMD.
  void finish(const fnda::MultiServerExchange& exchange,
              const std::vector<fnda::RoundId>& rounds,
              std::size_t timed_rounds, std::uint64_t seed,
              LayerSample& out) const;

 private:
  fnda::BusStats bus_;
  fnda::EpochStats epoch_;
  double rss_mb_ = 0.0;
};

/// One exchange session's timed rounds.
struct SessionTimes {
  double setup_s = 0.0;
  double timed_s = 0.0;
  std::size_t bids_accepted = 0;
  std::vector<double> round_ms;
  std::vector<double> traced_round_ms;
  std::vector<double> untraced_round_ms;
  LayerSample layers;  // traced sessions only

  /// Records a timed round that ran from `start_ns` to `end_ns`, spent
  /// `drive_ns` of it driving shards, and accepted `accepted` bids.
  void add_round(std::uint64_t start_ns, std::uint64_t end_ns,
                 std::uint64_t drive_ns, std::size_t accepted, bool traced);
};

/// The metrics both exchange workloads take from their sessions.  `on`
/// ran with telemetry, `off` (traced runs only) without.  Untraced: the
/// end-to-end set.  Traced: the market.*, core.* and protocols.* layer
/// figures, the tracing overhead, the telemetry share, the round p90 and
/// the self times.
void report_exchange_run(const std::vector<SessionTimes>& on,
                         const std::vector<SessionTimes>& off, bool trace,
                         Report& report);

/// Validates every shard's outcome of one completed round against its
/// ranked book (feasibility, individual rationality, budget balance) and
/// counts the clearings.  Returns the bids the round accepted.
std::size_t validate_round(const fnda::MultiServerExchange& exchange,
                           const std::vector<fnda::RoundId>& rounds,
                           OpCounts& ops);

}  // namespace perfbench
