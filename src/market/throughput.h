// Throughput workload: ZI-trader sessions on the sharded exchange.
//
// Drives `clients` zero-intelligence traders (random valuations, truthful
// declarations — the ZI-C budget constraint) through `rounds` call-market
// rounds on a MultiServerExchange, and reports the message/bid/trade
// volumes the session generated.  The bench and the CLI `market-bench`
// subcommand wrap this with wall-clock timing; keeping the workload here
// makes the experiment reproducible from both.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/live_book.h"
#include "core/protocol.h"
#include "market/bus.h"
#include "market/clock.h"
#include "market/multi_exchange.h"
#include "obs/telemetry.h"

namespace fnda {

struct ThroughputConfig {
  std::size_t clients = 10'000;
  std::size_t rounds = 3;
  std::size_t shards = 4;
  /// Worker threads driving the shards (0 = hardware concurrency,
  /// clamped to `shards`).  Results are bit-identical for every value.
  std::size_t threads = 1;
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
  /// Bus latency model (jitter spreads same-round submissions over time).
  SimTime base_latency{1'000};
  SimTime jitter{500};
  SimTime open_for = SimTime::millis(100);
  /// Completed rounds retained per shard; bounds memory in long sessions.
  std::size_t retained_rounds = 2;
  std::uint64_t seed = 1;
  /// ZI valuation range (units).
  std::int64_t value_low = 1;
  std::int64_t value_high = 100;
  /// Session telemetry; sim-time mode keeps the snapshot and trace
  /// bit-identical for every `threads` value.
  obs::TelemetryOptions telemetry{};
};

struct ThroughputResult {
  std::size_t clients = 0;
  std::size_t rounds = 0;
  std::size_t shards = 0;
  /// Resolved worker count the session actually ran with.
  std::size_t threads = 0;
  std::size_t bids_accepted = 0;
  std::size_t trades = 0;
  SimTime sim_time{};
  /// Merged transport counters (conservation holds here)...
  BusStats bus{};
  /// ...and the per-shard breakdown, for load-imbalance reporting.
  std::vector<BusStats> shard_bus;
  /// Merged incremental-ranking counters across all shards (inserts,
  /// entries shifted, tie fixups; sorts_at_close stays 0 — the bench
  /// records these as the zero-sort-at-close evidence).
  LiveBookStats book{};
  /// Fork-join drives across the whole session (one join each);
  /// identical for every `threads` value.
  EpochStats epoch{};
  /// Unified session metrics (empty when telemetry was disabled), merged
  /// driver-then-shards in shard order at session end.
  obs::MetricsSnapshot metrics;
  /// Flushed trace spans (empty when telemetry was disabled).
  obs::TraceLog trace;
};

/// Runs one ZI session and returns its volumes.  Deterministic in
/// `config.seed`.
ThroughputResult run_throughput_session(const DoubleAuctionProtocol& protocol,
                                        const ThroughputConfig& config);

}  // namespace fnda
