#include "market/multi_exchange.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <stdexcept>
#include <thread>

#include "common/sweep_kernel.h"

namespace fnda {

MultiServerExchange::MultiServerExchange(const DoubleAuctionProtocol& protocol,
                                         MultiExchangeConfig config)
    : config_(config),
      protocol_(&protocol),
      runtime_config_(config.server),
      paused_(config.shards == 0 ? 1 : config.shards, false) {
  if (config_.shards == 0) {
    throw std::invalid_argument("MultiServerExchange: shards must be >= 1");
  }
  threads_ = config_.threads;
  if (threads_ == 0) {
    threads_ = std::thread::hardware_concurrency();
    if (threads_ == 0) threads_ = 1;
  }
  threads_ = std::min(threads_, config_.shards);

  // RNG derivation order is part of the replay contract.  The seed root
  // hands out one stream for the bus layer, then one server stream per
  // shard in shard order — exactly the draws the shared-queue engine
  // made, so equal seeds reproduce the pre-sharding clearing seeds.  The
  // bus layer stream is the single bus's RNG when shards == 1 (making
  // that case bit-identical to ExchangeSimulation) and the parent of one
  // sub-stream per shard bus otherwise.
  Rng root(config_.seed);
  Rng bus_master = root.split();
  for (std::size_t s = 0; s < config_.shards; ++s) {
    Shard& shard = shards_.emplace_back();
    BusConfig bus_config = config_.bus;
    bus_config.first_message_id = s;
    bus_config.message_id_stride = config_.shards;
    const Rng bus_rng =
        config_.shards == 1 ? bus_master : bus_master.split();
    shard.bus =
        std::make_unique<MessageBus>(shard.queue, bus_config, bus_rng);
    shard.registry = IdentityRegistry(s, config_.shards);
    shard.escrow =
        std::make_unique<EscrowService>(shard.cash, shard.registry);
    shard.settlement = std::make_unique<SettlementEngine>(
        shard.registry, shard.cash, shard.goods, *shard.escrow);
    shard.server = std::make_unique<AuctionServer>(
        "exchange-" + std::to_string(s), shard.queue, *shard.bus, protocol,
        *shard.escrow, *shard.settlement, shard.audit, root.split(),
        config_.server);
  }

  if (config_.telemetry.enabled) {
    telemetry_ = std::make_unique<obs::SessionTelemetry>(config_.shards,
                                                         config_.telemetry);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      obs::ShardTelemetry& shard_telemetry = telemetry_->shard(s);
      if (config_.telemetry.wallclock) {
        shard_telemetry.trace.set_clock(
            [t = telemetry_.get()] { return t->wall_micros(); });
      } else {
        shard_telemetry.trace.set_clock(
            [q = &shards_[s].queue] { return q->now().micros; });
      }
      shards_[s].bus->bind_telemetry(shard_telemetry);
      shards_[s].server->bind_telemetry(shard_telemetry, *telemetry_);
      shards_[s].escrow->bind_metrics(shard_telemetry.metrics);
      shards_[s].settlement->bind_metrics(shard_telemetry.metrics);
      // Drive instruments live in each shard's own registry so the merged
      // snapshot folds them in canonical shard order.
      depth_hists_.push_back(
          &shard_telemetry.metrics.histogram("fnda_queue_depth"));
      depth_peaks_.push_back(&shard_telemetry.metrics.gauge(
          "fnda_queue_depth_peak", obs::GaugeMerge::kMax));
      if (config_.telemetry.wallclock) {
        join_wait_hists_.push_back(
            &shard_telemetry.metrics.histogram("fnda_epoch_shard_stall_us"));
      }
    }
    obs::MetricsRegistry& driver_registry = telemetry_->driver().metrics;
    driver_registry.counter_fn("fnda_epoch_barriers_total", [this] {
      return static_cast<std::uint64_t>(epoch_totals_.barriers);
    });
    if (config_.telemetry.wallclock) {
      telemetry_->driver().trace.set_clock(
          [t = telemetry_.get()] { return t->wall_micros(); });
    }
    // Threshold-sweep kernel utilization, exposed as deltas since bind:
    // the kernel counters are process-global (sim tools share them), so
    // anchoring at bind time keeps this session's metrics a function of
    // this session's work — zero for market sessions, which never sweep —
    // and therefore identical across kernel builds and thread counts.
    const simd::KernelCounters& kernel = simd::kernel_counters();
    driver_registry.counter_fn(
        "fnda_sweep_kernel_vector_elems_total",
        [&kernel, base = kernel.vector_elems.load(std::memory_order_relaxed)] {
          return kernel.vector_elems.load(std::memory_order_relaxed) - base;
        });
    driver_registry.counter_fn(
        "fnda_sweep_kernel_tail_elems_total",
        [&kernel, base = kernel.tail_elems.load(std::memory_order_relaxed)] {
          return kernel.tail_elems.load(std::memory_order_relaxed) - base;
        });
    driver_registry.counter_fn(
        "fnda_sweep_kernel_calls_total",
        [&kernel, base = kernel.calls.load(std::memory_order_relaxed)] {
          return kernel.calls.load(std::memory_order_relaxed) - base;
        });
  }
}

std::size_t MultiServerExchange::shard_of(AccountId account) const {
  // splitmix64 finalizer: a plain multiplicative hash keeps the low bits
  // of sequential account ids, which correlates shard with creation
  // parity (and thus with any alternating buyer/seller pattern).
  std::uint64_t x = account.value() + 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % shards_.size());
}

TradingClient& MultiServerExchange::add_trader(Side role, Money true_value) {
  return add_trader(role, true_value, Strategy::truthful(role, true_value));
}

TradingClient& MultiServerExchange::add_trader(Side role, Money true_value,
                                               Strategy strategy) {
  // Account ids come from one exchange-level counter (matching the old
  // shared registry), so shard_of and the account/shard assignment are
  // unchanged; everything behind the id lives on the home shard.
  const AccountId account{next_account_++};
  Shard& home = shards_[shard_of(account)];
  home.cash.grant(account, config_.initial_cash);
  if (role == Side::kSeller) home.goods.grant(account, 1);

  const std::string address = "trader-" + std::to_string(next_client_++);
  auto client = std::make_unique<TradingClient>(
      address, account, role, true_value, home.queue, *home.bus,
      home.registry, *home.escrow, home.server->address(), config_.client);
  client->set_strategy(std::move(strategy));
  home.server->subscribe(client->address_id());
  traders_.push_back(std::move(client));
  return *traders_.back();
}

std::vector<RoundId> MultiServerExchange::run_round(SimTime open_for) {
  std::vector<RoundId> rounds = open_rounds(open_for);
  drive_to_quiescence();
  return rounds;
}

std::vector<RoundId> MultiServerExchange::open_rounds(SimTime open_for) {
  // Round boundary: every shard is quiescent and this runs on the driver
  // thread, so promoting a pending config generation here is race-free
  // and, by construction, identical for every --threads value.
  if (runtime_config_.apply_pending(next_round_stamp_)) {
    for (Shard& shard : shards_) {
      shard.server->set_config(runtime_config_.active());
    }
  }
  ++next_round_stamp_;
  std::vector<RoundId> rounds;
  rounds.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (paused_[s]) {
      rounds.push_back(RoundId::invalid());
      continue;
    }
    rounds.push_back(shards_[s].server->open_round(open_for));
  }
  return rounds;
}

void MultiServerExchange::pause_shard(std::size_t shard) {
  paused_.at(shard) = true;
}

void MultiServerExchange::resume_shard(std::size_t shard) {
  paused_.at(shard) = false;
}

std::size_t MultiServerExchange::paused_count() const {
  std::size_t count = 0;
  for (const bool paused : paused_) count += paused ? 1 : 0;
  return count;
}

void MultiServerExchange::drive_until(const std::vector<SimTime>& bounds) {
  if (bounds.size() != shards_.size()) {
    throw std::invalid_argument("drive_until: one bound per shard required");
  }
  drive(&bounds);
}

void MultiServerExchange::drive_to_quiescence() { drive(nullptr); }

void MultiServerExchange::drive(const std::vector<SimTime>* bounds) {
  // Fork: workers claim shards off a shared cursor, so a worker that
  // finishes a cheap shard takes the next one instead of idling.  A
  // claimed shard's queue, bus, server and shard registry are touched by
  // that worker only; thread start and join order those writes against
  // the driver thread.  The calling thread is worker 0.
  const std::size_t count = shards_.size();
  std::vector<std::exception_ptr> errors(count);
  std::vector<std::int64_t> finished_wall(join_wait_hists_.size());
  std::atomic<std::size_t> cursor{0};
  const bool wall = telemetry_ != nullptr && telemetry_->wallclock();
  const std::int64_t span_start = telemetry_ == nullptr ? 0
                                  : wall ? telemetry_->wall_micros()
                                         : now().micros;
  auto worker = [&] {
    for (;;) {
      const std::size_t s = cursor.fetch_add(1, std::memory_order_relaxed);
      if (s >= count) return;
      EventQueue& queue = shards_[s].queue;
      if (!depth_hists_.empty()) {
        const auto depth = static_cast<std::int64_t>(queue.pending());
        depth_hists_[s]->record(depth);
        depth_peaks_[s]->raise_to(depth);
      }
      try {
        constexpr std::size_t kNoCap = std::numeric_limits<std::size_t>::max();
        if (bounds == nullptr) {
          queue.run(kNoCap);
        } else {
          // run_until is inclusive: only events strictly before the bound.
          queue.run_until((*bounds)[s] - SimTime{1}, kNoCap);
        }
      } catch (...) {
        errors[s] = std::current_exception();
      }
      if (!finished_wall.empty()) finished_wall[s] = telemetry_->wall_micros();
    }
  };
  const std::size_t workers = std::min(threads_, count);
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(worker);
  worker();
  for (std::thread& thread : pool) thread.join();

  // Join.
  ++epoch_totals_.barriers;
  if (telemetry_ != nullptr) {
    const std::int64_t span_end = wall ? telemetry_->wall_micros()
                                       : now().micros;
    for (std::size_t s = 0; s < finished_wall.size(); ++s) {
      join_wait_hists_[s]->record(span_end - finished_wall[s]);
    }
    telemetry_->driver().trace.record_span("drive", "exchange", span_start,
                                           span_end - span_start);
  }
  for (const std::exception_ptr& error : errors) {
    if (error != nullptr) std::rethrow_exception(error);
  }
}

std::size_t MultiServerExchange::rounds_completed() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.server->rounds_completed();
  }
  return total;
}

Money MultiServerExchange::close_market() {
  for (const Shard& shard : shards_) {
    if (shard.server->round_open()) {
      throw std::logic_error("close_market: a round is still open");
    }
  }
  Money refunded;
  for (Shard& shard : shards_) {
    for (IdentityId identity : shard.escrow->identities_with_deposits()) {
      const Money amount = shard.escrow->held(identity);
      shard.escrow->refund(identity, shard.registry.owner(identity));
      refunded += amount;
      shard.audit.deposit(shard.queue.now(), RoundId::invalid(),
                          AuditKind::kDepositRefunded, identity, amount);
    }
  }
  return refunded;
}

SimTime MultiServerExchange::now() const {
  SimTime latest{};
  for (const Shard& shard : shards_) {
    latest = std::max(latest, shard.queue.now());
  }
  return latest;
}

BusStats MultiServerExchange::bus_stats() const {
  BusStats merged;
  for (const Shard& shard : shards_) merged.merge(shard.bus->stats());
  return merged;
}

LiveBookStats MultiServerExchange::book_stats() const {
  LiveBookStats merged;
  for (const Shard& shard : shards_) merged.merge(shard.server->book_stats());
  return merged;
}

std::vector<BusStats> MultiServerExchange::shard_bus_stats() const {
  std::vector<BusStats> stats;
  stats.reserve(shards_.size());
  for (const Shard& shard : shards_) stats.push_back(shard.bus->stats());
  return stats;
}

std::size_t MultiServerExchange::audit_size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.audit.size();
  return total;
}

std::vector<AuditRecord> MultiServerExchange::merged_audit() const {
  return merged_audit_tail(audit_size());
}

std::vector<AuditRecord> MultiServerExchange::merged_audit_tail(
    std::size_t count) const {
  // The merged order is a stable merge by timestamp with shard index as
  // the tiebreak.  Each shard's log is already chronological (records
  // are stamped with the shard clock, which never runs backwards), so
  // the tail is read by walking the shards' logs backwards, taking the
  // latest record each step and, among equal timestamps, the highest
  // shard — only the records taken are formatted.
  std::vector<std::size_t> remaining;
  remaining.reserve(shards_.size());
  for (const Shard& shard : shards_) remaining.push_back(shard.audit.size());
  std::vector<AuditRecord> tail;
  tail.reserve(std::min(count, audit_size()));
  while (tail.size() < count) {
    std::size_t pick = shards_.size();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (remaining[s] == 0) continue;
      if (pick == shards_.size() ||
          shards_[s].audit.time_of(remaining[s] - 1) >=
              shards_[pick].audit.time_of(remaining[pick] - 1)) {
        pick = s;
      }
    }
    if (pick == shards_.size()) break;  // every log exhausted
    tail.push_back(shards_[pick].audit.record(--remaining[pick]));
  }
  std::reverse(tail.begin(), tail.end());
  return tail;
}

std::size_t MultiServerExchange::audit_count(AuditKind kind) const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.audit.count(kind);
  return total;
}

Money MultiServerExchange::cash_balance(AccountId account) const {
  // An account's funds live on its home shard, except the exchange
  // account (0), which every shard's settlement credits; summing covers
  // both without special cases.
  Money total;
  for (const Shard& shard : shards_) {
    total += shard.cash.balance(account);
  }
  return total;
}

Money MultiServerExchange::cash_total() const {
  Money total;
  for (const Shard& shard : shards_) total += shard.cash.total();
  return total;
}

std::size_t MultiServerExchange::goods_units(AccountId account) const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.goods.units(account);
  return total;
}

std::size_t MultiServerExchange::goods_total() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.goods.total();
  return total;
}

Money MultiServerExchange::escrow_total_held() const {
  Money total;
  for (const Shard& shard : shards_) total += shard.escrow->total_held();
  return total;
}

void MultiServerExchange::grant_cash(AccountId account, Money amount) {
  shards_[shard_of(account)].cash.grant(account, amount);
}

void MultiServerExchange::grant_goods(AccountId account, std::size_t units) {
  shards_[shard_of(account)].goods.grant(account, units);
}

}  // namespace fnda
