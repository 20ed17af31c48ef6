// In-process message bus with simulated network behaviour.
//
// Deliveries are scheduled on the EventQueue after a configurable latency
// (base + uniform jitter) and may be duplicated or dropped.  Duplicates
// carry the original MessageId so receivers can deduplicate; the server
// does, which the tests exercise.
//
// Throughput substrate: endpoint addresses are interned to dense
// `AddressId`s at attach()/intern() time, so routing is an array index
// rather than a string hash (string-accepting overloads remain for
// convenience and tests).  Envelopes live in a slab (deque + free list)
// instead of being heap-allocated per send, and in-flight deliveries are
// lightweight (slot, destination) records batched by the EventQueue: all
// same-instant deliveries to one endpoint arrive through a single
// `Endpoint::on_batch` call, in send order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "market/clock.h"
#include "market/messages.h"
#include "obs/telemetry.h"

namespace fnda {

/// A delivered message with transport metadata.
struct Envelope {
  MessageId id;
  AddressId from;
  AddressId to;
  SimTime sent_at;
  SimTime delivered_at;
  Message payload;
};

/// Anything attachable to the bus.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual void on_message(const Envelope& envelope) = 0;
  /// Same-instant deliveries to this endpoint arrive as one batch, in
  /// send order.  Overriding lets a receiver hoist per-volley work (the
  /// server validates bid volleys this way); the default dispatches
  /// message by message, which is always equivalent.
  virtual void on_batch(const Envelope* const* envelopes, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) on_message(*envelopes[i]);
  }
};

struct BusConfig {
  SimTime base_latency{1'000};  // 1ms
  SimTime jitter{500};          // uniform [0, jitter)
  double duplicate_probability = 0.0;
  double drop_probability = 0.0;
  /// Message-id namespace: bus `s` of a sharded exchange mints ids
  /// first_message_id, +stride, +2·stride, … so ids are globally unique
  /// without a shared counter.  Standalone buses keep (0, 1).
  std::uint64_t first_message_id = 0;
  std::uint64_t message_id_stride = 1;
};

struct BusStats {
  std::size_t sent = 0;
  std::size_t delivered = 0;
  std::size_t duplicated = 0;
  std::size_t dropped = 0;
  /// Receiver detached — or detached and re-attached — before delivery.
  std::size_t dead_lettered = 0;

  /// Conservation: sent == delivered + dropped + dead_lettered −
  /// duplicated, per bus and on merged (summed) stats alike.
  void merge(const BusStats& other) {
    sent += other.sent;
    delivered += other.delivered;
    duplicated += other.duplicated;
    dropped += other.dropped;
    dead_lettered += other.dead_lettered;
  }
};

class MessageBus : public EventQueue::DeliverySink {
 public:
  /// Every bus owns its address table: the shards of a sharded exchange
  /// never message each other, so names need not be shared.
  MessageBus(EventQueue& queue, BusConfig config, Rng rng);
  ~MessageBus() override;
  MessageBus(const MessageBus&) = delete;
  MessageBus& operator=(const MessageBus&) = delete;

  /// Returns the dense id for `address`, creating a (detached) directory
  /// entry on first sight.  Ids are stable for the bus's lifetime.
  AddressId intern(const std::string& address);
  /// The string name behind an interned id (for logs and tests).
  const std::string& name_of(AddressId address) const;

  /// Attaches an endpoint at `address`; the endpoint must outlive the bus
  /// or be detached first.  Re-attaching an address replaces the handler;
  /// messages sent to the previous attachment that are still in flight
  /// are dead-lettered, not delivered to the replacement.
  AddressId attach(const std::string& address, Endpoint& endpoint);
  void attach(AddressId address, Endpoint& endpoint);
  void detach(const std::string& address);
  void detach(AddressId address);

  /// Queues a message; returns its id (shared by any duplicates).
  MessageId send(AddressId from, AddressId to, Message payload);
  MessageId send(const std::string& from, const std::string& to,
                 Message payload);
  /// Concrete-type fast path: assigns the alternative straight into the
  /// pooled envelope instead of building a temporary variant and moving
  /// it.  Behaviour (ids, RNG draws, ordering) is identical to the
  /// Message overload.
  template <typename M,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<M>, Message> &&
                std::is_constructible_v<Message, M&&>>>
  MessageId send(AddressId from, AddressId to, M&& payload) {
    return send_impl(from, to, std::forward<M>(payload));
  }

  const BusStats& stats() const { return stats_; }

  /// Joins the shard's telemetry world: registers the BusStats cells as
  /// callback counters (the structs stay the storage; the registry is
  /// the exposition/merge layer) and creates the transport histograms
  /// (delivery latency in sim microseconds, endpoint batch size).  Call
  /// once at wiring time; a bus never bound records nothing extra.
  void bind_telemetry(obs::ShardTelemetry& telemetry);

  /// EventQueue::DeliverySink — one call per run of same-instant
  /// deliveries.  Keys carry the destination and the binding generation
  /// captured at send time (see pack_key); consecutive equal keys are
  /// dispatched to their endpoint as one batch.
  void deliver_run(SimTime at, const EventQueue::Delivery* run,
                   std::size_t count) override;

 private:
  /// Hot per-address routing state, kept to 16 bytes so delivery touches
  /// one cache line per four addresses; names live in a cold array.
  struct DirectoryEntry {
    Endpoint* endpoint = nullptr;
    /// Bumped on every attach and detach; an envelope only delivers if
    /// the binding it captured at send time still matches, so messages
    /// in flight across a re-attach dead-letter instead of silently
    /// reaching the replacement endpoint.  The binding rides in the high
    /// half of the delivery key, so the check is one compare per batch.
    std::uint32_t binding = 0;
  };

  static constexpr std::uint64_t pack_key(std::uint32_t to,
                                          std::uint32_t binding) {
    return (std::uint64_t{binding} << 32) | to;
  }

  // Envelope slab: fixed-size chunks so slot lookup is a shift and a
  // mask (a deque would divide by its block stride) while envelope
  // addresses stay stable when the slab grows mid-delivery.
  static constexpr std::size_t kPoolChunkBits = 10;  // 1024 envelopes
  static constexpr std::size_t kPoolChunkSize = std::size_t{1}
                                                << kPoolChunkBits;
  static constexpr std::size_t kPoolChunkMask = kPoolChunkSize - 1;

  Envelope& slot_ref(std::uint32_t slot) {
    return pool_[slot >> kPoolChunkBits][slot & kPoolChunkMask];
  }
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot) { free_.push_back(slot); }
  void schedule_slot(std::uint32_t slot, std::uint64_t key);
  SimTime draw_latency();
  /// Grows the (lazily sized) directory to cover `id`.
  DirectoryEntry& ensure_directory(std::uint32_t id) {
    if (id >= directory_.size()) directory_.resize(id + 1);
    return directory_[id];
  }

  /// Shared send body; `payload` may be the Message variant or any of its
  /// alternatives (assigned directly into the pooled envelope).
  template <typename M>
  MessageId send_impl(AddressId from, AddressId to, M&& payload) {
    if (to.value() >= names_.size()) {
      throw std::out_of_range(
          "MessageBus::send: unknown destination AddressId");
    }
    const MessageId id{next_message_};
    next_message_ += config_.message_id_stride;
    ++stats_.sent;

    if (rng_.bernoulli(config_.drop_probability)) {
      ++stats_.dropped;
      return id;
    }

    const std::uint32_t slot = acquire_slot();
    Envelope& envelope = slot_ref(slot);
    envelope.id = id;
    envelope.from = from;
    envelope.to = to;
    envelope.sent_at = queue_.now();
    envelope.delivered_at = SimTime{};
    envelope.payload = std::forward<M>(payload);
    const std::uint64_t key =
        pack_key(to.value(), ensure_directory(to.value()).binding);

    schedule_slot(slot, key);
    if (rng_.bernoulli(config_.duplicate_probability)) {
      ++stats_.duplicated;
      const std::uint32_t duplicate = acquire_slot();
      slot_ref(duplicate) = slot_ref(slot);  // duplicates are rare
      schedule_slot(duplicate, key);
    }
    return id;
  }
  /// One validated batch (consecutive equal keys) to one endpoint.
  void deliver_group(SimTime at, std::uint64_t key,
                     const EventQueue::Delivery* run, std::size_t count);

  EventQueue& queue_;
  BusConfig config_;
  Rng rng_;

  // Address table: dense ids in first-seen order.  A deque keeps the
  // references name_of() hands out stable under growth.
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::deque<std::string> names_;               // indexed by AddressId
  std::vector<DirectoryEntry> directory_;        // indexed by AddressId

  std::vector<std::unique_ptr<Envelope[]>> pool_;  // chunked slab
  std::size_t pool_size_ = 0;                    // slots ever created
  std::vector<std::uint32_t> free_;              // recycled slots
  std::vector<const Envelope*> deliver_scratch_;

  BusStats stats_;
  std::uint64_t next_message_ = 0;

  // Telemetry instruments (null until bind_telemetry; recording through
  // a null pointer is skipped, and FNDA_NO_TELEMETRY empties the bodies).
  // Per-delivery histograms sample every stride-th delivered group — the
  // tick advances in this shard's deterministic delivery order, so the
  // sampled stream is bit-identical at any worker count.
  static constexpr std::uint64_t kDeliverySampleStride = 16;
  obs::Histogram* delivery_latency_hist_ = nullptr;
  obs::Histogram* batch_size_hist_ = nullptr;
  std::uint64_t delivery_sample_tick_ = 0;
};

/// Receiver-side duplicate filter keyed by MessageId.
///
/// Bounded: ids live in two generations of at most `generation_capacity`
/// each; when the current generation fills, the oldest generation is
/// discarded.  An id is therefore remembered for at least
/// `generation_capacity` fresh ids after it — far longer than any
/// retransmission window — while long sessions stay at O(capacity)
/// memory instead of growing forever.
class DedupFilter {
 public:
  static constexpr std::size_t kDefaultGenerationCapacity = std::size_t{1}
                                                            << 16;

  explicit DedupFilter(
      std::size_t generation_capacity = kDefaultGenerationCapacity)
      : capacity_(generation_capacity == 0 ? 1 : generation_capacity) {}

  /// Returns true the first time an id is seen (within the retention
  /// window).  Storage is two generations of open-addressed flat u64
  /// tables (<=50% load, linear probing): one probe run per lookup on a
  /// contiguous array instead of a node-based set — the dedup check runs
  /// once per delivered message, and flat storage also frees in O(1)
  /// block per endpoint at teardown instead of a node walk.
  bool fresh(MessageId id) {
    const std::uint64_t key = id.value();
    if (contains(current_, key) || contains(previous_, key)) return false;
    if (current_count_ >= capacity_) {
      std::swap(current_, previous_);  // keep the newer generation
      std::fill(current_.begin(), current_.end(), kEmpty);  // storage reused
      current_count_ = 0;
    }
    insert(key);
    ++seen_total_;
    return true;
  }

  /// Distinct ids ever seen (not bounded by the retention window).
  std::size_t seen_count() const { return seen_total_; }

 private:
  /// Free-slot sentinel: MessageId::invalid(), which no delivered
  /// envelope carries.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  static std::size_t slot_of(std::uint64_t key, std::size_t mask) {
    // splitmix64-style finalizer: message ids are sequential counters,
    // so the low bits need mixing before masking.
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdull;
    key ^= key >> 33;
    return static_cast<std::size_t>(key) & mask;
  }

  static bool contains(const std::vector<std::uint64_t>& table,
                       std::uint64_t key) {
    if (table.empty()) return false;
    const std::size_t mask = table.size() - 1;
    for (std::size_t i = slot_of(key, mask);; i = (i + 1) & mask) {
      if (table[i] == key) return true;
      if (table[i] == kEmpty) return false;
    }
  }

  void insert(std::uint64_t key) {
    if ((current_count_ + 1) * 2 > current_.size()) grow();
    const std::size_t mask = current_.size() - 1;
    std::size_t i = slot_of(key, mask);
    while (current_[i] != kEmpty) i = (i + 1) & mask;
    current_[i] = key;
    ++current_count_;
  }

  /// Doubles the current generation's table (idle endpoints stay tiny;
  /// a generation at capacity_ stops growing by construction).
  void grow() {
    const std::size_t next = current_.empty() ? 64 : current_.size() * 2;
    std::vector<std::uint64_t> rebuilt(next, kEmpty);
    const std::size_t mask = next - 1;
    for (const std::uint64_t key : current_) {
      if (key == kEmpty) continue;
      std::size_t i = slot_of(key, mask);
      while (rebuilt[i] != kEmpty) i = (i + 1) & mask;
      rebuilt[i] = key;
    }
    current_ = std::move(rebuilt);
  }

  std::size_t capacity_;
  std::size_t seen_total_ = 0;
  std::size_t current_count_ = 0;
  std::vector<std::uint64_t> current_;
  std::vector<std::uint64_t> previous_;
};

}  // namespace fnda
