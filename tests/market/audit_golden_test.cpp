// Golden pin of the exchange's audit log.
//
// One 2-shard session exercises every record the exchange writes: a
// lossy, duplicating bus with client retries and round-open heartbeats,
// one rejected bid for each rejection reason, a false-name seller without
// goods (a failed delivery and a confiscation) and the close_market
// refunds.  The transcript — each shard's AuditLog::dump() plus every
// client's accepted/rejected/retransmission counts — must match
// tests/golden/audit_session.txt byte for byte, except that each shard's
// refund block is compared as a sorted set (close_market may refund in
// any order; the amounts and identities are what is pinned).
#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "market/multi_exchange.h"
#include "protocols/tpd.h"

namespace fnda {
namespace {

Money money(std::int64_t units) { return Money::from_units(units); }

/// Sends hand-made submissions to one shard's server; the server's
/// replies come back here and are ignored.
class Probe : public Endpoint {
 public:
  void on_message(const Envelope&) override {}
};

std::string session_transcript() {
  const TpdProtocol tpd(money(50));
  MultiExchangeConfig config;
  config.shards = 2;
  config.threads = 1;
  config.seed = 23;
  config.bus.base_latency = SimTime{1000};
  config.bus.jitter = SimTime{800};
  config.bus.drop_probability = 0.1;
  config.bus.duplicate_probability = 0.15;
  config.client.retry_interval = SimTime::millis(15);
  config.server.domain = ValueDomain{money(0), money(100)};
  config.server.announce_interval = SimTime::millis(20);
  MultiServerExchange exchange(tpd, config);

  for (std::size_t i = 0; i < 20; ++i) {
    const Side role = (i % 2 == 0) ? Side::kBuyer : Side::kSeller;
    const Money value =
        money(role == Side::kBuyer
                  ? 35 + static_cast<std::int64_t>((i * 13) % 60)
                  : 2 + static_cast<std::int64_t>((i * 17) % 55));
    exchange.add_trader(role, value);
  }
  // A buyer account that also declares a low false-name seller bid: it
  // owns no goods, so when that bid trades, delivery fails and the
  // identity's deposit is confiscated.
  for (std::int64_t v = 0; v < 2; ++v) {
    exchange.add_trader(
        Side::kBuyer, money(90),
        Strategy{{Declaration{Side::kBuyer, money(88 - v)},
                  Declaration{Side::kSeller, money(1 + v)}}});
  }

  Probe probe;
  MessageBus& bus = exchange.bus(0);
  const AddressId probe_id = bus.attach("audit-probe", probe);
  const AddressId server_id = exchange.server(0).address_id();
  const AccountId prober{9000};
  exchange.cash(0).grant(prober, money(1000));
  IdentityRegistry& registry = exchange.registry(0);
  const IdentityId funded = registry.register_identity(prober);
  const IdentityId unfunded = registry.register_identity(prober);
  const IdentityId out_of_domain = registry.register_identity(prober);
  exchange.escrow(0).post(funded, prober, money(10));
  exchange.escrow(0).post(out_of_domain, prober, money(10));

  for (std::size_t r = 0; r < 4; ++r) {
    const std::vector<RoundId> rounds =
        exchange.open_rounds(SimTime::millis(100));
    if (r == 1) {
      const RoundId open = rounds[0];
      // Every send goes out twice: the bus drops some messages, and a
      // repeated submission (fresh message id) is re-validated.
      for (int copy = 0; copy < 2; ++copy) {
        bus.send(probe_id, server_id,
                 SubmitBidMsg{RoundId{open.value() + 7}, funded,
                              Side::kBuyer, money(40)});
        bus.send(probe_id, server_id,
                 SubmitBidMsg{open, funded, Side::kBuyer, money(41)});
        bus.send(probe_id, server_id,
                 SubmitBidMsg{open, funded, Side::kBuyer, money(42)});
        bus.send(probe_id, server_id,
                 SubmitBidMsg{open, unfunded, Side::kSeller, money(30)});
        bus.send(
            probe_id, server_id,
            SubmitBidMsg{open, out_of_domain, Side::kSeller, money(250)});
      }
    }
    exchange.drive_to_quiescence();
  }
  exchange.close_market();

  std::ostringstream out;
  for (std::size_t s = 0; s < exchange.shard_count(); ++s) {
    std::istringstream dump(exchange.audit(s).dump());
    std::vector<std::string> refunds;
    out << "# shard " << s << '\n';
    for (std::string line; std::getline(dump, line);) {
      if (line.find(" deposit-refunded ") != std::string::npos) {
        refunds.push_back(line);
      } else {
        out << line << '\n';
      }
    }
    std::sort(refunds.begin(), refunds.end());
    out << "# shard " << s << " refunds, sorted\n";
    for (const std::string& line : refunds) out << line << '\n';
  }
  out << "# clients: address accepted rejected retransmissions\n";
  for (const auto& trader : exchange.traders()) {
    out << trader->address() << ' ' << trader->bids_accepted() << ' '
        << trader->bids_rejected() << ' ' << trader->retransmissions()
        << '\n';
  }
  return out.str();
}

std::string read_golden() {
  std::ifstream in(std::string(FNDA_GOLDEN_DIR) + "/audit_session.txt");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(AuditGoldenTest, SessionTranscriptMatchesGolden) {
  const std::string transcript = session_transcript();
  // The session covers what the pin is for: every rejection reason, a
  // failed delivery with its confiscation, and refunds.
  for (const char* needle :
       {": round not open", ": identity already bid this round",
        ": insufficient deposit", ": value outside domain",
        " delivery-failed ", " deposit-confiscated ", " deposit-refunded ",
        " delivery "}) {
    EXPECT_NE(transcript.find(needle), std::string::npos) << needle;
  }
  const std::string golden = read_golden();
  ASSERT_FALSE(golden.empty()) << "missing tests/golden/audit_session.txt";
  EXPECT_EQ(transcript, golden);
}

TEST(AuditGoldenTest, TranscriptIsDeterministic) {
  EXPECT_EQ(session_transcript(), session_transcript());
}

TEST(MergedAuditTest, TailMatchesStableSortedMerge) {
  // Reference: every shard's records concatenated in shard order, then
  // stably sorted by timestamp.
  const TpdProtocol tpd(money(50));
  MultiExchangeConfig config;
  config.shards = 3;
  config.seed = 5;
  config.bus.jitter = SimTime{0};  // equal timestamps across shards
  config.server.domain = ValueDomain{money(0), money(100)};
  MultiServerExchange exchange(tpd, config);
  for (std::int64_t i = 0; i < 30; ++i) {
    exchange.add_trader(i % 2 == 0 ? Side::kBuyer : Side::kSeller,
                        money(10 + (i * 7) % 80));
  }
  for (int r = 0; r < 3; ++r) exchange.run_round();
  exchange.close_market();

  std::vector<AuditRecord> reference;
  for (std::size_t s = 0; s < exchange.shard_count(); ++s) {
    for (const AuditRecord& record : exchange.audit(s).records()) {
      reference.push_back(record);
    }
  }
  std::stable_sort(reference.begin(), reference.end(),
                   [](const AuditRecord& a, const AuditRecord& b) {
                     return a.at < b.at;
                   });
  auto same = [](const AuditRecord& a, const AuditRecord& b) {
    return a.at == b.at && a.round == b.round && a.kind == b.kind &&
           a.detail == b.detail;
  };
  ASSERT_EQ(exchange.audit_size(), reference.size());
  const std::vector<AuditRecord> merged = exchange.merged_audit();
  ASSERT_TRUE(std::equal(merged.begin(), merged.end(), reference.begin(),
                         reference.end(), same));
  for (const std::size_t count :
       {std::size_t{1}, std::size_t{5}, std::size_t{77}, reference.size(),
        reference.size() + 10}) {
    const std::vector<AuditRecord> tail = exchange.merged_audit_tail(count);
    const std::size_t take = std::min(count, reference.size());
    ASSERT_EQ(tail.size(), take);
    EXPECT_TRUE(std::equal(tail.begin(), tail.end(),
                           reference.end() - static_cast<std::ptrdiff_t>(take),
                           reference.end(), same))
        << count;
  }
}

}  // namespace
}  // namespace fnda
