// ConsoleSession end-to-end: the full command surface against a live
// exchange, runtime config landing only at round boundaries, and the
// tentpole bit-identity claim — the same script produces byte-identical
// reply transcripts AND the same exchange digest for 1, 2, and 8 worker
// threads, pinned with a golden digest.
#include "ops/console.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/money.h"
#include "protocols/tpd.h"

namespace fnda::ops {
namespace {

const std::vector<std::string>& golden_script() {
  static const std::vector<std::string> kScript = {
      "status",
      "run 2",
      "metrics show",
      "hist fnda_server_round_bids",
      "book dump 0",
      "escrow show",
      "config show",
      "config set retained_rounds 2",
      "shard pause 1",
      "run 1",
      "shard resume 1",
      "config set announce_interval_us 5000",
      "run 1",
      "audit tail 5",
      "health",
      "digest",
  };
  return kScript;
}

struct ScriptRun {
  std::string transcript;
  std::uint64_t digest = 0;
  std::uint64_t breaches = 0;
};

ScriptRun run_script(std::size_t threads,
                     const std::vector<std::string>& script) {
  const TpdProtocol tpd(Money::from_units(50));
  ConsoleConfig config;
  config.clients = 64;
  config.shards = 8;
  config.threads = threads;
  config.seed = 7;
  ConsoleSession session(tpd, std::move(config));

  ScriptRun result;
  for (const std::string& line : script) {
    const Reply reply = session.execute(line);
    EXPECT_TRUE(reply.ok) << line << ": " << reply.text();
    result.transcript += "> " + line + '\n' + reply.text() + '\n';
  }
  result.digest = session.digest();
  result.breaches = session.watchdog().total_breaches();
  return result;
}

// The acceptance-criteria pin: replies and exchange digest are
// bit-identical for every worker count.  The digest constant is the
// golden value; a change here means the deterministic replay contract
// moved and every thread count moved with it.
TEST(ConsoleSession, TranscriptAndDigestThreadCountInvariant) {
  const ScriptRun t1 = run_script(1, golden_script());
  const ScriptRun t2 = run_script(2, golden_script());
  const ScriptRun t8 = run_script(8, golden_script());

  EXPECT_EQ(t1.transcript, t2.transcript);
  EXPECT_EQ(t1.transcript, t8.transcript);
  EXPECT_EQ(t1.digest, t2.digest);
  EXPECT_EQ(t1.digest, t8.digest);
  EXPECT_EQ(t1.breaches, t2.breaches);
  EXPECT_EQ(t1.breaches, t8.breaches);
  EXPECT_EQ(t1.digest, 0x89133dbc59b37c7aull);
}

TEST(ConsoleSession, ConfigChangesLandOnlyAtRoundBoundaries) {
  const TpdProtocol tpd(Money::from_units(50));
  ConsoleConfig config;
  config.shards = 2;
  ConsoleSession session(tpd, std::move(config));
  MultiServerExchange& exchange = session.exchange();

  EXPECT_TRUE(session.execute("config set retained_rounds 3").ok);
  // Staged, not applied: the active config and generation are untouched.
  EXPECT_EQ(exchange.runtime_config().active().retained_rounds, 0u);
  EXPECT_EQ(exchange.runtime_config().generation(), 0u);
  EXPECT_TRUE(exchange.runtime_config().has_pending());

  EXPECT_TRUE(session.execute("run 1").ok);
  EXPECT_EQ(exchange.runtime_config().active().retained_rounds, 3u);
  EXPECT_EQ(exchange.runtime_config().generation(), 1u);
  EXPECT_FALSE(exchange.runtime_config().has_pending());
  EXPECT_EQ(exchange.server(0).config().retained_rounds, 3u);
}

TEST(ConsoleSession, RetainedRoundsEvictsOldRounds) {
  const TpdProtocol tpd(Money::from_units(50));
  ConsoleConfig config;
  config.shards = 1;
  ConsoleSession session(tpd, std::move(config));
  AuctionServer& server = session.exchange().server(0);

  EXPECT_TRUE(session.execute("run 1").ok);
  ASSERT_TRUE(server.latest_round().has_value());
  const RoundId first = *server.latest_round();
  EXPECT_TRUE(session.execute("run 2").ok);
  ASSERT_NE(server.ranked_of(first), nullptr);  // unbounded retention

  EXPECT_TRUE(session.execute("config set retained_rounds 1").ok);
  EXPECT_TRUE(session.execute("run 1").ok);
  EXPECT_EQ(server.ranked_of(first), nullptr);  // evicted down to 1
  ASSERT_TRUE(server.latest_round().has_value());
  EXPECT_NE(server.ranked_of(*server.latest_round()), nullptr);
}

TEST(ConsoleSession, PausedShardSkipsRounds) {
  const TpdProtocol tpd(Money::from_units(50));
  ConsoleConfig config;
  config.shards = 2;
  ConsoleSession session(tpd, std::move(config));
  MultiServerExchange& exchange = session.exchange();

  EXPECT_TRUE(session.execute("shard pause 1").ok);
  EXPECT_TRUE(exchange.shard_paused(1));
  EXPECT_TRUE(session.execute("run 2").ok);
  EXPECT_EQ(exchange.server(0).rounds_completed(), 2u);
  EXPECT_EQ(exchange.server(1).rounds_completed(), 0u);

  EXPECT_TRUE(session.execute("shard resume 1").ok);
  EXPECT_TRUE(session.execute("run 1").ok);
  EXPECT_EQ(exchange.server(1).rounds_completed(), 1u);
}

TEST(ConsoleSession, ShardBoundsValidatedAtRuntime) {
  const TpdProtocol tpd(Money::from_units(50));
  ConsoleConfig config;
  config.shards = 2;
  ConsoleSession session(tpd, std::move(config));

  EXPECT_FALSE(session.execute("shard pause 5").ok);
  EXPECT_FALSE(session.execute("book dump 2").ok);
  EXPECT_FALSE(session.execute("config set nope 1").ok);
  EXPECT_FALSE(session.execute("hist not_a_metric").ok);
  EXPECT_FALSE(session.execute("unknowncmd").ok);
}

TEST(ConsoleSession, CommentsAndBlanksAreNoops) {
  const TpdProtocol tpd(Money::from_units(50));
  ConsoleSession session(tpd, ConsoleConfig{});
  EXPECT_TRUE(session.execute("# a comment").ok);
  EXPECT_TRUE(session.execute("").ok);
  EXPECT_TRUE(session.execute("   ").ok);
  EXPECT_FALSE(session.done());
  EXPECT_TRUE(session.execute("quit").ok);
  EXPECT_TRUE(session.done());
}

TEST(ConsoleSession, HealthBreachCountersAreDeterministic) {
  // An impossible SLO breaches on every round, on every thread count.
  const auto breaches_at = [](std::size_t threads) {
    const TpdProtocol tpd(Money::from_units(50));
    ConsoleConfig config;
    config.shards = 4;
    config.threads = threads;
    config.slo_rules = {"rounds max(fnda_epoch_barriers_total) <= 0"};
    ConsoleSession session(tpd, std::move(config));
    EXPECT_TRUE(session.execute("run 3").ok);
    return session.watchdog().total_breaches();
  };
  const std::uint64_t b1 = breaches_at(1);
  EXPECT_EQ(b1, 3u);  // one evaluation per round, all breaching
  EXPECT_EQ(breaches_at(2), b1);
  EXPECT_EQ(breaches_at(4), b1);
}

TEST(ConsoleSession, MalformedSloRuleThrows) {
  const TpdProtocol tpd(Money::from_units(50));
  ConsoleConfig config;
  config.slo_rules = {"not a rule ("};
  EXPECT_THROW(ConsoleSession(tpd, std::move(config)),
               std::invalid_argument);
}

TEST(ConsoleSession, HealthCountersSurfaceInMergedExposition) {
  const TpdProtocol tpd(Money::from_units(50));
  ConsoleConfig config;
  config.shards = 2;
  ConsoleSession session(tpd, std::move(config));
  EXPECT_TRUE(session.execute("run 1").ok);

  const Reply prom = session.execute("metrics dump --prom");
  ASSERT_TRUE(prom.ok);
  const std::string text = prom.text();
  EXPECT_NE(text.find("fnda_health_evaluations_total 1"), std::string::npos);
  EXPECT_NE(text.find("fnda_health_breaches_total"), std::string::npos);
  EXPECT_NE(text.find("fnda_health_breach_delivery_p99_total"),
            std::string::npos);
}

}  // namespace
}  // namespace fnda::ops
