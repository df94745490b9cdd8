// The key→slot function (ISSUE 8).
//
// ShardOfKey is load-bearing in two ways: it picks a key's stripe in the
// shared store and external tooling recomputes it (so the mapping must stay
// fixed — the golden table below pins it across restarts and rebuilds), and
// the modulo split must not hot-spot one stripe under realistic key shapes
// (distribution bounds below).

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/sharded_server.h"
#include "src/net/sharding.h"

namespace spotcache::net {
namespace {

// Golden mapping: these values are the contract. If this test fails after an
// edit to ShardOfKey / HashString, the change moves every key's stripe and
// breaks every tool that recomputes it — revert the hash, don't re-golden the
// table.
TEST(ShardPartition, GoldenMappingIsStable) {
  struct Golden {
    const char* key;
    uint32_t at2, at4, at8;
  };
  const Golden golden[] = {
      {"a", 0, 0, 0},
      {"b", 1, 1, 5},
      {"key", 0, 2, 2},
      {"hello", 0, 0, 0},
      {"spotcache", 1, 3, 7},
      {"lg:0000001", 0, 0, 0},
      {"lg:0000002", 1, 1, 5},
      {"user:42:profile", 0, 2, 2},
      {"big", 1, 1, 1},
      {"x", 1, 1, 5},
  };
  for (const Golden& g : golden) {
    EXPECT_EQ(ShardOfKey(g.key, 2), g.at2) << g.key;
    EXPECT_EQ(ShardOfKey(g.key, 4), g.at4) << g.key;
    EXPECT_EQ(ShardOfKey(g.key, 8), g.at8) << g.key;
  }
}

TEST(ShardPartition, SingleShardMapsEverythingToZero) {
  EXPECT_EQ(ShardOfKey("anything", 1), 0u);
  EXPECT_EQ(ShardOfKey("", 1), 0u);
  EXPECT_EQ(ShardOfKey(std::string(250, 'k'), 1), 0u);
}

TEST(ShardPartition, DeterministicAcrossCalls) {
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "k:" + std::to_string(i);
    const uint32_t first = ShardOfKey(key, 4);
    EXPECT_EQ(ShardOfKey(key, 4), first) << key;
    EXPECT_LT(first, 4u);
  }
}

// Sequential keys (the loadgen's "lg:0000123" shape) must spread: a modulo
// over a weak hash would stripe them. Bound every shard to ±30% of fair
// share over 40k keys.
TEST(ShardPartition, SequentialKeysSpreadEvenly) {
  for (const uint32_t shards : {2u, 4u, 8u}) {
    std::vector<uint64_t> counts(shards, 0);
    constexpr int kKeys = 40'000;
    char buf[32];
    for (int i = 0; i < kKeys; ++i) {
      std::snprintf(buf, sizeof(buf), "lg:%07d", i);
      ++counts[ShardOfKey(buf, shards)];
    }
    const double fair = static_cast<double>(kKeys) / shards;
    for (uint32_t s = 0; s < shards; ++s) {
      EXPECT_GT(counts[s], fair * 0.7) << shards << " shards, shard " << s;
      EXPECT_LT(counts[s], fair * 1.3) << shards << " shards, shard " << s;
    }
  }
}

// The shard count knob is honored end to end: the clamp bounds, and a
// started server reports exactly the requested number of reactors.
TEST(ShardPartition, ShardCountsHonored) {
  {
    ShardedServerConfig config;
    config.threads = 0;  // clamped up
    ShardedServer server(config);
    EXPECT_EQ(server.shard_count(), 1u);
  }
  {
    ShardedServerConfig config;
    config.threads = kMaxShards + 17;  // clamped down
    ShardedServer server(config);
    EXPECT_EQ(server.shard_count(), kMaxShards);
  }
  for (const uint32_t threads : {1u, 2u, 4u}) {
    ShardedServerConfig config;
    config.base.port = 0;
    config.base.metrics_port = -1;
    config.threads = threads;
    ShardedServer server(config);
    ASSERT_EQ(server.shard_count(), threads);
    ASSERT_TRUE(server.Start());
    EXPECT_NE(server.port(), 0);
    for (uint32_t i = 1; i < threads; ++i) {
      // Every shard serves the same port (SO_REUSEPORT) or defers to shard
      // 0's listener (dispatch fallback, port() == 0 on skip).
      const uint16_t p = server.shard(i).port();
      EXPECT_TRUE(p == server.port() || p == 0) << "shard " << i;
    }
  }
}

}  // namespace
}  // namespace spotcache::net
