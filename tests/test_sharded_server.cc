// ShardedServer integration (ISSUE 8): N reactor threads, partitioned
// ItemStores, cross-shard multigets, coherent aggregation surfaces.
//
// The soaks use self-verifying values (value encodes its key and version) so
// any cross-shard routing bug — a reply stitched to the wrong request, a
// remote op executed against the wrong partition — corrupts a comparison
// instead of passing silently. The scrape test runs under live multi-shard
// load and is part of the TSan CI job: it pins the "metrics listener never
// reads a shard counter mid-update" property (epoch-snapshot aggregation,
// metrics_hub.h).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/client.h"
#include "src/net/response.h"
#include "src/net/server_core.h"
#include "src/net/sharded_server.h"
#include "src/net/sharding.h"

namespace spotcache::net {
namespace {

constexpr int64_t kT0 = 2'000'000'000;

ShardedServerConfig FourShardConfig() {
  ShardedServerConfig config;
  config.base.port = 0;
  config.base.metrics_port = -1;
  config.threads = 4;
  return config;
}

/// One HTTP/1.0 scrape of the metrics endpoint; returns the full response.
std::string Scrape(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char req[] = "GET /metrics HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::send(fd, req, sizeof(req) - 1, 0),
            static_cast<ssize_t>(sizeof(req) - 1));
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      break;
    }
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

/// `stats spotcache` value for one STAT name, or -1 when absent.
long SpotcacheStat(NetClient& client, const std::string& name) {
  EXPECT_TRUE(client.SendRaw("stats spotcache\r\n"));
  long value = -1;
  for (;;) {
    const auto line = client.ReadLine();
    if (!line.has_value() || *line == "END") {
      break;
    }
    const std::string prefix = "STAT " + name + " ";
    if (line->rfind(prefix, 0) == 0) {
      value = std::atol(line->c_str() + prefix.size());
    }
  }
  return value;
}

// Multi-connection soak with self-verifying values. Each worker owns a key
// range but every key is named so ShardOfKey spreads it — most operations a
// worker issues land on a different shard than its connection, exercising
// the cross-shard mailboxes continuously.
TEST(ShardedServer, SoakSelfVerifyingAcrossShards) {
  ShardedServer server(FourShardConfig());
  ASSERT_TRUE(server.Start());
  std::thread loop([&server] { server.Run(); });

  constexpr int kWorkers = 4;
  constexpr int kOpsPerWorker = 1200;
  constexpr int kKeysPerWorker = 64;
  std::atomic<uint64_t> sets{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      NetClient client;
      if (!client.Connect("127.0.0.1", server.port())) {
        ++failures;
        return;
      }
      std::vector<int> version(kKeysPerWorker, -1);
      const auto key_of = [w](int k) {
        return "soak:" + std::to_string(w) + ":" + std::to_string(k);
      };
      const auto value_of = [&](int k, int v) {
        return key_of(k) + "=" + std::to_string(v);
      };
      for (int i = 0; i < kOpsPerWorker; ++i) {
        const int k = (i * 7) % kKeysPerWorker;
        switch (i % 4) {
          case 0:
          case 1: {  // write a new version
            const int v = i;
            if (!client.Set(key_of(k), value_of(k, v))) {
              ++failures;
              return;
            }
            version[k] = v;
            ++sets;
            break;
          }
          case 2: {  // read back and self-verify
            const auto got = client.Get(key_of(k));
            if (version[k] < 0) {
              if (got.found) {
                ++failures;
              }
            } else if (!got.found || got.value != value_of(k, version[k])) {
              ++failures;
            }
            break;
          }
          default: {  // cross-shard multiget: four keys, four partitions
            std::string req = "get";
            std::vector<int> ks;
            for (int d = 0; d < 4; ++d) {
              const int kk = (k + d * 13) % kKeysPerWorker;
              ks.push_back(kk);
              req += " " + key_of(kk);
            }
            if (!client.SendRaw(req + "\r\n")) {
              ++failures;
              return;
            }
            // Replies come in request order; verify each VALUE matches the
            // version we last stored for that key.
            size_t next = 0;
            for (;;) {
              const auto line = client.ReadLine();
              if (!line.has_value()) {
                ++failures;
                return;
              }
              if (*line == "END") {
                break;
              }
              if (line->rfind("VALUE ", 0) != 0) {
                ++failures;
                break;
              }
              // Find which of our four keys this header names.
              while (next < ks.size() &&
                     line->find(" " + key_of(ks[next]) + " ") ==
                         std::string::npos) {
                ++next;  // earlier keys in the request missed
              }
              const auto data = client.ReadLine();
              if (!data.has_value() || next >= ks.size() ||
                  version[ks[next]] < 0 ||
                  *data != value_of(ks[next], version[ks[next]])) {
                ++failures;
              }
              ++next;
            }
            break;
          }
        }
      }
      client.Close();
    });
  }
  for (auto& t : workers) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);

  // Aggregated stats are coherent: the gather barrier sums every partition.
  {
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
    const auto stats = client.Stats();
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(std::stoull(stats->at("cmd_set")), sets.load());
    EXPECT_GT(std::stoull(stats->at("get_hits")), 0u);
    EXPECT_EQ(SpotcacheStat(client, "spotcache_shard_count"), 4);
    client.Close();
  }
  server.Stop();
  loop.join();
}

// The scrape endpoint under live multi-shard load: every response is a
// complete epoch-coherent aggregate (TSan pins the no-torn-reads property;
// this test pins liveness and monotonicity of the published epochs).
TEST(ShardedServer, ScrapeUnderMultiShardLoad) {
  ShardedServerConfig config = FourShardConfig();
  config.base.metrics_port = 0;
  ShardedServer server(config);
  ASSERT_TRUE(server.Start());
  ASSERT_NE(server.metrics_port(), 0);
  std::thread loop([&server] { server.Run(); });

  std::atomic<bool> stop{false};
  std::vector<std::thread> load;
  for (int w = 0; w < 2; ++w) {
    load.emplace_back([&, w] {
      NetClient client;
      if (!client.Connect("127.0.0.1", server.port())) {
        return;
      }
      for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const std::string key =
            "scr:" + std::to_string(w) + ":" + std::to_string(i % 256);
        client.Set(key, "v" + std::to_string(i));
        client.Get(key);
      }
      client.Close();
    });
  }

  uint64_t last_epoch = 0;
  for (int i = 0; i < 15; ++i) {
    const std::string scrape = Scrape(server.metrics_port());
    EXPECT_NE(scrape.find("HTTP/1.0 200 OK"), std::string::npos) << i;
    EXPECT_NE(scrape.find("obs_shards 4"), std::string::npos) << i;
    // The flush epoch only moves forward, and requests keep flowing into
    // the aggregate (shard 0 force-publishes on every scrape).
    const size_t at = scrape.find("obs_flush_epoch ");
    ASSERT_NE(at, std::string::npos) << i;
    const uint64_t epoch = std::strtoull(
        scrape.c_str() + at + sizeof("obs_flush_epoch ") - 1, nullptr, 10);
    EXPECT_GE(epoch, last_epoch) << i;
    last_epoch = epoch;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GT(last_epoch, 0u);
  EXPECT_GT(server.hub().epoch(), 0u);

  stop.store(true);
  for (auto& t : load) {
    t.join();
  }
  server.Stop();
  loop.join();

  // Post-run sanity: the aggregate saw traffic from more than one shard.
  const MetricsRegistry agg = server.hub().Aggregate();
  EXPECT_GT(agg.CounterValue("net/requests"), 0);
}

// kAdoptConn accept fallback: shard 0 owns the only listener and round-robins
// accepted connections to its peers; serving must be indistinguishable.
TEST(ShardedServer, DispatchFallbackServesAllShards) {
  ShardedServerConfig config = FourShardConfig();
  config.threads = 3;
  config.force_dispatch = true;
  ShardedServer server(config);
  ASSERT_TRUE(server.Start());
  EXPECT_FALSE(server.using_reuseport());
  std::thread loop([&server] { server.Run(); });

  // Round-robin lands consecutive connections on distinct shards.
  std::vector<std::unique_ptr<NetClient>> clients;
  std::vector<long> shard_seen;
  for (int i = 0; i < 3; ++i) {
    clients.push_back(std::make_unique<NetClient>());
    ASSERT_TRUE(clients.back()->Connect("127.0.0.1", server.port()));
    const std::string key = "dsp:" + std::to_string(i);
    ASSERT_TRUE(clients.back()->Set(key, "v" + std::to_string(i)));
    const auto got = clients.back()->Get(key);
    ASSERT_TRUE(got.found);
    EXPECT_EQ(got.value, "v" + std::to_string(i));
    shard_seen.push_back(SpotcacheStat(*clients.back(), "spotcache_shard"));
  }
  std::sort(shard_seen.begin(), shard_seen.end());
  EXPECT_EQ(shard_seen, (std::vector<long>{0, 1, 2}));

  for (auto& c : clients) {
    c->Close();
  }
  server.Stop();
  loop.join();
}

// Cross-shard command semantics under a controlled clock: multiget assembles
// in request order across partitions; flush_all's broadcast barrier empties
// every partition atomically with respect to the issuing connection.
TEST(ShardedServer, FlushAllAndMultigetSpanShards) {
  std::atomic<int64_t> now{kT0};
  ShardedServer server(FourShardConfig());
  server.SetClock([&now] { return now.load(); });
  ASSERT_TRUE(server.Start());
  std::thread loop([&server] { server.Run(); });

  {
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
    // Golden keys covering all four partitions (test_shard_partition.cc).
    const std::vector<std::string> keys = {"a", "b", "key", "spotcache"};
    EXPECT_EQ(ShardOfKey(keys[0], 4), 0u);
    EXPECT_EQ(ShardOfKey(keys[1], 4), 1u);
    EXPECT_EQ(ShardOfKey(keys[2], 4), 2u);
    EXPECT_EQ(ShardOfKey(keys[3], 4), 3u);
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_TRUE(client.Set(keys[i], "val" + std::to_string(i)));
    }
    // One request, four partitions, replies in request order.
    ASSERT_TRUE(client.SendRaw("get a b key spotcache\r\n"));
    for (size_t i = 0; i < keys.size(); ++i) {
      const auto header = client.ReadLine();
      ASSERT_TRUE(header.has_value());
      EXPECT_EQ(header->rfind("VALUE " + keys[i] + " ", 0), 0u) << *header;
      const auto data = client.ReadLine();
      ASSERT_TRUE(data.has_value());
      EXPECT_EQ(*data, "val" + std::to_string(i));
    }
    EXPECT_EQ(client.ReadLine().value_or(""), "END");

    now += 10;  // past the stores, so the flush point covers them
    EXPECT_TRUE(client.FlushAll());
    for (const auto& key : keys) {
      EXPECT_FALSE(client.Get(key).found) << key;
    }
    // Partitions serve again after the flush.
    EXPECT_TRUE(client.Set("post", "flush"));
    EXPECT_TRUE(client.Get("post").found);
    client.Close();
  }
  server.Stop();
  loop.join();

  const CoreSnapshot total = server.TotalSnapshot();
  EXPECT_EQ(total.curr_items, 1u);
  EXPECT_EQ(total.cmd_flush, 1u);
}

// A cross-shard get pins the owner's item block. The owner overwrites and
// deletes the key later in the same batch, on its own thread; the requester
// must still assemble the original bytes, and its release of the last pin
// frees the block on the requesting thread (the TSan job runs this).
TEST(ShardedServer, CrossShardGetPinSurvivesOwnerOverwrite) {
  ShardExchange exchange(2);
  ServerCore requester(ServerCoreConfig{});
  ServerCore owner(ServerCoreConfig{});
  requester.ConfigureShard({0, 2, &exchange});
  owner.ConfigureShard({1, 2, &exchange});
  exchange.SetExecutor(0,
                       [&](CrossShardOp* op) { requester.ExecuteCrossOp(op); });
  exchange.SetExecutor(1, [&](CrossShardOp* op) { owner.ExecuteCrossOp(op); });
  std::atomic<bool> stop{false};
  std::thread owner_loop([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (exchange.ServiceInbox(1) == 0) {
        std::this_thread::yield();
      }
    }
  });

  std::string key = "k0";
  for (int i = 1; ShardOfKey(key, 2) != 1; ++i) {
    key = "k" + std::to_string(i);
  }
  const auto event = [&key](Verb verb, std::string data) {
    PendingEvent ev;
    ev.verb = verb;
    ev.keys = {key};
    ev.data = std::move(data);
    return ev;
  };
  ResponseAssembler out;
  EXPECT_TRUE(requester.ExecuteBatch({event(Verb::kSet, "old")}, kT0, &out));
  out.Clear();
  const std::string want = "VALUE " + key +
                           " 0 3\r\nold\r\nEND\r\nSTORED\r\nDELETED\r\n"
                           "STORED\r\n";
  // EXPECT, not ASSERT: the owner thread must be joined on failure too.
  for (int round = 0; round < 200 && !HasFailure(); ++round) {
    EXPECT_TRUE(requester.ExecuteBatch(
        {event(Verb::kGet, ""), event(Verb::kSet, "new" + std::to_string(round)),
         event(Verb::kDelete, ""), event(Verb::kSet, "old")},
        kT0, &out));
    EXPECT_EQ(out.Flatten(), want) << "round " << round;
    out.Clear();
  }
  stop.store(true, std::memory_order_release);
  owner_loop.join();
  EXPECT_EQ(owner.store().item_count(), 1u);
  EXPECT_EQ(requester.store().item_count(), 0u);
}

}  // namespace
}  // namespace spotcache::net
