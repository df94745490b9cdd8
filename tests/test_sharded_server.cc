// ShardedServer integration: N reactor threads serving one lock-striped
// store, with coherent aggregation surfaces, and serving the handlers a
// factory builds.
//
// The soaks use self-verifying values (value encodes its key and version) so
// any cross-reactor bug — a reply stitched to the wrong request, a pin
// released too early, a stripe read without its lock — corrupts a comparison
// instead of passing silently. These tests run in CI's TSan job: the store
// tests pin the stripe locking and the cross-thread ItemRef release, and the
// scrape test pins reactor 0 reading every reactor's registry while they
// record (single-writer atomics, metrics_registry.h).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/client.h"
#include "src/net/protocol.h"
#include "src/net/request_handler.h"
#include "src/net/response.h"
#include "src/net/server_core.h"
#include "src/net/sharded_server.h"
#include "src/net/sharding.h"
#include "src/net/striped_store.h"

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

/// The scrape body as series -> value, where a series is the text before
/// the value (name plus label block).
std::map<std::string, double> ParseScrape(const std::string& response) {
  std::map<std::string, double> series;
  const size_t body = response.find("\r\n\r\n");
  size_t pos = body == std::string::npos ? response.size() : body + 4;
  while (pos < response.size()) {
    size_t end = response.find('\n', pos);
    if (end == std::string::npos) {
      end = response.size();
    }
    const std::string line = response.substr(pos, end - pos);
    const size_t space = line.rfind(' ');
    if (space != std::string::npos) {
      series[line.substr(0, space)] = std::atof(line.c_str() + space + 1);
    }
    pos = end + 1;
  }
  return series;
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
// range whose keys ShardOfKey spreads over the store's stripes, so the four
// reactors take every stripe lock concurrently.
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
          default: {  // multiget: four keys, up to four stripes
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

  // Aggregated stats are coherent: `stats` sums every reactor's counters.
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

// The scrape endpoint under live load on all four reactors: reactor 0 reads
// every reactor's registry while they record. TSan pins that the reads are
// race-free. Each scrape must close every histogram with a +Inf bucket equal
// to its _count, and no counter may go backwards between scrapes.
TEST(ShardedServer, ScrapeUnderMultiShardLoad) {
  ShardedServerConfig config = FourShardConfig();
  config.base.metrics_port = 0;
  config.force_dispatch = true;  // connections land round-robin on 0..3
  ShardedServer server(config);
  ASSERT_TRUE(server.Start());
  ASSERT_NE(server.metrics_port(), 0);
  std::thread loop([&server] { server.Run(); });

  std::atomic<bool> stop{false};
  std::vector<std::thread> load;
  for (int w = 0; w < 4; ++w) {
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
        client.Get("scr:absent");
      }
      client.Close();
    });
  }

  std::vector<std::map<std::string, double>> scrapes;
  for (int i = 0; i < 15; ++i) {
    const std::string scrape = Scrape(server.metrics_port());
    EXPECT_NE(scrape.find("HTTP/1.0 200 OK"), std::string::npos) << i;
    scrapes.push_back(ParseScrape(scrape));
    size_t histograms = 0;
    for (const auto& [series, value] : scrapes.back()) {
      const size_t inf = series.find("_bucket{");
      if (inf == std::string::npos ||
          series.find("le=\"+Inf\"") == std::string::npos) {
        continue;
      }
      // name_bucket{labels,le="+Inf"} -> name_count{labels}
      std::string count = series.substr(0, inf) + "_count";
      const size_t open = inf + sizeof("_bucket") - 1;
      const size_t le = series.find("le=", open);
      std::string labels = series.substr(open, le - open);
      if (labels.size() > 1) {
        labels.back() = '}';  // drop the ',' before le
        count += labels;
      }
      ++histograms;
      ASSERT_TRUE(scrapes.back().count(count)) << count;
      EXPECT_EQ(value, scrapes.back().at(count)) << series << " scrape " << i;
    }
    EXPECT_GE(histograms, 2u) << i;  // at least net/loop/{wait,work}_s
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  stop.store(true);
  for (auto& t : load) {
    t.join();
  }
  server.Stop();
  loop.join();

  // The reactors have stopped, so their registries may be walked here.
  std::vector<std::string> monotone;
  for (uint32_t s = 0; s < server.shard_count(); ++s) {
    for (const auto& [name, counter] : server.shard_obs(s).registry.counters()) {
      std::string flat = name;
      std::replace(flat.begin(), flat.end(), '/', '_');
      monotone.push_back(flat);
    }
    for (const auto& [name, hist] : server.shard_obs(s).registry.histograms()) {
      std::string flat = name.substr(0, name.find('{'));
      std::replace(flat.begin(), flat.end(), '/', '_');
      monotone.push_back(flat + "_count");
    }
  }
  size_t compared = 0;
  for (size_t i = 1; i < scrapes.size(); ++i) {
    for (const auto& [series, value] : scrapes[i - 1]) {
      const std::string base = series.substr(0, series.find('{'));
      if (std::find(monotone.begin(), monotone.end(), base) ==
          monotone.end()) {
        continue;
      }
      ++compared;
      const auto now = scrapes[i].find(series);
      ASSERT_NE(now, scrapes[i].end()) << series;
      EXPECT_GE(now->second, value) << series << " scrape " << i;
    }
  }
  EXPECT_GT(compared, 0u);
  // The scrape sums all four reactors: each adopted one load connection.
  EXPECT_EQ(scrapes.back()["net_conns_opened"], 4.0);
  EXPECT_EQ(server.shard_obs(0).registry.CounterValue("net/conns_opened"), 1);
}

// Every request fact is one counter, so once traffic on both reactors has
// been answered, `stats` and the scrape report the same numbers.
TEST(ShardedServer, StatsAndScrapeAgreeAtQuiescence) {
  ShardedServerConfig config = FourShardConfig();
  config.threads = 2;
  config.force_dispatch = true;  // connections land round-robin: 0, then 1
  config.base.metrics_port = 0;
  ShardedServer server(config);
  ASSERT_TRUE(server.Start());
  std::thread loop([&server] { server.Run(); });

  NetClient on0;
  NetClient on1;
  ASSERT_TRUE(on0.Connect("127.0.0.1", server.port()));
  ASSERT_EQ(SpotcacheStat(on0, "spotcache_shard"), 0);
  ASSERT_TRUE(on1.Connect("127.0.0.1", server.port()));
  ASSERT_EQ(SpotcacheStat(on1, "spotcache_shard"), 1);
  for (NetClient* c : {&on0, &on1}) {
    for (int i = 0; i < 50; ++i) {
      const std::string key = "q:" + std::to_string(i);
      ASSERT_TRUE(c->Set(key, "v"));
      EXPECT_TRUE(c->Get(key).found);
    }
    EXPECT_FALSE(c->Get("q:absent").found);
    EXPECT_TRUE(c->Touch("q:1", 0));
    EXPECT_FALSE(c->Touch("q:absent", 0));
    EXPECT_TRUE(c->Delete("q:2"));
    ASSERT_TRUE(c->SendRaw("bogus\r\n"));
    EXPECT_EQ(c->ReadLine().value_or(""), "ERROR");
  }
  ASSERT_TRUE(on1.FlushAll());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto stats = on1.Stats();
  ASSERT_TRUE(stats.has_value());
  const std::map<std::string, double> scrape =
      ParseScrape(Scrape(server.metrics_port()));
  const auto series = [&scrape](const std::string& name) {
    const auto it = scrape.find(name);
    EXPECT_NE(it, scrape.end()) << name;
    return it == scrape.end() ? -1.0 : it->second;
  };
  const auto stat = [&stats](const std::string& name) {
    return std::stod(stats->at(name));
  };
  EXPECT_EQ(stat("cmd_get"),
            series("net_get_hits") + series("net_get_misses"));
  EXPECT_EQ(stat("get_hits"), series("net_get_hits"));
  EXPECT_EQ(stat("get_misses"), series("net_get_misses"));
  EXPECT_EQ(stat("cmd_set"), series("net_sets"));
  EXPECT_EQ(stat("cmd_touch"), series("net_touches"));
  EXPECT_EQ(stat("cmd_delete"), series("net_deletes"));
  EXPECT_EQ(stat("cmd_flush"), series("net_flushes"));
  EXPECT_EQ(stat("protocol_errors"), series("net_protocol_errors"));
  EXPECT_EQ(stat("cmd_get"), 102);
  EXPECT_EQ(stat("cmd_set"), 100);
  EXPECT_EQ(stat("cmd_touch"), 4);
  EXPECT_EQ(stat("protocol_errors"), 2);

  on0.Close();
  on1.Close();
  server.Stop();
  loop.join();
}

// With no background publisher an idle reactor sleeps in epoll_wait: over a
// second with no traffic the loop runs only for the scrapes themselves.
TEST(ShardedServer, IdleReactorsStayAsleep) {
  ShardedServerConfig config = FourShardConfig();
  config.threads = 2;
  config.base.metrics_port = 0;
  ShardedServer server(config);
  ASSERT_TRUE(server.Start());
  std::thread loop([&server] { server.Run(); });

  const auto iterations = [&server] {
    return ParseScrape(Scrape(server.metrics_port()))["net_loop_iterations"];
  };
  const double before = iterations();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const double after = iterations();
  // A scrape costs reactor 0 an accept and a read iteration or so. A
  // periodic wake on either reactor would add tens per second.
  EXPECT_LE(after - before, 6.0);

  server.Stop();
  loop.join();
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

/// Answers every request with the index of the reactor it was built for.
class ReactorIdHandler : public RequestHandler {
 public:
  explicit ReactorIdHandler(uint32_t reactor) : reactor_(reactor) {}
  bool Handle(const TextRequest& req, int64_t /*now*/,
              ResponseAssembler* out) override {
    if (req.verb == Verb::kQuit) {
      return false;
    }
    out->Appendf("VERSION reactor-%u\r\n", reactor_);
    return true;
  }
  void HandleParseError(ParseErrorKind /*kind*/,
                        ResponseAssembler* out) override {
    out->Append("ERROR\r\n");
  }

 private:
  uint32_t reactor_;
};

// A handler factory in place of the cache: Start() builds one handler per
// reactor, in order, on that reactor's Obs, and each reactor serves its own.
TEST(ShardedServer, FactoryBuildsEachReactorsHandler) {
  ShardedServerConfig config = FourShardConfig();
  config.threads = 3;
  config.force_dispatch = true;  // round-robin: one connection per reactor
  std::vector<std::pair<uint32_t, Obs*>> built;
  ShardedServer server(config, [&built](uint32_t reactor, Obs* obs) {
    built.emplace_back(reactor, obs);
    return std::make_unique<ReactorIdHandler>(reactor);
  });
  ASSERT_TRUE(server.Start());
  ASSERT_EQ(built.size(), 3u);
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(built[i].first, i);
    EXPECT_EQ(built[i].second, &server.shard_obs(i));
  }
  std::thread loop([&server] { server.Run(); });

  std::vector<std::unique_ptr<NetClient>> clients;
  std::vector<std::string> seen;
  for (int i = 0; i < 3; ++i) {
    clients.push_back(std::make_unique<NetClient>());
    ASSERT_TRUE(clients.back()->Connect("127.0.0.1", server.port()));
    const auto version = clients.back()->Version();
    ASSERT_TRUE(version.has_value());
    seen.push_back(*version);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<std::string>{"reactor-0", "reactor-1",
                                            "reactor-2"}));
  // No cache was built, so there are no cache totals.
  EXPECT_EQ(server.TotalSnapshot().capacity_bytes, 0u);

  for (auto& c : clients) {
    c->Close();
  }
  server.Stop();
  loop.join();
}

// Command semantics across stripes under a controlled clock: multiget
// assembles in request order across stripes; flush_all empties every stripe
// before its reply reaches the issuing connection.
TEST(ShardedServer, FlushAllAndMultigetSpanShards) {
  std::atomic<int64_t> now{kT0};
  ShardedServer server(FourShardConfig());
  server.SetClock([&now] { return now.load(); });
  ASSERT_TRUE(server.Start());
  std::thread loop([&server] { server.Run(); });

  {
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
    // Keys on four distinct stripes.
    const std::vector<std::string> keys = {"a", "b", "key", "spotcache"};
    std::vector<uint32_t> stripes;
    for (const std::string& key : keys) {
      stripes.push_back(ShardOfKey(key, kStoreStripes));
    }
    std::sort(stripes.begin(), stripes.end());
    EXPECT_EQ(std::unique(stripes.begin(), stripes.end()), stripes.end());
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_TRUE(client.Set(keys[i], "val" + std::to_string(i)));
    }
    // One request, four stripes, replies in request order.
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
    // Stripes serve again after the flush.
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

/// Feeds `in` to `core` as one batch of requests at `now`.
void HandleAll(ServerCore* core, std::string_view in, int64_t now,
               ResponseAssembler* out) {
  RequestParser parser;
  parser.Feed(in);
  while (parser.Next() == ParseStatus::kRequest) {
    core->Handle(parser.request(), now, out);
  }
  EXPECT_EQ(parser.buffered(), 0u);
}

/// Two reactors' cores serving one store, like a two-thread ShardedServer.
struct TwoCores {
  explicit TwoCores(size_t capacity_bytes)
      : store(capacity_bytes, kStoreStripes),
        a(ServerCoreConfig{}),
        b(ServerCoreConfig{}) {
    cores = {&a, &b};
    a.ConfigureShard({0, 2, &store, &cores});
    b.ConfigureShard({1, 2, &store, &cores});
  }
  StripedStore store;
  ServerCore a;
  ServerCore b;
  std::vector<const ServerCore*> cores;
};

// A get on one reactor pins the item's block. Another reactor then
// overwrites, evicts or deletes the item on its own thread before the first
// reactor's reply is written; the reply must still carry the original bytes,
// and the first reactor's release of the last pin frees the block on its
// own thread (the TSan job runs this).
TEST(ShardedServer, GetPinSurvivesPeerOverwriteEvictAndDelete) {
  // 4 KiB per stripe: one 4000-byte filler in k's stripe evicts k.
  TwoCores two(kStoreStripes * 4096);
  const std::string key = "k";
  std::string filler = "f0";
  for (int i = 1; ShardOfKey(filler, kStoreStripes) !=
                  ShardOfKey(key, kStoreStripes);
       ++i) {
    filler = "f" + std::to_string(i);
  }
  const std::string big(4000, 'b');
  const std::string writes[] = {
      "set k 0 0 3\r\nnew\r\n",
      "set " + filler + " 0 0 4000\r\n" + big + "\r\n",
      "delete k\r\n",
  };

  // round r: the reader pins at 2r+1, the writer has written at 2r+2.
  constexpr int kRounds = 300;
  std::atomic<int> step{0};
  const auto await = [&step](int want) {
    while (step.load(std::memory_order_acquire) < want) {
      std::this_thread::yield();
    }
  };
  std::thread writer([&] {
    ResponseAssembler out;
    for (int r = 0; r < kRounds; ++r) {
      await(2 * r + 1);
      HandleAll(&two.b, writes[r % 3], kT0, &out);
      out.Clear();
      step.store(2 * r + 2, std::memory_order_release);
    }
  });
  ResponseAssembler setup;
  ResponseAssembler out;
  for (int r = 0; r < kRounds; ++r) {
    HandleAll(&two.a, "set k 0 0 3\r\nold\r\n", kT0, &setup);
    setup.Clear();
    HandleAll(&two.a, "get k\r\n", kT0, &out);
    step.store(2 * r + 1, std::memory_order_release);
    await(2 * r + 2);
    EXPECT_EQ(out.Flatten(), "VALUE k 0 3\r\nold\r\nEND\r\n") << "round " << r;
    out.Clear();
    // The peer's write took effect.
    HandleAll(&two.a, "get k\r\n", kT0, &out);
    EXPECT_EQ(out.Flatten(), r % 3 == 0 ? "VALUE k 0 3\r\nnew\r\nEND\r\n"
                                        : "END\r\n")
        << "round " << r;
    out.Clear();
  }
  writer.join();
  EXPECT_GE(two.store.evictions(), static_cast<uint64_t>(kRounds / 3));
}

/// Checks one get reply: every VALUE names a requested key, in request
/// order, and carries a value that starts with "<key>:" and has the declared
/// length. Returns the number of hits, or -1 on a malformed reply.
int CheckGetReply(const std::string& reply,
                  const std::vector<std::string>& keys) {
  size_t pos = 0;
  size_t next_key = 0;
  int hits = 0;
  for (;;) {
    const size_t eol = reply.find("\r\n", pos);
    if (eol == std::string::npos) {
      return -1;
    }
    const std::string line = reply.substr(pos, eol - pos);
    pos = eol + 2;
    if (line == "END") {
      return pos == reply.size() ? hits : -1;
    }
    char name[64];
    unsigned flags = 0;
    size_t len = 0;
    if (std::sscanf(line.c_str(), "VALUE %63s %u %zu", name, &flags, &len) !=
        3) {
      return -1;
    }
    while (next_key < keys.size() && keys[next_key] != name) {
      ++next_key;
    }
    if (next_key == keys.size() || pos + len + 2 > reply.size() ||
        reply.compare(pos, keys[next_key].size() + 1,
                      keys[next_key] + ":") != 0 ||
        reply.compare(pos + len, 2, "\r\n") != 0) {
      return -1;
    }
    pos += len + 2;
    ++next_key;
    ++hits;
  }
}

// Four reactors' cores on four threads hammer one store with set, multiget,
// delete, touch and flush_all over 48 keys they all share. Every get reply
// must be well formed and self-verifying, and the counters every reactor
// bumps must sum exactly.
TEST(ShardedServer, FourReactorsShareKeysUnderSetGetDeleteFlush) {
  constexpr int kThreads = 4;
  constexpr int kOps = 4000;
  constexpr int kKeys = 48;
  StripedStore store(1 << 20, kStoreStripes);
  std::vector<std::unique_ptr<ServerCore>> owned;
  std::vector<const ServerCore*> cores;
  for (uint32_t i = 0; i < kThreads; ++i) {
    owned.push_back(std::make_unique<ServerCore>(ServerCoreConfig{}));
    cores.push_back(owned.back().get());
  }
  for (uint32_t i = 0; i < kThreads; ++i) {
    owned[i]->ConfigureShard({i, kThreads, &store, &cores});
  }
  const auto key_of = [](int k) { return "ov:" + std::to_string(k); };

  std::atomic<int> bad{0};
  std::atomic<uint64_t> sets{0};
  std::atomic<uint64_t> flushes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ServerCore* core = owned[t].get();
      ResponseAssembler out;
      for (int i = 0; i < kOps; ++i) {
        // The clock advances, so a flush_all hides what came before it.
        const int64_t now = kT0 + i / 200;
        const int k = (i * 7 + t * 13) % kKeys;
        std::string wire;
        std::vector<std::string> keys;
        switch (i % 8) {
          case 0:
          case 1:
          case 2: {
            const std::string value = key_of(k) + ":" + std::to_string(t) +
                                      ":" + std::to_string(i);
            wire = "set " + key_of(k) + " 0 0 " +
                   std::to_string(value.size()) + "\r\n" + value + "\r\n";
            ++sets;
            break;
          }
          case 3:
          case 4:
          case 5:
            wire = "get";
            for (int d = 0; d < 3; ++d) {
              keys.push_back(key_of((k + d * 11) % kKeys));
              wire += " " + keys.back();
            }
            wire += "\r\n";
            break;
          case 6:
            wire = "delete " + key_of(k) + "\r\n";
            break;
          default:
            if (i % 400 == 7) {
              wire = "flush_all\r\n";
              ++flushes;
            } else {
              wire = "touch " + key_of(k) + " 0\r\n";
            }
            break;
        }
        HandleAll(core, wire, now, &out);
        if (!keys.empty() && CheckGetReply(out.Flatten(), keys) < 0) {
          ++bad;
        }
        out.Clear();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(bad.load(), 0);
  const CoreSnapshot total = owned[0]->Snapshot();
  EXPECT_EQ(total.cmd_set, sets.load());
  EXPECT_EQ(total.cmd_flush, flushes.load());
  EXPECT_EQ(total.cmd_get, uint64_t{kThreads} * (kOps / 8) * 3 * 3);
  EXPECT_EQ(total.get_hits + total.get_misses, total.cmd_get);
  EXPECT_LE(total.curr_items, static_cast<uint64_t>(kKeys));
  EXPECT_EQ(total.curr_items, store.item_count());
}

// `stats` served by one reactor reports writes made through another: the
// store's totals and every reactor's counters, with no cross-reactor
// barrier. The scrape (reactor 0) and `stats spotcache` (reactor 1) report
// the same store index bytes.
TEST(ShardedServer, StatsOnOneReactorSeeWritesOnAnother) {
  ShardedServerConfig config = FourShardConfig();
  config.threads = 2;
  config.force_dispatch = true;  // connections land round-robin: 0, then 1
  config.base.metrics_port = 0;
  ShardedServer server(config);
  ASSERT_TRUE(server.Start());
  std::thread loop([&server] { server.Run(); });

  NetClient on0;
  NetClient on1;
  ASSERT_TRUE(on0.Connect("127.0.0.1", server.port()));
  ASSERT_EQ(SpotcacheStat(on0, "spotcache_shard"), 0);
  ASSERT_TRUE(on1.Connect("127.0.0.1", server.port()));
  ASSERT_EQ(SpotcacheStat(on1, "spotcache_shard"), 1);

  ASSERT_TRUE(on0.Set("written-on-0", "value"));
  ASSERT_TRUE(on0.Get("written-on-0").found);
  const auto stats = on1.Stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->at("cmd_set"), "1");
  EXPECT_EQ(stats->at("cmd_get"), "1");
  EXPECT_EQ(stats->at("get_hits"), "1");
  EXPECT_EQ(stats->at("curr_items"), "1");

  const long index_bytes = SpotcacheStat(on1, "spotcache_store_index_bytes");
  EXPECT_GT(index_bytes, 0);
  const std::string scrape = Scrape(server.metrics_port());
  const auto gauge = [&scrape](const std::string& name) {
    const size_t at = scrape.find("\n" + name + " ");
    return at == std::string::npos
               ? -1L
               : std::atol(scrape.c_str() + at + name.size() + 2);
  };
  EXPECT_EQ(gauge("net_store_index_bytes"), index_bytes);
  EXPECT_EQ(gauge("net_store_items"), 1);

  on0.Close();
  on1.Close();
  server.Stop();
  loop.join();
}

// Each reactor counts its receive buffer and reply arena plus its cache
// connections' held tails and pending output; `stats spotcache` (reactor 1)
// sums the same per-reactor gauges the scrape (reactor 0) sums, so the two
// agree at every quiescent step. A connection holds only what it still
// owes: idle connections add nothing, one parked halfway through a 512 KiB
// set holds at least that half, and the gauge drops back once the rest
// arrives.
TEST(ShardedServer, ConnBufferBytesAgreeInStatsAndScrape) {
  ShardedServerConfig config = FourShardConfig();
  config.threads = 2;
  config.force_dispatch = true;  // connections land round-robin: 0, 1, 0, ...
  config.base.metrics_port = 0;
  ShardedServer server(config);
  ASSERT_TRUE(server.Start());
  std::thread loop([&server] { server.Run(); });
  const auto scraped = [&server] {
    const std::string scrape = Scrape(server.metrics_port());
    const std::string name = "\nnet_conn_buffer_bytes ";
    const size_t at = scrape.find(name);
    return at == std::string::npos
               ? -1L
               : std::atol(scrape.c_str() + at + name.size());
  };

  NetClient on0;
  NetClient on1;
  ASSERT_TRUE(on0.Connect("127.0.0.1", server.port()));
  ASSERT_EQ(SpotcacheStat(on0, "spotcache_shard"), 0);
  ASSERT_TRUE(on1.Connect("127.0.0.1", server.port()));
  ASSERT_EQ(SpotcacheStat(on1, "spotcache_shard"), 1);
  const long base = SpotcacheStat(on1, "spotcache_conn_buffer_bytes");
  EXPECT_GE(base, 2 * static_cast<long>(config.base.recv_chunk));
  EXPECT_EQ(scraped(), base);

  // Idle connections hold nothing. The probe's own request proves every
  // earlier connection has been accepted and handed to its reactor.
  std::vector<NetClient> idle(4);
  for (NetClient& c : idle) {
    ASSERT_TRUE(c.Connect("127.0.0.1", server.port()));
  }
  NetClient probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", server.port()));
  ASSERT_GE(SpotcacheStat(probe, "spotcache_shard"), 0);
  EXPECT_EQ(SpotcacheStat(on1, "spotcache_conn_buffer_bytes"), base);
  EXPECT_EQ(scraped(), base);

  // Half of a 512 KiB set: the connection holds at least that half (its
  // payload buffer, sized to the declared bytes) until the rest arrives.
  NetClient big;
  ASSERT_TRUE(big.Connect("127.0.0.1", server.port()));
  const size_t value_bytes = 512 * 1024;
  const std::string line = "set big 0 0 " + std::to_string(value_bytes) + "\r\n";
  ASSERT_TRUE(big.SendRaw(line + std::string(value_bytes / 2, 'b')));
  long during = base;
  for (int i = 0; i < 500 &&
                  during < base + static_cast<long>(value_bytes / 2);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    during = SpotcacheStat(on1, "spotcache_conn_buffer_bytes");
  }
  EXPECT_GE(during, base + static_cast<long>(value_bytes / 2));
  EXPECT_LE(during, base + static_cast<long>(value_bytes + line.size() + 64));
  EXPECT_EQ(scraped(), during);

  ASSERT_TRUE(big.SendRaw(std::string(value_bytes / 2, 'b') + "\r\n"));
  EXPECT_EQ(big.ReadLine().value_or(""), "STORED");
  EXPECT_EQ(SpotcacheStat(on1, "spotcache_conn_buffer_bytes"), base);
  EXPECT_EQ(scraped(), base);

  big.Close();
  probe.Close();
  for (NetClient& c : idle) {
    c.Close();
  }
  on0.Close();
  on1.Close();
  server.Stop();
  loop.join();
}

// The stripes split the capacity to the byte: limit_maxbytes is exactly the
// configured capacity, even when it does not divide by the stripe count.
TEST(ShardedServer, LimitMaxbytesIsTheConfiguredCapacity) {
  ShardedServerConfig config = FourShardConfig();
  config.threads = 3;
  config.capacity_bytes = (size_t{64} << 20) + 7;
  ShardedServer server(config);
  ASSERT_TRUE(server.Start());
  std::thread loop([&server] { server.Run(); });
  {
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
    const auto stats = client.Stats();
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(std::stoull(stats->at("limit_maxbytes")),
              config.capacity_bytes);
    client.Close();
  }
  server.Stop();
  loop.join();
  EXPECT_EQ(server.TotalSnapshot().capacity_bytes,
            config.capacity_bytes);
}

}  // namespace
}  // namespace spotcache::net
