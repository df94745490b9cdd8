// The proxy counts each fact once: its `stats` block and its scrape read the
// same proxy/* registry counters and fleet-view gauges, so at quiescence
// every proxy_* line of `stats` equals the scrape series of the same name.
// The proxy serves no cache, so its scrape has no cache-server series.
//
// The agreement test's fleet is one live upstream and one dead slot with no backup, so
// every rung of the accounting moves: gets on the dead slot are sheds
// (reported as misses), writes there fail (SERVER_ERROR to the client), and
// the pool counts every lost key and command as unreachable.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/client.h"
#include "src/net/server.h"
#include "src/net/server_core.h"
#include "src/obs/obs.h"
#include "src/proxy/membership.h"
#include "src/proxy/proxy_core.h"

namespace spotcache::proxy {
namespace {

/// One HTTP/1.0 scrape of the metrics endpoint; returns the body as
/// series -> value.
std::map<std::string, double> Scrape(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string req = "GET /metrics HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::send(fd, req.data(), req.size(), 0),
            static_cast<ssize_t>(req.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

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
    if (!line.empty() && line[0] != '#' && space != std::string::npos) {
      series[line.substr(0, space)] = std::atof(line.c_str() + space + 1);
    }
    pos = end + 1;
  }
  return series;
}

TEST(ProxyMetrics, StatsAndScrapeAgreeAtQuiescence) {
  net::ServerCore upstream_core(net::ServerCoreConfig{});
  net::NetServer upstream(net::NetServerConfig{}, &upstream_core);
  ASSERT_TRUE(upstream.Start());

  Obs obs;
  ProxyCore core(ProxyCoreConfig{}, &obs);
  core.pool().SetNode(0, "127.0.0.1", upstream.port());
  core.pool().SetNode(1, "127.0.0.1", 1);  // nothing listens: a dead slot
  std::vector<std::string> keys;
  std::vector<bool> dead;
  int dead_keys = 0;
  for (int i = 0; i < 40; ++i) {
    keys.push_back("k:" + std::to_string(i));
    dead.push_back(core.pool().OwnerOf(keys.back()) == 1u);
    dead_keys += dead.back() ? 1 : 0;
  }
  ASSERT_GT(dead_keys, 0);
  ASSERT_LT(dead_keys, 40);
  net::NetServerConfig px_cfg;
  px_cfg.metrics_port = 0;
  net::NetServer proxy(px_cfg, &core, &obs);
  ASSERT_TRUE(proxy.Start());
  std::thread up_loop([&upstream] { upstream.Run(); });
  std::thread px_loop([&proxy] { proxy.Run(); });

  net::NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", proxy.port()));
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(client.Set(keys[i], "v"), !dead[i]) << keys[i];
    EXPECT_EQ(client.Get(keys[i]).found, !dead[i]) << keys[i];
  }
  const size_t live = std::find(dead.begin(), dead.end(), false) - dead.begin();
  EXPECT_TRUE(client.Touch(keys[live], 0));
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(client.Delete(keys[i]), !dead[i]) << keys[i];
  }
  ASSERT_TRUE(client.SendRaw("bogus\r\n"));
  EXPECT_EQ(client.ReadLine().value_or(""), "ERROR");

  // Every request has been answered, so nothing is left to count.
  const auto stats = client.Stats();
  ASSERT_TRUE(stats.has_value());
  const std::map<std::string, double> scrape = Scrape(proxy.metrics_port());
  int compared = 0;
  for (const auto& [name, value] : *stats) {
    if (name.rfind("proxy_", 0) != 0) {
      continue;
    }
    ++compared;
    const auto it = scrape.find(name);
    if (it == scrape.end()) {
      ADD_FAILURE() << name << " has no scrape series";
      continue;
    }
    EXPECT_EQ(std::stod(value), it->second) << name;
  }
  EXPECT_EQ(compared, 23);

  const auto stat = [&stats](const std::string& name) {
    return std::stol(stats->at(name));
  };
  // 40 sets, 40 gets, 1 touch, 40 deletes and the stats itself; a parse
  // error is counted apart from requests.
  EXPECT_EQ(stat("proxy_requests"), 122);
  EXPECT_EQ(stat("proxy_sheds"), dead_keys);
  EXPECT_EQ(stat("proxy_set_failures"), dead_keys);
  EXPECT_EQ(stat("proxy_unreachable"), 3 * dead_keys);
  EXPECT_EQ(stat("proxy_protocol_errors"), 1);

  client.Close();
  proxy.Stop();
  px_loop.join();
  upstream.Stop();
  up_loop.join();
}

/// Whether any scrape series name starts with `prefix`.
bool HasSeries(const std::map<std::string, double>& scrape,
               const std::string& prefix) {
  const auto it = scrape.lower_bound(prefix);
  return it != scrape.end() && it->first.rfind(prefix, 0) == 0;
}

// The proxy's NetServer serves the ProxyCore alone: its scrape carries the
// transport and proxy series, and none of a cache server's request counters
// or store gauges.
TEST(ProxyMetrics, ScrapeCarriesNoCacheSeries) {
  net::ServerCore upstream_core(net::ServerCoreConfig{});
  net::NetServer upstream(net::NetServerConfig{}, &upstream_core);
  ASSERT_TRUE(upstream.Start());
  Obs obs;
  ProxyCore core(ProxyCoreConfig{}, &obs);
  core.pool().SetNode(0, "127.0.0.1", upstream.port());
  net::NetServerConfig px_cfg;
  px_cfg.metrics_port = 0;
  net::NetServer proxy(px_cfg, &core, &obs);
  ASSERT_TRUE(proxy.Start());
  std::thread up_loop([&upstream] { upstream.Run(); });
  std::thread px_loop([&proxy] { proxy.Run(); });

  net::NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", proxy.port()));
  EXPECT_TRUE(client.Set("k", "v"));
  EXPECT_TRUE(client.Get("k").found);
  EXPECT_FALSE(client.Get("absent").found);
  const std::map<std::string, double> scrape = Scrape(proxy.metrics_port());
  EXPECT_EQ(scrape.at("proxy_requests"), 3);
  for (const char* absent :
       {"net_requests", "net_get_hits", "net_sets", "net_store_"}) {
    EXPECT_FALSE(HasSeries(scrape, absent)) << absent;
  }
  EXPECT_EQ(scrape.count("net_heap_in_use_bytes"), 1u);
  EXPECT_TRUE(HasSeries(scrape, "net_loop_work_s"));

  client.Close();
  proxy.Stop();
  px_loop.join();
  upstream.Stop();
  up_loop.join();
}

// A reloaded fleet view shows the same generation and node count in `stats`
// and in the scrape.
TEST(ProxyMetrics, ReloadedFleetViewAgreesInStatsAndScrape) {
  net::ServerCore upstream_core(net::ServerCoreConfig{});
  net::NetServer upstream(net::NetServerConfig{}, &upstream_core);
  ASSERT_TRUE(upstream.Start());
  const std::string path = ::testing::TempDir() + "/proxy_metrics_members_" +
                           std::to_string(::getpid());
  FleetMembership m;
  m.generation = 1;
  m.nodes = {{0, "127.0.0.1", upstream.port()}};
  Obs obs;
  ProxyCore core(ProxyCoreConfig{}, &obs);
  core.pool().ApplyMembership(m);
  net::NetServerConfig px_cfg;
  px_cfg.metrics_port = 0;
  net::NetServer proxy(px_cfg, &core, &obs);
  proxy.SetReloadHandler([&core, &path] { core.ReloadMembership(path); });
  ASSERT_TRUE(proxy.Start());
  std::thread up_loop([&upstream] { upstream.Run(); });
  std::thread px_loop([&proxy] { proxy.Run(); });

  m.generation = 5;
  m.nodes.push_back({1, "", 0});  // a dead slot
  ASSERT_TRUE(SaveMembership(path, m));
  proxy.RequestReload();
  net::NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", proxy.port()));
  std::optional<std::map<std::string, std::string>> stats;
  for (int i = 0; i < 200; ++i) {
    stats = client.Stats();
    ASSERT_TRUE(stats.has_value());
    if (stats->at("proxy_generation") == "5") {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::map<std::string, double> scrape = Scrape(proxy.metrics_port());
  EXPECT_EQ(stats->at("proxy_generation"), "5");
  EXPECT_EQ(stats->at("proxy_nodes"), "2");
  EXPECT_EQ(scrape.at("proxy_generation"), 5);
  EXPECT_EQ(scrape.at("proxy_nodes"), 2);
  EXPECT_EQ(scrape.at("proxy_reloads"), 1);

  client.Close();
  proxy.Stop();
  px_loop.join();
  upstream.Stop();
  up_loop.join();
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace spotcache::proxy
