// The proxy counts each fact once: its `stats` block and its scrape read the
// same proxy/* registry counters, so at quiescence every proxy_* counter line
// of `stats` equals the scrape series of the same name.
//
// The fleet here is one live upstream and one dead slot with no backup, so
// every rung of the accounting moves: gets on the dead slot are sheds
// (reported as misses), writes there fail (SERVER_ERROR to the client), and
// the pool counts every lost key and command as unreachable.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/client.h"
#include "src/net/server.h"
#include "src/obs/obs.h"
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
  net::NetServer upstream(net::NetServerConfig{});
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
  net::NetServer proxy(px_cfg, &obs);
  proxy.SetHandler(&core);
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
    // proxy_nodes and proxy_generation describe the fleet view, not traffic.
    if (name.rfind("proxy_", 0) != 0 || name == "proxy_nodes" ||
        name == "proxy_generation") {
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
  EXPECT_EQ(compared, 21);

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

}  // namespace
}  // namespace spotcache::proxy
