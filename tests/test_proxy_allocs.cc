// Allocation guard for the proxy's per-request path.
//
// ProxyCore::Handle forwards single-key sets and gets to a live in-process
// upstream. Once warm, a request must reuse what earlier requests left
// behind (op slots with their wire, key and value buffers, leg queues, the
// reply arena), so the steady state stays at or under 0.1 heap allocations
// per request. The remainder is std::deque chunk churn in the leg queues.
//
// The binary replaces the global operator new to count allocations made on
// the test thread only (a thread_local counter): the upstream NetServer runs
// on its own thread and its allocations are not the proxy's.

#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/protocol.h"
#include "src/net/response.h"
#include "src/net/server.h"
#include "src/net/server_core.h"
#include "src/proxy/proxy_core.h"

namespace {
thread_local uint64_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace spotcache::proxy {
namespace {

constexpr int kWarmup = 2'000;
constexpr int kMeasured = 10'000;
constexpr double kMaxPerRequest = 0.1;

class ProxyAllocs : public ::testing::Test {
 protected:
  ProxyAllocs()
      : upstream_core_(net::ServerCoreConfig{}),
        upstream_(net::NetServerConfig{}, &upstream_core_),
        core_(ProxyCoreConfig{}) {}

  void SetUp() override {
    ASSERT_TRUE(upstream_.Start());
    loop_ = std::thread([this] { upstream_.Run(); });
    core_.pool().SetNode(0, "127.0.0.1", upstream_.port());
    // 16-byte keys, like the serving benchmark's: too long for the
    // short-string buffer, so a per-request key copy would allocate.
    for (int i = 0; i < 1'000; ++i) {
      key_storage_.push_back("perfbench:k" + std::to_string(10'000 + i));
    }
    keys_.assign(key_storage_.begin(), key_storage_.end());
  }

  void TearDown() override {
    upstream_.Stop();
    if (loop_.joinable()) {
      loop_.join();
    }
  }

  /// Sends `count` single-key requests of `verb`; returns the allocations
  /// they made on this thread.
  uint64_t Run(net::Verb verb, int count) {
    const uint64_t before = g_allocations;
    for (int i = 0; i < count; ++i) {
      net::TextRequest req;
      req.verb = verb;
      req.keys = std::span<const std::string_view>(&keys_[i % keys_.size()], 1);
      req.data = "value-0123456789-0123456789";
      core_.Handle(req, 0, &out_);
      out_.Clear();
    }
    return g_allocations - before;
  }

  net::ServerCore upstream_core_;
  net::NetServer upstream_;
  std::thread loop_;
  ProxyCore core_;
  net::ResponseAssembler out_;
  std::vector<std::string> key_storage_;
  std::vector<std::string_view> keys_;
};

TEST_F(ProxyAllocs, SteadyStateRequestsStayAllocationFree) {
  Run(net::Verb::kSet, kWarmup / 2);
  Run(net::Verb::kGet, kWarmup / 2);

  const uint64_t set_allocs = Run(net::Verb::kSet, kMeasured);
  const uint64_t get_allocs = Run(net::Verb::kGet, kMeasured);
  const double per_set = static_cast<double>(set_allocs) / kMeasured;
  const double per_get = static_cast<double>(get_allocs) / kMeasured;
  EXPECT_LE(per_set, kMaxPerRequest) << set_allocs << " allocations";
  EXPECT_LE(per_get, kMaxPerRequest) << get_allocs << " allocations";

  // The requests really went upstream and came back whole.
  const ProxyStats& stats = core_.stats();
  EXPECT_EQ(stats.set_primary, static_cast<uint64_t>(kWarmup / 2 + kMeasured));
  EXPECT_EQ(stats.get_hits, static_cast<uint64_t>(kWarmup / 2 + kMeasured));
  EXPECT_EQ(core_.pool().stats().absorbed_failures, 0u);
  net::TextRequest get;
  get.verb = net::Verb::kGet;
  get.keys = std::span<const std::string_view>(&keys_[7], 1);
  core_.Handle(get, 0, &out_);
  EXPECT_EQ(out_.Flatten(), "VALUE perfbench:k10007 0 27\r\n"
                            "value-0123456789-0123456789\r\nEND\r\n");
}

}  // namespace
}  // namespace spotcache::proxy
