// Serving-path telemetry (ISSUE 7): sampling modes, the flight-recorder
// ring, span JSON rendering, per-(op, outcome) latency histograms, and the
// live scrape surface (`stats spotcache` + the HTTP metrics endpoint) over a
// real socket — including a scrape-under-concurrent-load loop that the TSan
// job uses to pin the "scrapes render on the loop thread, race-free" claim.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/net/client.h"
#include "src/net/server.h"
#include "src/net/server_core.h"
#include "src/obs/exporters.h"
#include "src/obs/obs.h"
#include "src/obs/request_telemetry.h"

namespace spotcache {
namespace {

RequestTelemetryConfig AlwaysSample() {
  RequestTelemetryConfig config;
  config.span_sample_every = 1;
  config.latency_sample_every = 1;
  config.slow_request_us = -1;  // no auto-capture noise in unit tests
  return config;
}

/// Drives one fake request through the telemetry lifecycle.
void OneRequest(RequestTelemetry* t, TelemetryOp op, RequestOutcome outcome) {
  t->BeginBatch(/*conn_id=*/7);
  t->BeginRequest();
  t->OnParsed(op, /*key_count=*/1);
  t->OnExecuted(outcome, /*value_bytes=*/100);
  t->EndBatch(/*write_us=*/0);
}

TEST(RequestTelemetry, SampleEveryOneRecordsEverything) {
  Obs obs;
  RequestTelemetry telemetry(AlwaysSample(), &obs);
  for (int i = 0; i < 10; ++i) {
    OneRequest(&telemetry, TelemetryOp::kGet, RequestOutcome::kHit);
  }
  EXPECT_EQ(telemetry.requests_seen(), 10u);
  EXPECT_EQ(telemetry.spans_recorded(), 10u);
  EXPECT_EQ(telemetry.latencies_recorded(), 10u);
  EXPECT_EQ(telemetry.ring_size(), 10u);

  // The latency histogram landed under the (op, outcome) labels, in seconds.
  const auto& hists = obs.registry.histograms();
  const auto it =
      hists.find("net/request_latency_s{op=get,outcome=hit}");
  ASSERT_NE(it, hists.end());
  EXPECT_EQ(it->second.count(), 10u);
}

TEST(RequestTelemetry, DisabledModesPayNothing) {
  Obs obs;
  RequestTelemetryConfig config;
  config.span_sample_every = 0;
  config.latency_sample_every = 0;
  config.slow_request_us = -1;
  RequestTelemetry telemetry(config, &obs);
  for (int i = 0; i < 100; ++i) {
    OneRequest(&telemetry, TelemetryOp::kGet, RequestOutcome::kHit);
  }
  EXPECT_EQ(telemetry.spans_recorded(), 0u);
  EXPECT_EQ(telemetry.latencies_recorded(), 0u);
  EXPECT_EQ(telemetry.ring_size(), 0u);
  EXPECT_TRUE(obs.registry.histograms().empty());
}

TEST(RequestTelemetry, SamplingRateIsApproximatelyHonored) {
  Obs obs;
  RequestTelemetryConfig config;
  config.span_sample_every = 16;
  config.latency_sample_every = 4;
  config.slow_request_us = -1;
  RequestTelemetry telemetry(config, &obs);
  constexpr int kN = 1 << 14;
  for (int i = 0; i < kN; ++i) {
    OneRequest(&telemetry, TelemetryOp::kGet, RequestOutcome::kHit);
  }
  // The sampler is a hash of a counter: expect each rate within 3x either
  // way of nominal (loose — this guards against "always" / "never" bugs,
  // not distribution quality).
  EXPECT_GT(telemetry.spans_recorded(), kN / 16 / 3);
  EXPECT_LT(telemetry.spans_recorded(), kN / 16 * 3);
  EXPECT_GT(telemetry.latencies_recorded(), kN / 4 / 3);
  EXPECT_LT(telemetry.latencies_recorded(), kN / 4 * 3);
  // Span-sampled requests are a subset of latency-sampled ones.
  EXPECT_GE(telemetry.latencies_recorded(), telemetry.spans_recorded());
}

TEST(RequestTelemetry, RingWrapsOldestFirst) {
  Obs obs;
  RequestTelemetryConfig config = AlwaysSample();
  config.flight_ring_capacity = 4;
  RequestTelemetry telemetry(config, &obs);
  for (int i = 0; i < 6; ++i) {
    telemetry.BeginBatch(static_cast<uint64_t>(i));
    telemetry.BeginRequest();
    telemetry.OnParsed(TelemetryOp::kGet, 1);
    telemetry.OnExecuted(RequestOutcome::kHit, 0);
    telemetry.EndBatch(0);
  }
  EXPECT_EQ(telemetry.ring_size(), 4u);
  const std::vector<SpanRecord> snap = telemetry.RingSnapshot();
  ASSERT_EQ(snap.size(), 4u);
  // conn ids 2..5 survive, oldest first.
  for (size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].conn_id, i + 2) << i;
  }
}

// The tracer keeps every committed record, so its last `capacity`
// request_span lines are a reference ring fed the same records. The flight
// recorder renders the same bytes in the same order at every fill level:
// while it grows, as it fills, and after each wrap.
TEST(RequestTelemetry, RingMatchesTracerReferenceAcrossTheWrap) {
  for (const uint32_t capacity : {1u, 2u, 3u, 8u}) {
    Obs obs;
    obs.tracer.set_enabled(true);
    RequestTelemetryConfig config = AlwaysSample();
    config.flight_ring_capacity = capacity;
    RequestTelemetry telemetry(config, &obs);
    for (uint32_t i = 0; i < 3 * capacity + 1; ++i) {
      telemetry.BeginBatch(100 + i);
      telemetry.BeginRequest();
      telemetry.OnParsed(TelemetryOp::kSet, 1);
      telemetry.OnExecuted(RequestOutcome::kStored, i);
      telemetry.EndBatch(i);

      std::vector<std::string> lines;
      std::istringstream traced(ToJsonl(obs.tracer));
      for (std::string line; std::getline(traced, line);) {
        lines.push_back(line);
      }
      ASSERT_EQ(lines.size(), i + 1);
      const size_t kept = std::min<size_t>(lines.size(), capacity);
      std::string want;
      for (size_t j = lines.size() - kept; j < lines.size(); ++j) {
        want += lines[j] + "\n";
      }
      EXPECT_EQ(telemetry.ring_size(), kept);
      EXPECT_EQ(telemetry.RenderFlightRecorderJsonl(), want)
          << "capacity " << capacity << " after " << i + 1 << " records";
      const std::vector<SpanRecord> snap = telemetry.RingSnapshot();
      ASSERT_EQ(snap.size(), kept);
      for (size_t j = 0; j < kept; ++j) {
        EXPECT_EQ(snap[j].conn_id, 100 + i + 1 - kept + j) << j;
      }
    }
  }
}

/// This process's resident anonymous memory in KiB (/proc/self/status).
int64_t RssAnonKb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("RssAnon:", 0) == 0) {
      return std::atoll(line.c_str() + 8);
    }
  }
  return -1;
}

// The ring's storage is reserved, not constructed: building rings touches
// almost none of it, and a page becomes resident as records are written.
TEST(RequestTelemetry, RingPagesBecomeResidentOnlyWhenWritten) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer build: its allocator sets the RSS";
#endif
  // Map every large block freshly, as spotcache_server does at start, so a
  // ring never lands on heap pages an earlier test already touched.
  ASSERT_EQ(::mallopt(M_MMAP_THRESHOLD, 128 * 1024), 1);
  RequestTelemetryConfig config = AlwaysSample();
  ASSERT_EQ(config.flight_ring_capacity, 4096u);  // 192 KiB of records

  const int64_t before = RssAnonKb();
  ASSERT_GT(before, 0);
  std::vector<std::unique_ptr<RequestTelemetry>> rings;
  for (int i = 0; i < 8; ++i) {
    rings.push_back(std::make_unique<RequestTelemetry>(config, nullptr));
  }
  const int64_t built = RssAnonKb();
  EXPECT_LT(built - before, 128) << "8 rings of 192 KiB each";

  RequestTelemetry& first = *rings.front();
  for (uint32_t i = 0; i < config.flight_ring_capacity; ++i) {
    first.BeginBatch(i);
    first.BeginRequest();
    first.OnParsed(TelemetryOp::kGet, 1);
    first.OnExecuted(RequestOutcome::kHit, 100);
    first.EndBatch(0);
  }
  ASSERT_EQ(first.ring_size(), config.flight_ring_capacity);
  const int64_t filled = RssAnonKb();
  EXPECT_GE(filled - built, 176) << "4096 records of 48 B";
  EXPECT_LE(filled - built, 224) << "4096 records of 48 B";
}

TEST(RequestTelemetry, SlowRequestForcesCaptureAndDumpFlag) {
  Obs obs;
  RequestTelemetryConfig config;
  config.span_sample_every = 0;  // only the slow path may record
  config.latency_sample_every = 1;
  config.slow_request_us = 1;
  RequestTelemetry telemetry(config, &obs);
  telemetry.BeginBatch(9);
  telemetry.BeginRequest();
  telemetry.OnParsed(TelemetryOp::kSet, 1);
  // Burn past the threshold on the real clock.
  const int64_t t0 = RequestTelemetry::NowMicros();
  while (RequestTelemetry::NowMicros() - t0 < 10) {
  }
  telemetry.OnExecuted(RequestOutcome::kStored, 10);
  telemetry.EndBatch(0);

  EXPECT_EQ(telemetry.slow_requests(), 1u);
  EXPECT_TRUE(telemetry.dump_pending());
  ASSERT_EQ(telemetry.ring_size(), 1u);
  const SpanRecord span = telemetry.RingSnapshot()[0];
  EXPECT_TRUE(span.slow);
  EXPECT_FALSE(span.full_span);
  EXPECT_GE(span.total_us, 10);
  telemetry.clear_dump_pending();
  EXPECT_FALSE(telemetry.dump_pending());
}

TEST(RequestTelemetry, SpanJsonHasAllPhases) {
  SpanRecord span;
  span.t_start_us = 123;
  span.conn_id = 42;
  span.op = TelemetryOp::kGet;
  span.outcome = RequestOutcome::kMiss;
  span.full_span = true;
  span.queue_us = 1;
  span.parse_us = 2;
  span.store_us = 4;
  span.write_us = 5;
  span.total_us = 15;
  span.keys = 2;
  span.value_bytes = 0;
  const std::string json = RequestTelemetry::RenderSpanJson(span);
  for (const char* needle :
       {"\"t_us\":123", "\"type\":\"request_span\"", "\"conn\":42",
        "\"op\":\"get\"", "\"outcome\":\"miss\"", "\"full_span\":true",
        "\"queue_us\":1", "\"parse_us\":2", "\"store_us\":4",
        "\"write_us\":5", "\"total_us\":15", "\"keys\":2"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle << "\n" << json;
  }
}

TEST(RequestTelemetry, SpanJsonBytesArePinned) {
  // The 32-bit duration fields render exactly as the 64-bit ones did, up to
  // the widest value they hold.
  SpanRecord span;
  span.t_start_us = 9'000'000'000;
  span.conn_id = 42;
  span.op = TelemetryOp::kSet;
  span.outcome = RequestOutcome::kStored;
  span.full_span = true;
  span.queue_us = 1;
  span.parse_us = 2;
  span.store_us = 4;
  span.write_us = 5;
  span.total_us = UINT32_MAX;
  span.keys = 1;
  span.value_bytes = 1 << 20;
  EXPECT_EQ(RequestTelemetry::RenderSpanJson(span),
            "{\"t_us\":9000000000,\"type\":\"request_span\",\"conn\":42,"
            "\"op\":\"set\",\"outcome\":\"stored\",\"full_span\":true,"
            "\"slow\":false,\"queue_us\":1,\"parse_us\":2,\"store_us\":4,"
            "\"write_us\":5,\"total_us\":4294967295,\"keys\":1,"
            "\"bytes\":1048576}");
}

TEST(RequestTelemetry, DurationsSaturateAtUint32Max) {
  EXPECT_EQ(SaturateUs(-1), 0u);
  EXPECT_EQ(SaturateUs(0), 0u);
  EXPECT_EQ(SaturateUs(int64_t{UINT32_MAX}), UINT32_MAX);
  EXPECT_EQ(SaturateUs(int64_t{UINT32_MAX} + 1), UINT32_MAX);
  EXPECT_EQ(SaturateUs(INT64_MAX), UINT32_MAX);

  // A flush stamp past UINT32_MAX us (about 71 minutes) pins the write and
  // total durations at UINT32_MAX instead of wrapping.
  Obs obs;
  RequestTelemetry telemetry(AlwaysSample(), &obs);
  telemetry.BeginBatch(3);
  telemetry.BeginRequest();
  telemetry.OnParsed(TelemetryOp::kGet, 1);
  telemetry.OnExecuted(RequestOutcome::kHit, 100);
  telemetry.EndBatch(int64_t{UINT32_MAX} + 1000);
  ASSERT_EQ(telemetry.ring_size(), 1u);
  const SpanRecord span = telemetry.RingSnapshot()[0];
  EXPECT_TRUE(span.full_span);
  EXPECT_EQ(span.write_us, UINT32_MAX);
  EXPECT_EQ(span.total_us, UINT32_MAX);
  const std::string json = RequestTelemetry::RenderSpanJson(span);
  EXPECT_NE(json.find("\"write_us\":4294967295,\"total_us\":4294967295,"),
            std::string::npos)
      << json;
}

TEST(RequestTelemetry, AbandonedRequestsLeaveNoRecord) {
  Obs obs;
  RequestTelemetry telemetry(AlwaysSample(), &obs);
  telemetry.BeginBatch(1);
  telemetry.BeginRequest();
  telemetry.OnAbandoned();  // parser returned kNeedMore
  telemetry.EndBatch(0);
  EXPECT_EQ(telemetry.spans_recorded(), 0u);
  EXPECT_EQ(telemetry.ring_size(), 0u);
}

// ---------------------------------------------------------------------------
// Integration over a real socket.

class TelemetryServerTest : public ::testing::Test {
 protected:
  void StartServer(net::NetServerConfig config) {
    config.port = 0;
    server_ = std::make_unique<net::NetServer>(config, &core_, &obs_);
    ASSERT_TRUE(server_->Start());
    loop_ = std::thread([this] { server_->Run(); });
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->Stop();
      loop_.join();
    }
  }

  Obs obs_;
  net::ServerCore core_{net::ServerCoreConfig{}, &obs_};
  std::unique_ptr<net::NetServer> server_;
  std::thread loop_;
};

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

/// Sends `stats spotcache` and reads STAT lines until END.
std::vector<std::string> SpotcacheStats(net::NetClient& client) {
  std::vector<std::string> lines;
  EXPECT_TRUE(client.SendRaw("stats spotcache\r\n"));
  for (;;) {
    const auto line = client.ReadLine();
    if (!line.has_value() || *line == "END") {
      break;
    }
    lines.push_back(*line);
  }
  return lines;
}

TEST_F(TelemetryServerTest, StatsSpotcacheAndScrapeSeeTraffic) {
  net::NetServerConfig config;
  config.telemetry.span_sample_every = 1;
  config.telemetry.latency_sample_every = 1;
  config.telemetry.slow_request_us = -1;
  config.metrics_port = 0;
  StartServer(config);
  ASSERT_NE(server_->metrics_port(), 0);

  net::NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()));
  ASSERT_TRUE(client.Set("key", "value"));
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(client.Get("key").found);
  }
  EXPECT_FALSE(client.Get("missing").found);

  const std::vector<std::string> stats = SpotcacheStats(client);
  auto has_stat = [&stats](const std::string& prefix) {
    for (const std::string& line : stats) {
      if (line.rfind("STAT " + prefix, 0) == 0) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(has_stat("spotcache_requests_seen"));
  EXPECT_TRUE(has_stat("spotcache_spans_recorded"));
  EXPECT_TRUE(has_stat("spotcache_latency_get_hit_p99_us"));
  EXPECT_TRUE(has_stat("spotcache_latency_get_miss_count"));
  EXPECT_TRUE(has_stat("spotcache_loop_iterations"));
  // Memory gauges: the store index is never empty once an item is stored.
  EXPECT_TRUE(has_stat("spotcache_store_index_bytes"));
  EXPECT_FALSE(has_stat("spotcache_store_index_bytes 0"));
  EXPECT_TRUE(has_stat("spotcache_heap_in_use_bytes"));
  EXPECT_TRUE(has_stat("spotcache_heap_free_held_bytes"));
  EXPECT_TRUE(has_stat("spotcache_heap_mmapped_bytes"));

  const std::string scrape = Scrape(server_->metrics_port());
  EXPECT_NE(scrape.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(scrape.find("Content-Length:"), std::string::npos);
  EXPECT_NE(scrape.find("net_requests "), std::string::npos);
  EXPECT_NE(
      scrape.find("net_request_latency_s_bucket{op=\"get\",outcome=\"hit\""),
      std::string::npos)
      << scrape;
  for (const char* gauge :
       {"net_store_index_bytes ", "net_heap_in_use_bytes ",
        "net_heap_free_held_bytes ", "net_heap_mmapped_bytes "}) {
    EXPECT_NE(scrape.find(gauge), std::string::npos) << gauge;
  }
  EXPECT_EQ(scrape.find("net_store_index_bytes 0\n"), std::string::npos);
  client.Close();
}

TEST_F(TelemetryServerTest, ScrapeUnderConcurrentLoad) {
  net::NetServerConfig config;
  config.telemetry.span_sample_every = 4;
  config.telemetry.latency_sample_every = 1;
  config.telemetry.slow_request_us = -1;
  config.metrics_port = 0;
  StartServer(config);
  const uint16_t mport = server_->metrics_port();

  // A writer hammers the cache while scrapes interleave: every scrape must
  // be a complete 200 with a parseable body. Single-loop servers render the
  // scrape between batches, so this passes under TSan by construction.
  std::thread load([this] {
    net::NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()));
    ASSERT_TRUE(client.Set("k", "v"));
    for (int i = 0; i < 3000; ++i) {
      EXPECT_TRUE(client.Get("k").found);
    }
    client.Close();
  });
  for (int i = 0; i < 25; ++i) {
    const std::string scrape = Scrape(mport);
    EXPECT_NE(scrape.find("HTTP/1.0 200 OK"), std::string::npos) << i;
    EXPECT_NE(scrape.find("net_metrics_scrapes"), std::string::npos) << i;
  }
  load.join();
  // The signal-driven dump path: flag from this (non-loop) thread, then
  // confirm the loop consumed it.
  server_->RequestTelemetryDump();
  net::NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()));
  EXPECT_TRUE(client.Set("after", "dump"));
  client.Close();
}

TEST_F(TelemetryServerTest, ParseErrorsLandInErrorHistogram) {
  net::NetServerConfig config;
  config.telemetry.span_sample_every = 1;
  config.telemetry.latency_sample_every = 1;
  config.telemetry.slow_request_us = -1;
  StartServer(config);

  net::NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()));
  ASSERT_TRUE(client.SendRaw("bogus command\r\n"));
  const auto reply = client.ReadLine();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, "ERROR");
  // Force a round trip so the stats read below sees the error recorded.
  ASSERT_TRUE(client.Set("k", "v"));
  const std::vector<std::string> stats = SpotcacheStats(client);
  bool found = false;
  for (const std::string& line : stats) {
    if (line.rfind("STAT spotcache_latency_other_error_count", 0) == 0) {
      found = true;
      EXPECT_NE(line.find(" 1"), std::string::npos) << line;
    }
  }
  EXPECT_TRUE(found);
  client.Close();
}

TEST_F(TelemetryServerTest, FlightRecorderDumpWritesSpans) {
  char span_path[] = "/tmp/spotcache_spans_XXXXXX";
  const int tmp_fd = ::mkstemp(span_path);
  ASSERT_GE(tmp_fd, 0);
  ::close(tmp_fd);

  net::NetServerConfig config;
  config.telemetry.span_sample_every = 1;
  config.telemetry.latency_sample_every = 1;
  config.telemetry.slow_request_us = -1;
  config.span_dump_path = span_path;
  StartServer(config);

  net::NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()));
  ASSERT_TRUE(client.Set("k", "v"));
  EXPECT_TRUE(client.Get("k").found);

  server_->RequestTelemetryDump();
  // The dump happens on the loop thread; a round trip after the eventfd
  // wakeup guarantees the loop has cycled past MaybeDumpTelemetry.
  EXPECT_TRUE(client.Get("k").found);
  client.Close();

  // Poll briefly: the loop may still be writing.
  std::string content;
  for (int i = 0; i < 100 && content.empty(); ++i) {
    std::FILE* f = std::fopen(span_path, "rb");
    ASSERT_NE(f, nullptr);
    char buf[8192];
    const size_t n = std::fread(buf, 1, sizeof(buf), f);
    std::fclose(f);
    content.assign(buf, n);
    if (content.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_NE(content.find("\"type\":\"request_span\""), std::string::npos);
  EXPECT_NE(content.find("\"op\":\"set\""), std::string::npos);
  ::unlink(span_path);
}

}  // namespace
}  // namespace spotcache
