// Deterministic protocol fuzzer (ISSUE 5).
//
// Seed-driven streams — valid pipelined commands, truncated commands,
// overlong tokens, binary garbage, misdeclared payload sizes — are fed to
// RequestParser + ServerCore under many different chunkings of the same
// bytes. The pinned properties:
//
//   * no crash, no hang, no sanitizer report (ASan/UBSan jobs run this);
//   * chunking invariance: any split of the same byte stream produces the
//     byte-identical (event sequence, response bytes) pair;
//   * the parser never buffers more than the unconsumed input.
//
// Everything is seeded from spotcache::Rng, so a failure reproduces exactly.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/protocol.h"
#include "src/net/response.h"
#include "src/net/server.h"
#include "src/net/server_core.h"
#include "src/net/sharded_server.h"
#include "src/proxy/proxy_core.h"
#include "src/util/rng.h"

namespace spotcache::net {
namespace {

constexpr int64_t kNow = 2'000'000'000;

/// The observable outcome of parsing+serving a byte stream: a serialized
/// event per request/error, plus the exact response bytes.
struct Outcome {
  std::vector<std::string> events;
  std::string response;

  bool operator==(const Outcome& other) const = default;
};

std::string DescribeRequest(const TextRequest& req) {
  std::string s(ToString(req.verb));
  for (const auto& key : req.keys) {
    s += ' ';
    s.append(key);
  }
  s += " f=" + std::to_string(req.flags);
  s += " e=" + std::to_string(req.exptime);
  s += " d=" + std::to_string(req.delay_s);
  s += " n=" + std::to_string(req.noreply ? 1 : 0);
  s += " |" + std::to_string(req.data.size()) + "|";
  s.append(req.data);
  return s;
}

/// Feeds `stream` in the pieces given by `cuts` (sorted split offsets),
/// draining the parser after each piece.
Outcome RunChunked(std::string_view stream, const std::vector<size_t>& cuts) {
  ServerCore core{ServerCoreConfig{}};
  RequestParser parser;
  ResponseAssembler out;
  Outcome outcome;

  size_t start = 0;
  std::vector<size_t> bounds = cuts;
  bounds.push_back(stream.size());
  for (size_t bound : bounds) {
    parser.Feed(stream.substr(start, bound - start));
    start = bound;
    for (;;) {
      const ParseStatus st = parser.Next();
      if (st == ParseStatus::kNeedMore) {
        break;
      }
      if (st == ParseStatus::kError) {
        outcome.events.push_back(std::string("err:") +
                                 std::string(ToString(parser.error())));
        core.HandleParseError(parser.error(), &out);
        continue;
      }
      outcome.events.push_back(DescribeRequest(parser.request()));
      core.Handle(parser.request(), kNow, &out);
    }
    EXPECT_LE(parser.buffered(), stream.size());
  }
  outcome.response = out.Flatten();
  return outcome;
}

std::vector<size_t> RandomCuts(Rng& rng, size_t len) {
  std::vector<size_t> cuts;
  if (len == 0) {
    return cuts;
  }
  size_t at = 0;
  while (at < len) {
    // Mostly tiny fragments; occasionally large ones.
    const size_t step = rng.NextBelow(8) == 0 ? 1 + rng.NextBelow(len) + 1
                                              : 1 + rng.NextBelow(7);
    at += step;
    if (at < len) {
      cuts.push_back(at);
    }
  }
  return cuts;
}

std::string RandomKey(Rng& rng) {
  // 1 in 16 keys is oversized to poke the 250-byte limit.
  const size_t len = rng.NextBelow(16) == 0
                         ? kMaxKeyBytes + 1 + rng.NextBelow(16)
                         : 1 + rng.NextBelow(24);
  std::string key;
  key.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    key.push_back(static_cast<char>('a' + rng.NextBelow(26)));
  }
  return key;
}

std::string RandomValue(Rng& rng, size_t max_len) {
  const size_t len = rng.NextBelow(max_len + 1);
  std::string v;
  v.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    // Binary-safe payloads, including CR/LF/NUL bytes.
    v.push_back(static_cast<char>(rng.NextBelow(256)));
  }
  return v;
}

/// One pseudo-random stream mixing well-formed and hostile input.
std::string RandomStream(Rng& rng) {
  std::string s;
  const int commands = 1 + static_cast<int>(rng.NextBelow(10));
  for (int i = 0; i < commands; ++i) {
    switch (rng.NextBelow(12)) {
      case 0: {  // well-formed set (sometimes noreply)
        const std::string v = RandomValue(rng, 64);
        s += "set " + RandomKey(rng) + " " + std::to_string(rng.NextBelow(10)) +
             " 0 " + std::to_string(v.size()) +
             (rng.NextBelow(3) == 0 ? " noreply" : "") + "\r\n" + v + "\r\n";
        break;
      }
      case 1:  // well-formed get, possibly multi-key
        s += "get " + RandomKey(rng) + " " + RandomKey(rng) + "\r\n";
        break;
      case 2:
        s += "gets " + RandomKey(rng) + "\r\n";
        break;
      case 3:
        s += "delete " + RandomKey(rng) + "\r\n";
        break;
      case 4:
        s += "touch " + RandomKey(rng) + " " +
             std::to_string(rng.NextBelow(1000)) + "\r\n";
        break;
      case 5:
        s += rng.NextBelow(2) == 0 ? "version\r\n" : "stats\r\n";
        break;
      case 6: {  // misdeclared payload size (bad data chunk)
        const std::string v = RandomValue(rng, 32);
        s += "set " + RandomKey(rng) + " 0 0 " +
             std::to_string(v.size() + 1 + rng.NextBelow(8)) + "\r\n" + v +
             "\r\n";
        break;
      }
      case 7: {  // binary garbage, newline-terminated
        const std::string g = RandomValue(rng, 40);
        s += g + "\n";
        break;
      }
      case 8: {  // overlong token / absurd numbers
        s += "set " + std::string(rng.NextBelow(600), 'z') +
             " 99999999999999999999 -5 3\r\nabc\r\n";
        break;
      }
      case 9:
        s += "flush_all " + std::to_string(rng.NextBelow(100)) + "\r\n";
        break;
      case 10: {  // bare CR / LF noise
        s += rng.NextBelow(2) == 0 ? "\r\n" : "\n";
        break;
      }
      default: {  // well-formed add/replace
        const std::string v = RandomValue(rng, 32);
        s += (rng.NextBelow(2) == 0 ? "add " : "replace ") + RandomKey(rng) +
             " 0 0 " + std::to_string(v.size()) + "\r\n" + v + "\r\n";
        break;
      }
    }
  }
  // 1 in 4 streams is truncated mid-flight.
  if (rng.NextBelow(4) == 0 && !s.empty()) {
    s.resize(s.size() - rng.NextBelow(s.size()));
  }
  return s;
}

TEST(ProtocolFuzz, ChunkingInvarianceOverRandomStreams) {
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    Rng rng(seed);
    const std::string stream = RandomStream(rng);
    const Outcome whole = RunChunked(stream, {});
    for (int split = 0; split < 4; ++split) {
      const std::vector<size_t> cuts = RandomCuts(rng, stream.size());
      const Outcome chunked = RunChunked(stream, cuts);
      ASSERT_EQ(chunked.events, whole.events)
          << "seed " << seed << " split " << split;
      ASSERT_EQ(chunked.response, whole.response)
          << "seed " << seed << " split " << split;
    }
  }
}

// Every single-split position of a representative pipelined stream — the
// strongest form of the invariance for one stream, at byte granularity.
TEST(ProtocolFuzz, EverySplitPositionOfPipelinedStream) {
  const std::string stream =
      "set alpha 7 0 5\r\nhello\r\n"
      "get alpha beta\r\n"
      "gets alpha\r\n"
      "bogus junk\r\n"
      "set beta 0 0 3 noreply\r\nxyz\r\n"
      "set bad 0 0 9\r\nshort\r\n"
      "delete alpha\r\n"
      "touch beta 100\r\n"
      "flush_all 1\r\n"
      "version\r\n";
  const Outcome whole = RunChunked(stream, {});
  EXPECT_FALSE(whole.events.empty());
  for (size_t at = 1; at < stream.size(); ++at) {
    const Outcome split = RunChunked(stream, {at});
    ASSERT_EQ(split.events, whole.events) << "split at byte " << at;
    ASSERT_EQ(split.response, whole.response) << "split at byte " << at;
  }
}

// Oversized values stream through the swallow state without ever being
// buffered; any chunking reports the same single error.
TEST(ProtocolFuzz, OversizedValueSwallowedUnderAnyChunking) {
  const size_t declared = kMaxValueBytes + 10;
  std::string stream = "set huge 0 0 " + std::to_string(declared) + "\r\n";
  stream += std::string(declared, 'x');
  stream += "\r\nget after\r\n";

  const Outcome whole = RunChunked(stream, {});
  ASSERT_EQ(whole.events.size(), 2u);
  EXPECT_EQ(whole.events[0], "err:object_too_large");
  EXPECT_EQ(whole.response,
            "SERVER_ERROR object too large for cache\r\nEND\r\n");

  Rng rng(99);
  for (int i = 0; i < 5; ++i) {
    const Outcome chunked = RunChunked(stream, RandomCuts(rng, stream.size()));
    ASSERT_EQ(chunked.events, whole.events) << "round " << i;
    ASSERT_EQ(chunked.response, whole.response) << "round " << i;
  }
}

// Pure binary garbage must never crash or hang; with no newline it stays
// buffered (kNeedMore), with newlines it resolves to errors.
TEST(ProtocolFuzz, BinaryGarbageNeverCrashes) {
  for (uint64_t seed = 500; seed < 540; ++seed) {
    Rng rng(seed);
    std::string garbage = RandomValue(rng, 4096);
    const Outcome whole = RunChunked(garbage, {});
    const Outcome chunked = RunChunked(garbage, RandomCuts(rng, garbage.size()));
    ASSERT_EQ(chunked.events, whole.events) << "seed " << seed;
    ASSERT_EQ(chunked.response, whole.response) << "seed " << seed;
  }
}

// An unterminated overlong line is discarded as it streams; the error
// arrives exactly once when the newline finally shows up.
TEST(ProtocolFuzz, OverlongLineResyncsAtNewline) {
  std::string stream = "get " + std::string(kMaxCommandLineBytes * 2, 'a');
  stream += "\r\nversion\r\n";
  const Outcome whole = RunChunked(stream, {});
  ASSERT_EQ(whole.events.size(), 2u);
  EXPECT_EQ(whole.events[0], "err:line_too_long");
  EXPECT_EQ(whole.events[1], "version f=0 e=0 d=0 n=0 |0|");
  EXPECT_EQ(whole.response,
            "CLIENT_ERROR bad command line format\r\nVERSION "
            "spotcache-1.6.0\r\n");
  // Byte-at-a-time: the swallow path must behave identically.
  std::vector<size_t> every_byte;
  for (size_t at = 1; at < stream.size(); ++at) {
    every_byte.push_back(at);
  }
  const Outcome trickled = RunChunked(stream, every_byte);
  EXPECT_EQ(trickled.events, whole.events);
  EXPECT_EQ(trickled.response, whole.response);
}

// --- In-place parsing (the server's read path). ---------------------------
//
// A server lends the parser its receive buffer (Borrow/Commit), parses in
// place and Release()s the unparsed tail before the buffer is reused. Each
// piece of the stream is copied into the regions Borrow hands out (the
// scratch buffer, or the parser's own buffer while a declared payload is
// incomplete), drained and released; then the scratch buffer is overwritten
// with garbage, so a view or tail that outlived Release() changes the
// outcome. Events and response bytes must equal the copying Feed() path's
// for every chunking and scratch size, including sizes smaller than a
// command line.
Outcome RunInPlace(std::string_view stream, const std::vector<size_t>& cuts,
                   size_t cap) {
  ServerCore core{ServerCoreConfig{}};
  RequestParser parser;
  ResponseAssembler out;
  Outcome outcome;
  std::vector<char> scratch(cap);
  unsigned char garbage = 0;

  size_t start = 0;
  std::vector<size_t> bounds = cuts;
  bounds.push_back(stream.size());
  for (size_t bound : bounds) {
    std::string_view piece = stream.substr(start, bound - start);
    start = bound;
    while (!piece.empty()) {
      const std::span<char> room = parser.Borrow(scratch.data(), cap);
      const size_t take = std::min(room.size(), piece.size());
      std::memcpy(room.data(), piece.data(), take);
      parser.Commit(take);
      piece.remove_prefix(take);
      for (;;) {
        const ParseStatus st = parser.Next();
        if (st == ParseStatus::kNeedMore) {
          break;
        }
        if (st == ParseStatus::kError) {
          outcome.events.push_back(std::string("err:") +
                                   std::string(ToString(parser.error())));
          core.HandleParseError(parser.error(), &out);
          continue;
        }
        outcome.events.push_back(DescribeRequest(parser.request()));
        core.Handle(parser.request(), kNow, &out);
      }
      parser.Release();
      // Cycles through every byte value, '\n', '\r' and ' ' included.
      std::memset(scratch.data(), garbage, cap);
      garbage = static_cast<unsigned char>(garbage * 5 + 17);
      // What stays held is the unparsed tail, or one declared payload.
      EXPECT_LE(parser.buffered(), parser.buffer_capacity());
      EXPECT_LE(parser.buffer_capacity(), stream.size() + 16);
    }
  }
  outcome.response = out.Flatten();
  return outcome;
}

TEST(ProtocolFuzz, InPlaceParsingMatchesFeed) {
  for (const size_t cap : {size_t{5}, size_t{64}, size_t{4096}}) {
    for (uint64_t seed = 1; seed <= 150; ++seed) {
      Rng rng(seed);
      const std::string stream = RandomStream(rng);
      const Outcome whole = RunChunked(stream, {});
      ASSERT_EQ(RunInPlace(stream, {}, cap), whole)
          << "seed " << seed << " cap " << cap;
      for (int split = 0; split < 4; ++split) {
        const std::vector<size_t> cuts = RandomCuts(rng, stream.size());
        const Outcome fed = RunChunked(stream, cuts);
        const Outcome in_place = RunInPlace(stream, cuts, cap);
        ASSERT_EQ(in_place.events, fed.events)
            << "seed " << seed << " split " << split << " cap " << cap;
        ASSERT_EQ(in_place.response, fed.response)
            << "seed " << seed << " split " << split << " cap " << cap;
      }
    }

    const std::string stream =
        "set alpha 7 0 5\r\nhello\r\n"
        "get alpha beta\r\n"
        "gets alpha\r\n"
        "bogus junk\r\n"
        "set beta 0 0 3 noreply\r\nxyz\r\n"
        "set bad 0 0 9\r\nshort\r\n"
        "delete alpha\r\n"
        "touch beta 100\r\n"
        "flush_all 1\r\n"
        "version\r\n";
    const Outcome whole = RunChunked(stream, {});
    for (size_t at = 1; at < stream.size(); ++at) {
      const Outcome split = RunInPlace(stream, {at}, cap);
      ASSERT_EQ(split.events, whole.events)
          << "split at byte " << at << " cap " << cap;
      ASSERT_EQ(split.response, whole.response)
          << "split at byte " << at << " cap " << cap;
    }
  }
}

// --- Sharded serving must be invisible at the byte level (ISSUE 8). -------
//
// The same seed-driven hostile streams, but over real sockets: a plain
// single-threaded NetServer receives each stream in one send; a 4-reactor
// ShardedServer receives the identical bytes split into arbitrary chunks
// (separate recv batches, so commands — including multigets and payloads —
// straddle batch boundaries). Both servers run the same fixed clock and
// accumulate the same state across seeds, so their response bytes must
// match exactly. One comparison pins two properties at once: chunking
// invariance through the striped shared store, and threads=4 == threads=1
// byte identity on arbitrary (mis)input.

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

void SendAll(int fd, std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<size_t>(n);
  }
}

/// Drains every fd until `window_ms` passes with no readable data on any.
void DrainUntilSilence(std::vector<std::pair<int, std::string*>> conns,
                       int window_ms) {
  std::vector<pollfd> pfds;
  for (const auto& [fd, out] : conns) {
    pfds.push_back({fd, POLLIN, 0});
  }
  char buf[8192];
  for (;;) {
    const int ready = ::poll(pfds.data(), pfds.size(), window_ms);
    if (ready <= 0) {
      return;  // silence (or error): everything in flight has landed
    }
    for (size_t i = 0; i < pfds.size(); ++i) {
      if ((pfds[i].revents & POLLIN) == 0) {
        continue;
      }
      const ssize_t n = ::recv(pfds[i].fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conns[i].second->append(buf, static_cast<size_t>(n));
      }
    }
  }
}

TEST(ProtocolFuzz, ShardedServerMatchesSingleThreadedByteForByte) {
  NetServerConfig plain_config;
  ServerCore plain_core(ServerCoreConfig{});
  NetServer plain(plain_config, &plain_core);
  plain.SetClock([] { return kNow; });
  ASSERT_TRUE(plain.Start());
  std::thread plain_loop([&plain] { plain.Run(); });

  ShardedServerConfig sharded_config;
  sharded_config.base.port = 0;
  sharded_config.base.metrics_port = -1;
  sharded_config.threads = 4;
  ShardedServer sharded(sharded_config);
  sharded.SetClock([] { return kNow; });
  ASSERT_TRUE(sharded.Start());
  std::thread sharded_loop([&sharded] { sharded.Run(); });

  const int plain_fd = ConnectLoopback(plain.port());
  const int sharded_fd = ConnectLoopback(sharded.port());

  // Responses are compared as cumulative byte totals so a reply that lands
  // after one seed's drain window still counts against the right stream.
  std::string plain_total;
  std::string sharded_total;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    const std::string stream = RandomStream(rng);
    if (stream.empty()) {
      continue;
    }
    // Whole bytes to the plain server...
    SendAll(plain_fd, stream);
    // ...identical bytes to the sharded server, in up to 8 bursts separated
    // long enough to land as distinct recv batches (distinct drain calls).
    std::vector<size_t> cuts = RandomCuts(rng, stream.size());
    const size_t stride = cuts.size() / 7 + 1;
    size_t start = 0;
    for (size_t i = stride - 1; i < cuts.size(); i += stride) {
      SendAll(sharded_fd, std::string_view(stream).substr(start, cuts[i] - start));
      start = cuts[i];
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    SendAll(sharded_fd, std::string_view(stream).substr(start));

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(3);
    do {
      DrainUntilSilence(
          {{plain_fd, &plain_total}, {sharded_fd, &sharded_total}},
          /*window_ms=*/60);
    } while (plain_total != sharded_total &&
             std::chrono::steady_clock::now() < deadline);
    ASSERT_EQ(sharded_total, plain_total) << "seed " << seed;
  }

  ::close(plain_fd);
  ::close(sharded_fd);
  plain.Stop();
  plain_loop.join();
  sharded.Stop();
  sharded_loop.join();
}

// --- Proxy tier chunking invariance (ISSUE 10). ---------------------------
//
// The same hostile seed-driven streams, but through a live two-hop stack:
// client socket -> proxy NetServer (ProxyCore fan-out) -> upstream NetServer
// (ServerCore), all on the fixed test clock. Each run builds a FRESH stack so
// cas numbering and item state start identical; then the identical bytes are
// sent under a different client-hop segmentation (distinct recv batches at
// the proxy, which in turn re-fragments its forwarded upstream writes). The
// pinned property: the client-visible response bytes and the proxy's request
// accounting are functions of the byte stream alone, never of how TCP cut it
// on either hop. `stats` rows are fair game — the proxy's block is pure
// counters (no clocks), so it must be byte-stable too. Each property runs
// with one upstream and with three: with several upstreams in flight at
// once, replies complete out of request order inside the proxy, so any
// cross-upstream reordering on the client wire shows up as a byte
// difference.

struct ProxyRunResult {
  std::string response;
  uint64_t requests = 0;
  uint64_t protocol_errors = 0;
  uint64_t absorbed = 0;
};

ProxyRunResult RunThroughProxyStack(std::string_view stream,
                                    const std::vector<size_t>& cuts,
                                    size_t upstream_count) {
  std::vector<std::unique_ptr<ServerCore>> up_cores;
  std::vector<std::unique_ptr<NetServer>> upstreams;
  std::vector<std::thread> up_loops;
  proxy::ProxyCoreConfig pc;
  proxy::ProxyCore core(pc);
  for (size_t i = 0; i < upstream_count; ++i) {
    up_cores.push_back(std::make_unique<ServerCore>(ServerCoreConfig{}));
    upstreams.push_back(
        std::make_unique<NetServer>(NetServerConfig{}, up_cores.back().get()));
    NetServer* upstream = upstreams.back().get();
    upstream->SetClock([] { return kNow; });
    EXPECT_TRUE(upstream->Start());
    up_loops.emplace_back([upstream] { upstream->Run(); });
    core.pool().SetNode(i, "127.0.0.1", upstream->port());
  }
  NetServerConfig px_cfg;
  NetServer proxy_server(px_cfg, &core);
  proxy_server.SetClock([] { return kNow; });
  EXPECT_TRUE(proxy_server.Start());
  std::thread px_loop([&proxy_server] { proxy_server.Run(); });

  ProxyRunResult result;
  const int fd = ConnectLoopback(proxy_server.port());
  std::vector<size_t> bounds = cuts;
  bounds.push_back(stream.size());
  size_t start = 0;
  size_t burst = 0;
  for (size_t bound : bounds) {
    if (bound <= start) {
      continue;
    }
    SendAll(fd, stream.substr(start, bound - start));
    start = bound;
    // Periodic pauses land bursts as distinct recv batches at the proxy, so
    // commands and payloads straddle its drain boundaries mid-parse.
    if (++burst % 8 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  DrainUntilSilence({{fd, &result.response}}, /*window_ms=*/150);
  ::close(fd);
  proxy_server.Stop();
  px_loop.join();
  for (size_t i = 0; i < upstream_count; ++i) {
    upstreams[i]->Stop();
    up_loops[i].join();
  }

  result.requests = core.stats().requests;
  result.protocol_errors = core.stats().protocol_errors;
  result.absorbed = core.pool().stats().absorbed_failures;
  return result;
}

TEST(ProtocolFuzz, ProxyTierChunkingInvariance) {
  for (const size_t upstreams : {1, 3}) {
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      Rng rng(seed);
      const std::string stream = RandomStream(rng);
      if (stream.empty()) {
        continue;
      }
      const ProxyRunResult whole = RunThroughProxyStack(stream, {}, upstreams);
      // A healthy upstream must never trip the degradation machinery, no
      // matter how hostile the client bytes are.
      ASSERT_EQ(whole.absorbed, 0u) << "seed " << seed;
      for (int split = 0; split < 2; ++split) {
        const std::vector<size_t> cuts = RandomCuts(rng, stream.size());
        const ProxyRunResult chunked =
            RunThroughProxyStack(stream, cuts, upstreams);
        const std::string where = "upstreams " + std::to_string(upstreams) +
                                  " seed " + std::to_string(seed) +
                                  " split " + std::to_string(split);
        ASSERT_EQ(chunked.response, whole.response) << where;
        ASSERT_EQ(chunked.requests, whole.requests) << where;
        ASSERT_EQ(chunked.protocol_errors, whole.protocol_errors) << where;
        ASSERT_EQ(chunked.absorbed, 0u) << where;
      }
    }
  }
}

// A pinned pipelined stream — storage, multiget, cas reads, parse errors,
// noreply, misdeclared payload, delayed flush — split at sampled byte
// positions through the proxy. Every sampled single split (including ones
// landing mid-payload and mid-token) must reproduce the unsplit bytes.
TEST(ProtocolFuzz, ProxyTierSplitPositionsOfPipelinedStream) {
  const std::string stream =
      "set alpha 7 0 5\r\nhello\r\n"
      "get alpha beta\r\n"
      "gets alpha\r\n"
      "bogus junk\r\n"
      "set beta 0 0 3 noreply\r\nxyz\r\n"
      "set bad 0 0 9\r\nshort\r\n"
      "delete alpha\r\n"
      "touch beta 100\r\n"
      "flush_all 1\r\n"
      "stats\r\n"
      "version\r\n";
  for (const size_t upstreams : {1, 3}) {
    const ProxyRunResult whole = RunThroughProxyStack(stream, {}, upstreams);
    ASSERT_FALSE(whole.response.empty());
    EXPECT_GT(whole.protocol_errors, 0u);  // bogus + bad data chunk fired
    EXPECT_EQ(whole.absorbed, 0u);
    for (size_t at = 3; at < stream.size(); at += 11) {
      const ProxyRunResult split = RunThroughProxyStack(stream, {at}, upstreams);
      ASSERT_EQ(split.response, whole.response)
          << "upstreams " << upstreams << " split at byte " << at;
      ASSERT_EQ(split.protocol_errors, whole.protocol_errors)
          << "upstreams " << upstreams << " split at byte " << at;
    }
  }
}

}  // namespace
}  // namespace spotcache::net
