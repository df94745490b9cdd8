// Failover suite for the proxy tier (ISSUE 10, satellite 3).
//
// Every way an upstream can betray the proxy mid-conversation — refused
// connections, sockets closed in the middle of a pipelined response, stalls
// past the op deadline, membership declaring a node dead — must end the same
// way: a breaker transition plus a silent hop down the degradation ladder
// (primary -> backup -> miss). The client-facing invariant under test is the
// absorption contract: zero transport errors surface, absorbed_failures > 0.
//
// Scripted peers stand in for dying upstreams: small blocking TCP servers
// whose misbehavior is exact (serve N replies then slam the socket, stall
// forever, refuse outright). The backup rung is always a real NetServer, so
// every degraded answer is a genuine wire round trip.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/client.h"
#include "src/net/server.h"
#include "src/net/server_core.h"
#include "src/obs/trace.h"
#include "src/proxy/membership.h"
#include "src/proxy/proxy_core.h"
#include "src/proxy/upstream_pool.h"

namespace spotcache::proxy {
namespace {

using net::NetClient;
using net::NetServer;
using net::NetServerConfig;
using net::ServerCore;
using net::ServerCoreConfig;

// ---------------------------------------------------------------------------
// Scripted peers: exact upstream misbehavior on a real socket.

/// How the peer treats each accepted connection.
enum class PeerScript {
  kCloseOnAccept,    // accept, then immediately close (reset mid-handshake)
  kCloseMidValue,    // reply to the first get with a torn VALUE block
  kStall,            // read requests, never answer
  kServeThenClose,   // answer `serve_replies` gets correctly, then close
  kAnswerAfter,      // answer no set until `serve_replies` sets have been
                     // read, then all of them and every later one: STORED
  kServerErrorOnGet, // answer the first get with SERVER_ERROR busy
};

/// A one-connection-at-a-time scripted upstream. Runs until Stop().
class ScriptedPeer {
 public:
  explicit ScriptedPeer(PeerScript script, int serve_replies = 0)
      : script_(script), serve_replies_(serve_replies) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    EXPECT_EQ(::listen(listen_fd_, 8), 0);
    thread_ = std::thread([this] { Run(); });
  }

  ~ScriptedPeer() { Stop(); }

  void Stop() {
    if (stopped_.exchange(true)) {
      return;
    }
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  uint16_t port() const { return port_; }
  int connections_seen() const {
    return connections_.load(std::memory_order_relaxed);
  }

 private:
  void Run() {
    while (!stopped_.load(std::memory_order_relaxed)) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        return;  // listener closed by Stop()
      }
      connections_.fetch_add(1, std::memory_order_relaxed);
      ServeOne(fd);
      ::close(fd);
    }
  }

  void ServeOne(int fd) {
    switch (script_) {
      case PeerScript::kCloseOnAccept:
        return;
      case PeerScript::kCloseMidValue: {
        if (ReadOneLine(fd).empty()) {
          return;
        }
        // A VALUE header promising 5 bytes, then only 2 and a dead socket.
        const std::string torn = "VALUE x 0 5\r\nab";
        (void)::send(fd, torn.data(), torn.size(), MSG_NOSIGNAL);
        return;
      }
      case PeerScript::kStall: {
        // Swallow requests until the peer is stopped or the pool gives up
        // and closes its end.
        char buf[4096];
        while (!stopped_.load(std::memory_order_relaxed)) {
          const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
          if (n <= 0) {
            return;
          }
        }
        return;
      }
      case PeerScript::kServerErrorOnGet: {
        if (ReadOneLine(fd).empty()) {
          return;
        }
        const std::string busy = "SERVER_ERROR busy\r\n";
        (void)::send(fd, busy.data(), busy.size(), MSG_NOSIGNAL);
        char buf[256];
        while (::recv(fd, buf, sizeof(buf), 0) > 0) {
        }
        return;  // the pool hung up
      }
      case PeerScript::kServeThenClose: {
        int served = 0;
        while (served < serve_replies_) {
          const std::string line = ReadOneLine(fd);
          if (line.empty()) {
            return;
          }
          // Single-key pipelined gets: "get <key>".
          const size_t sp = line.find(' ');
          const std::string key =
              sp == std::string::npos ? "" : line.substr(sp + 1);
          const std::string reply = "VALUE " + key + " 0 1\r\np\r\nEND\r\n";
          if (::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL) < 0) {
            return;
          }
          ++served;
        }
        return;  // the close mid-pipeline is the point
      }
      case PeerScript::kAnswerAfter: {
        std::string in;
        int read_sets = 0;
        int unanswered = 0;
        char buf[4096];
        for (;;) {
          const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
          if (n <= 0) {
            return;
          }
          in.append(buf, static_cast<size_t>(n));
          // Complete commands only: "set <key> <flags> <exptime> <bytes>",
          // then <bytes> of payload and CRLF.
          size_t pos = 0;
          for (;;) {
            const size_t eol = in.find("\r\n", pos);
            if (eol == std::string::npos) {
              break;
            }
            const size_t sp = in.rfind(' ', eol);
            const size_t end =
                eol + 2 + std::stoul(in.substr(sp + 1, eol - sp - 1)) + 2;
            if (end > in.size()) {
              break;
            }
            pos = end;
            ++read_sets;
            ++unanswered;
          }
          in.erase(0, pos);
          if (read_sets >= serve_replies_ && unanswered > 0) {
            std::string replies;
            for (; unanswered > 0; --unanswered) {
              replies += "STORED\r\n";
            }
            if (::send(fd, replies.data(), replies.size(), MSG_NOSIGNAL) < 0) {
              return;
            }
          }
        }
      }
    }
  }

  /// Reads up to one CRLF-terminated line (returned without the CRLF).
  std::string ReadOneLine(int fd) {
    std::string line;
    char ch;
    while (line.size() < 512) {
      const ssize_t n = ::recv(fd, &ch, 1, 0);
      if (n <= 0) {
        return "";
      }
      line.push_back(ch);
      if (line.size() >= 2 && line.compare(line.size() - 2, 2, "\r\n") == 0) {
        line.resize(line.size() - 2);
        return line;
      }
    }
    return "";
  }

  const PeerScript script_;
  const int serve_replies_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stopped_{false};
  std::atomic<int> connections_{0};
  std::thread thread_;
};

/// A port with nothing listening on it (bound, learned, closed).
uint16_t RefusedPort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  ::close(fd);
  return ntohs(addr.sin_port);
}

/// A real backup: NetServer prefilled with `keys` (value "b_<key>").
struct BackupServer {
  BackupServer() : core(ServerCoreConfig{}), server(NetServerConfig{}, &core) {
    EXPECT_TRUE(server.Start());
    loop = std::thread([this] { server.Run(); });
  }
  ~BackupServer() {
    server.Stop();
    loop.join();
  }
  void Prefill(const std::vector<std::string>& keys) {
    NetClient c;
    ASSERT_TRUE(c.Connect("127.0.0.1", server.port()));
    for (const std::string& k : keys) {
      ASSERT_TRUE(c.Set(k, "b_" + k));
    }
    c.Close();
  }
  ServerCore core;
  NetServer server;
  std::thread loop;
};

UpstreamPoolConfig FastPoolConfig() {
  UpstreamPoolConfig config;
  config.op_timeout_ms = 150;  // stalls resolve fast; loopback never stalls
  return config;
}

size_t CountBreakerTransitions(const EventTracer& tracer,
                               std::string_view to_state) {
  size_t n = 0;
  for (const TraceEvent& e : tracer.events()) {
    if (e.type == "breaker_transition" &&
        e.Field("to") == "\"" + std::string(to_state) + "\"") {
      ++n;
    }
  }
  return n;
}

// ---------------------------------------------------------------------------
// Membership documents.

TEST(Membership, SerializeParseRoundTrip) {
  FleetMembership m;
  m.generation = 7;
  m.backup = MemberNode{0, "127.0.0.1", 18000};
  m.nodes = {{2, "127.0.0.1", 18003}, {0, "127.0.0.1", 18001}, {1, "", 0}};

  const std::string text = SerializeMembership(m);
  std::string error;
  const auto parsed = ParseMembership(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->generation, 7u);
  ASSERT_TRUE(parsed->backup.has_value());
  EXPECT_EQ(parsed->backup->port, 18000);
  ASSERT_EQ(parsed->nodes.size(), 3u);
  // Parse() sorts by slot; the dead slot survives the round trip as dead.
  EXPECT_EQ(parsed->nodes[0].slot, 0u);
  EXPECT_EQ(parsed->nodes[1].slot, 1u);
  EXPECT_TRUE(parsed->nodes[1].dead());
  EXPECT_EQ(parsed->nodes[2].port, 18003);
}

TEST(Membership, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",                                               // no magic
      "# wrong magic\r\ngeneration 1\n",                // bad header
      "# spotcache fleet membership v1\ngeneration x\n",
      "# spotcache fleet membership v1\ngeneration 1\n"
      "node 0 127.0.0.1 1\nnode 0 127.0.0.1 2\n",       // duplicate slot
      "# spotcache fleet membership v1\ngeneration 1\nnode 0 127.0.0.1\n",
      "# spotcache fleet membership v1\ngeneration 1\nnode 0 h 70000\n",
      "# spotcache fleet membership v1\ngeneration 1\nwhat 1 2 3\n",
  };
  for (const char* doc : bad) {
    std::string error;
    EXPECT_FALSE(ParseMembership(doc, &error).has_value())
        << "accepted: " << doc;
    EXPECT_FALSE(error.empty()) << "no reason for: " << doc;
  }
}

TEST(Membership, FlagSpecsGoThroughTheDocumentChecks) {
  std::string error;
  const auto m = MembershipFromSpecs({"1:127.0.0.1:11212", "0:10.0.0.1:11211"},
                                     "127.0.0.1:11210", &error);
  ASSERT_TRUE(m.has_value()) << error;
  ASSERT_EQ(m->nodes.size(), 2u);
  EXPECT_EQ(m->nodes[0].slot, 0u);  // sorted by slot, like a parsed file
  EXPECT_EQ(m->nodes[0].host, "10.0.0.1");
  EXPECT_EQ(m->nodes[1].port, 11212);
  ASSERT_TRUE(m->backup.has_value());
  EXPECT_EQ(m->backup->port, 11210);
  EXPECT_FALSE(MembershipFromSpecs({"0:127.0.0.1:1"}, "", &error)
                   ->backup.has_value());

  const std::vector<std::vector<std::string>> bad_nodes = {
      {"x:127.0.0.1:11211"},                         // slot is not a number
      {"0:127.0.0.1:11211x"},                        // port has a tail
      {"0:127.0.0.1:11211", "0:127.0.0.1:11212"},    // duplicate slot
      {"0:127.0.0.1"},                               // no port
      {":127.0.0.1:11211"},                          // empty slot
      {"0::11211"},                                  // empty host
      {"0:127.0.0.1:70000"},                         // port out of range
      {"0:127.0.0.1:0"},                             // port zero
      {"-1:127.0.0.1:11211"},                        // signed slot
  };
  for (const auto& nodes : bad_nodes) {
    error.clear();
    EXPECT_FALSE(MembershipFromSpecs(nodes, "", &error).has_value())
        << "accepted: " << nodes.back();
    EXPECT_FALSE(error.empty()) << "no reason for: " << nodes.back();
  }
  for (const char* backup : {"127.0.0.1", "127.0.0.1:x", ":11210",
                             "127.0.0.1:11210:1"}) {
    error.clear();
    EXPECT_FALSE(
        MembershipFromSpecs({"0:127.0.0.1:1"}, backup, &error).has_value())
        << "accepted backup: " << backup;
    EXPECT_FALSE(error.empty()) << "no reason for backup: " << backup;
  }
}

TEST(Membership, SaveLoadAtomicRoundTrip) {
  const std::string path =
      ::testing::TempDir() + "/members_roundtrip_" +
      std::to_string(::getpid()) + ".txt";
  FleetMembership m;
  m.generation = 3;
  m.nodes = {{0, "127.0.0.1", 19001}, {1, "", 0}};
  ASSERT_TRUE(SaveMembership(path, m));
  const auto loaded = LoadMembership(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 3u);
  EXPECT_FALSE(loaded->backup.has_value());
  ASSERT_EQ(loaded->nodes.size(), 2u);
  EXPECT_TRUE(loaded->nodes[1].dead());
  ::unlink(path.c_str());
  EXPECT_FALSE(LoadMembership(path).has_value());
}

// ---------------------------------------------------------------------------
// Transport failures -> breaker transitions + backup degradation.

TEST(ProxyFailover, RefusedUpstreamDegradesToBackup) {
  BackupServer backup;
  backup.Prefill({"k"});

  EventTracer tracer;
  tracer.set_enabled(true);
  UpstreamPool pool(FastPoolConfig(), &tracer);
  pool.SetNode(0, "127.0.0.1", RefusedPort());
  pool.SetBackup("127.0.0.1", backup.server.port());

  std::vector<std::string_view> keys = {"k"};
  std::vector<KeyFetch> out;
  pool.MultiGet(keys, /*with_cas=*/false, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].found);
  EXPECT_EQ(out[0].rung, ServedRung::kBackup);
  EXPECT_EQ(out[0].data, "b_k");
  EXPECT_GT(pool.stats().absorbed_failures, 0u);
  EXPECT_EQ(pool.stats().backup_served, 1u);

  // failure_threshold is 2: the second refused connect trips the breaker.
  pool.MultiGet(keys, false, &out);
  EXPECT_TRUE(out[0].found);
  EXPECT_EQ(out[0].rung, ServedRung::kBackup);
  EXPECT_GT(CountBreakerTransitions(tracer, "open"), 0u)
      << "repeated refused connects must trip the breaker";

  // The breaker is open now: the next fetch skips the dead leg entirely.
  const uint64_t skips_before = pool.stats().breaker_skips;
  const uint64_t absorbed_open = pool.stats().absorbed_failures;
  pool.MultiGet(keys, false, &out);
  EXPECT_TRUE(out[0].found);
  EXPECT_EQ(out[0].rung, ServedRung::kBackup);
  EXPECT_GT(pool.stats().breaker_skips, skips_before);
  EXPECT_EQ(pool.stats().absorbed_failures, absorbed_open)
      << "an open breaker must not pay the connect timeout again";
}

TEST(ProxyFailover, CloseMidResponseIsATransportFailure) {
  BackupServer backup;
  backup.Prefill({"x"});
  ScriptedPeer peer(PeerScript::kCloseMidValue);

  EventTracer tracer;
  tracer.set_enabled(true);
  UpstreamPool pool(FastPoolConfig(), &tracer);
  pool.SetNode(0, "127.0.0.1", peer.port());
  pool.SetBackup("127.0.0.1", backup.server.port());

  std::vector<std::string_view> keys = {"x"};
  std::vector<KeyFetch> out;
  pool.MultiGet(keys, false, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].found) << "torn VALUE block must fall through to backup";
  EXPECT_EQ(out[0].rung, ServedRung::kBackup);
  EXPECT_EQ(out[0].data, "b_x");
  EXPECT_GT(pool.stats().absorbed_failures, 0u);
  EXPECT_GE(peer.connections_seen(), 1);
}

TEST(ProxyFailover, ServerErrorOnGetFailsOverToBackup) {
  // An upstream error in answer to a get counts like a dead socket: the key
  // is served from the backup and one breaker failure is absorbed.
  BackupServer backup;
  backup.Prefill({"e"});
  ScriptedPeer peer(PeerScript::kServerErrorOnGet);

  UpstreamPool pool(FastPoolConfig(), nullptr);
  pool.SetNode(0, "127.0.0.1", peer.port());
  pool.SetBackup("127.0.0.1", backup.server.port());
  const uint64_t absorbed_before = pool.stats().absorbed_failures;

  std::vector<std::string_view> keys = {"e"};
  std::vector<KeyFetch> out;
  pool.MultiGet(keys, false, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].found);
  EXPECT_EQ(out[0].rung, ServedRung::kBackup);
  EXPECT_EQ(out[0].data, "b_e");
  EXPECT_EQ(pool.stats().absorbed_failures, absorbed_before + 1);
}

TEST(ProxyFailover, StallPastDeadlineDegradesWithinBoundedTime) {
  BackupServer backup;
  backup.Prefill({"s"});
  ScriptedPeer peer(PeerScript::kStall);

  UpstreamPool pool(FastPoolConfig(), nullptr);
  pool.SetNode(0, "127.0.0.1", peer.port());
  pool.SetBackup("127.0.0.1", backup.server.port());

  std::vector<std::string_view> keys = {"s"};
  std::vector<KeyFetch> out;
  const auto t0 = std::chrono::steady_clock::now();
  pool.MultiGet(keys, false, &out);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();

  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].found);
  EXPECT_EQ(out[0].rung, ServedRung::kBackup);
  EXPECT_GT(pool.stats().absorbed_failures, 0u);
  // One op timeout for the stalled leg (+ reconnect attempt + backup trip,
  // all loopback-fast). Far below the stall-forever alternative.
  EXPECT_LT(elapsed, 4 * 150) << "stall must be cut at the op deadline";
}

TEST(ProxyFailover, KillDuringPipelinedMultigetResolvesEveryKey) {
  // Six keys homed on one upstream; the peer answers two replies of the
  // pipelined burst and slams the socket. The first two keys keep their
  // primary answers; the other four must silently re-resolve via the backup.
  std::vector<std::string> names = {"mg0", "mg1", "mg2",
                                    "mg3", "mg4", "mg5"};
  BackupServer backup;
  backup.Prefill(names);
  ScriptedPeer peer(PeerScript::kServeThenClose, /*serve_replies=*/2);

  EventTracer tracer;
  tracer.set_enabled(true);
  UpstreamPool pool(FastPoolConfig(), &tracer);
  pool.SetNode(0, "127.0.0.1", peer.port());
  pool.SetBackup("127.0.0.1", backup.server.port());

  std::vector<std::string_view> keys(names.begin(), names.end());
  std::vector<KeyFetch> out;
  pool.MultiGet(keys, false, &out);

  ASSERT_EQ(out.size(), keys.size());
  size_t primary = 0;
  size_t from_backup = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(out[i].found) << "key " << names[i] << " was lost";
    if (out[i].rung == ServedRung::kPrimary) {
      EXPECT_EQ(out[i].data, "p") << names[i];
      ++primary;
    } else {
      EXPECT_EQ(out[i].rung, ServedRung::kBackup) << names[i];
      EXPECT_EQ(out[i].data, "b_" + names[i]) << names[i];
      ++from_backup;
    }
  }
  EXPECT_EQ(primary, 2u) << "replies served before the kill must stick";
  EXPECT_EQ(from_backup, keys.size() - 2)
      << "keys in flight at the kill must re-resolve via the backup";
  EXPECT_GT(pool.stats().absorbed_failures, 0u);
  // One mid-pipeline kill is one breaker failure (threshold 2): recorded
  // but not yet open — a single blip must not eject the node.
  EXPECT_EQ(CountBreakerTransitions(tracer, "open"), 0u);
}

TEST(ProxyFailover, PipelinedBatchLeavesInOneRoundTrip) {
  // The peer answers nothing until it has read all 200 sets, so the batch
  // lands on the primary only if every set goes upstream together. Any cap
  // on commands in flight strands the rest behind unanswered legs until
  // their deadline sends the whole batch down to the backup.
  constexpr int kSets = 200;
  ScriptedPeer peer(PeerScript::kAnswerAfter, /*serve_replies=*/kSets);
  BackupServer backup;
  UpstreamPool pool(FastPoolConfig());
  pool.SetNode(0, "127.0.0.1", peer.port());
  pool.SetBackup("127.0.0.1", backup.server.port());

  std::vector<UpstreamPool::OpId> ops;
  for (int i = 0; i < kSets; ++i) {
    const std::string key = "batch" + std::to_string(i);
    const std::string wire = "set " + key + " 0 0 1\r\nv\r\n";
    ops.push_back(pool.SubmitLine(
        key, UpstreamPool::kWaitTag,
        [&wire](std::string* buf) { buf->append(wire); }));
  }
  int stored = 0;
  for (const UpstreamPool::OpId op : ops) {
    pool.Wait(op);
    const ForwardResult& result = pool.result(op).line;
    if (result.line == "STORED" && result.rung == ServedRung::kPrimary) {
      ++stored;
    }
    pool.Release(op);
  }
  EXPECT_EQ(stored, kSets);
  EXPECT_EQ(pool.stats().absorbed_failures, 0u);
  EXPECT_EQ(peer.connections_seen(), 1);
}

TEST(ProxyFailover, WritesDegradeToBackupThenReportUnreachable) {
  BackupServer backup;
  UpstreamPool pool(FastPoolConfig(), nullptr);
  pool.SetNode(0, "127.0.0.1", RefusedPort());
  pool.SetBackup("127.0.0.1", backup.server.port());

  const auto fwd =
      pool.ForwardLineCommand("wk", "set wk 0 0 2\r\nhi\r\n");
  ASSERT_TRUE(fwd.line.has_value());
  EXPECT_EQ(*fwd.line, "STORED");
  EXPECT_EQ(fwd.rung, ServedRung::kBackup);

  // Verify the write really landed on the backup rung.
  NetClient check;
  ASSERT_TRUE(check.Connect("127.0.0.1", backup.server.port()));
  EXPECT_EQ(check.Get("wk").value, "hi");
  check.Close();

  // With every rung unreachable the pool reports it — the one case the
  // proxy's client is allowed to see (as SERVER_ERROR on a write).
  UpstreamPool dead_pool(FastPoolConfig(), nullptr);
  dead_pool.SetNode(0, "127.0.0.1", RefusedPort());
  const auto lost =
      dead_pool.ForwardLineCommand("wk", "set wk 0 0 2\r\nhi\r\n");
  EXPECT_FALSE(lost.line.has_value());
  EXPECT_EQ(lost.rung, ServedRung::kNone);
  EXPECT_GT(dead_pool.stats().unreachable, 0u);

  // A refused backup too: a get with no reachable rung is a miss, never an
  // error, and the failures behind it are absorbed.
  dead_pool.SetBackup("127.0.0.1", RefusedPort());
  const UpstreamPoolStats before = dead_pool.stats();
  std::vector<std::string_view> keys = {"wk"};
  std::vector<KeyFetch> got;
  dead_pool.MultiGet(keys, false, &got);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_FALSE(got[0].found);
  EXPECT_EQ(got[0].rung, ServedRung::kNone);
  EXPECT_GT(dead_pool.stats().unreachable, before.unreachable);
  EXPECT_GT(dead_pool.stats().absorbed_failures, before.absorbed_failures);
}

TEST(ProxyFailover, MembershipMarksDeadAndRevives) {
  BackupServer backup;
  backup.Prefill({"mk"});
  BackupServer primary;  // a second real server playing the primary
  {
    NetClient c;
    ASSERT_TRUE(c.Connect("127.0.0.1", primary.server.port()));
    ASSERT_TRUE(c.Set("mk", "from_primary"));
    c.Close();
  }

  UpstreamPool pool(FastPoolConfig(), nullptr);
  FleetMembership m;
  m.generation = 1;
  m.backup = MemberNode{0, "127.0.0.1", backup.server.port()};
  m.nodes = {{0, "127.0.0.1", primary.server.port()}};
  pool.ApplyMembership(m);
  EXPECT_EQ(pool.generation(), 1u);

  std::vector<std::string_view> keys = {"mk"};
  std::vector<KeyFetch> out;
  pool.MultiGet(keys, false, &out);
  EXPECT_EQ(out[0].rung, ServedRung::kPrimary);
  EXPECT_EQ(out[0].data, "from_primary");

  // The controller declares the slot dead: no timeout-probing, straight to
  // the backup. The slot stays on the ring (keys do NOT rehash).
  m.generation = 2;
  m.nodes = {{0, "", 0}};
  pool.ApplyMembership(m);
  EXPECT_EQ(pool.generation(), 2u);
  const uint64_t absorbed_before = pool.stats().absorbed_failures;
  pool.MultiGet(keys, false, &out);
  EXPECT_EQ(out[0].rung, ServedRung::kBackup);
  EXPECT_EQ(out[0].data, "b_mk");
  EXPECT_EQ(pool.stats().absorbed_failures, absorbed_before)
      << "a declared-dead slot must not cost a discovery timeout";

  // Replacement registered: the same slot revives and serves again.
  m.generation = 3;
  m.nodes = {{0, "127.0.0.1", primary.server.port()}};
  pool.ApplyMembership(m);
  pool.MultiGet(keys, false, &out);
  EXPECT_EQ(out[0].rung, ServedRung::kPrimary);
  EXPECT_EQ(out[0].data, "from_primary");
}

// ---------------------------------------------------------------------------
// The full client surface: a live proxy NetServer over a dying fleet.

TEST(ProxyFailover, StalledUpstreamDelaysOnlyItsOwnKeys) {
  // Slot 0 swallows requests and never answers; slot 1 is a real server.
  // A request homed on slot 0 must wait out its own leg deadline without
  // holding up a client whose keys all live on slot 1.
  ScriptedPeer stalled(PeerScript::kStall);
  BackupServer healthy;
  BackupServer backup;

  ProxyCoreConfig pc;
  pc.upstreams = FastPoolConfig();
  const int timeout_ms = pc.upstreams.op_timeout_ms;
  ProxyCore core(pc);
  core.pool().SetNode(0, "127.0.0.1", stalled.port());
  core.pool().SetNode(1, "127.0.0.1", healthy.server.port());
  core.pool().SetBackup("127.0.0.1", backup.server.port());

  std::string stalled_key;
  std::vector<std::string> healthy_keys;
  for (int i = 0; stalled_key.empty() || healthy_keys.size() < 200; ++i) {
    const std::string key = "iso" + std::to_string(i);
    if (core.pool().OwnerOf(key) == 0u) {
      if (stalled_key.empty()) {
        stalled_key = key;
      }
    } else if (healthy_keys.size() < 200) {
      healthy_keys.push_back(key);
    }
  }
  backup.Prefill({stalled_key});
  healthy.Prefill(healthy_keys);

  NetServer proxy(NetServerConfig{}, &core);
  ASSERT_TRUE(proxy.Start());
  std::thread loop([&proxy] { proxy.Run(); });

  NetClient a;
  NetClient b;
  ASSERT_TRUE(a.Connect("127.0.0.1", proxy.port()));
  ASSERT_TRUE(b.Connect("127.0.0.1", proxy.port()));
  const auto a_sent = std::chrono::steady_clock::now();
  ASSERT_TRUE(a.SendRaw("get " + stalled_key + "\r\n"));

  int64_t worst_us = 0;
  for (const std::string& key : healthy_keys) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto got = b.Get(key);
    const int64_t us = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    worst_us = std::max(worst_us, us);
    ASSERT_TRUE(got.found) << key;
    EXPECT_EQ(got.value, "b_" + key);
  }
  EXPECT_LT(worst_us, timeout_ms * 1000 / 3)
      << "a healthy-slot round trip waited behind the stalled upstream";

  // A's get degrades to the backup once its leg deadline passes.
  const auto header = a.ReadLine();
  ASSERT_TRUE(header.has_value());
  std::string reply = *header + "\r\n";
  if (header->rfind("VALUE ", 0) == 0) {
    const auto data = a.ReadLine();
    const auto end = a.ReadLine();
    ASSERT_TRUE(data.has_value() && end.has_value());
    reply += *data + "\r\n" + *end + "\r\n";
  }
  const int64_t a_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - a_sent)
                           .count();
  EXPECT_EQ(reply, "VALUE " + stalled_key + " 0 " +
                       std::to_string(2 + stalled_key.size()) + "\r\nb_" +
                       stalled_key + "\r\nEND\r\n");
  EXPECT_LT(a_ms, 2 * timeout_ms);

  a.Close();
  b.Close();
  proxy.Stop();
  loop.join();
  EXPECT_EQ(core.pool().stats().absorbed_failures, 1u);
  EXPECT_EQ(core.stats().backup_hits, 1u);
  EXPECT_EQ(core.stats().get_hits, healthy_keys.size());
}

TEST(ProxyFailover, ClientSeesZeroErrorsThroughLiveProxy) {
  BackupServer backup;
  backup.Prefill({"a", "b", "c"});
  ScriptedPeer dying(PeerScript::kCloseMidValue);

  Obs obs;
  ProxyCoreConfig pc;
  pc.upstreams = FastPoolConfig();
  ProxyCore core(pc, &obs);
  core.pool().SetNode(0, "127.0.0.1", dying.port());
  core.pool().SetBackup("127.0.0.1", backup.server.port());

  NetServer proxy(NetServerConfig{}, &core);
  ASSERT_TRUE(proxy.Start());
  std::thread loop([&proxy] { proxy.Run(); });

  {
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", proxy.port()));
    // Retrieval through the dying primary: served (from backup), no error.
    const auto got = client.RoundTripRaw("get a b c\r\n", "spotcache-1.6.0");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got,
              "VALUE a 0 3\r\nb_a\r\nVALUE b 0 3\r\nb_b\r\n"
              "VALUE c 0 3\r\nb_c\r\nEND\r\n");
    // A write degrades to the backup; the client just sees STORED.
    EXPECT_TRUE(client.Set("a", "new"));
    const auto re = client.Get("a");
    ASSERT_TRUE(re.found);
    EXPECT_EQ(re.value, "new");
    client.Close();
  }
  proxy.Stop();
  loop.join();

  EXPECT_GT(core.pool().stats().absorbed_failures, 0u);
  EXPECT_GT(core.stats().backup_hits, 0u);
  EXPECT_EQ(core.stats().set_failures, 0u);
  EXPECT_GT(obs.registry.CounterValue("proxy/absorbed_failures"), 0);
}

}  // namespace
}  // namespace spotcache::proxy
