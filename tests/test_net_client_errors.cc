// NetClient error-path coverage (ISSUE 6 satellite): SERVER_ERROR replies,
// mid-response disconnects, and partial writes under EAGAIN — the failure
// modes a load generator meets the moment the server sheds or dies — plus
// unit coverage for ReplyReader's pipelined reply classification.
//
// The scripted peer is a raw-socket thread with a per-test handler, so each
// test controls exactly which bytes the client sees and when the connection
// drops.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/net/client.h"
#include "src/net/reply_reader.h"

namespace spotcache::net {
namespace {

/// One-shot scripted TCP peer: listens on an ephemeral loopback port, accepts
/// a single connection, runs `handler` on it, then closes.
class ScriptedServer {
 public:
  using Handler = std::function<void(int fd)>;

  explicit ScriptedServer(Handler handler) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                            &len),
              0);
    port_ = ntohs(addr.sin_port);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
    thread_ = std::thread([this, handler = std::move(handler)] {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) {
        handler(fd);
        ::close(fd);
      }
    });
  }

  ~ScriptedServer() {
    thread_.join();
    ::close(listen_fd_);
  }

  uint16_t port() const { return port_; }

 private:
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

/// Reads until `needle` appears in the accumulated bytes (or the peer closes).
std::string ReadUntil(int fd, std::string_view needle) {
  std::string got;
  char buf[4096];
  while (got.find(needle) == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      break;
    }
    got.append(buf, static_cast<size_t>(n));
  }
  return got;
}

void WriteAll(int fd, std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      return;
    }
    off += static_cast<size_t>(n);
  }
}

// ---------------------------------------------------------------------------
// SERVER_ERROR replies.

TEST(NetClientErrors, GetSeesServerErrorAsMissAndConnectionSurvives) {
  ScriptedServer server([](int fd) {
    ReadUntil(fd, "\r\n");
    WriteAll(fd, "SERVER_ERROR temporarily overloaded\r\n");
    // Connection stays up: serve the follow-up get normally.
    ReadUntil(fd, "\r\n");
    WriteAll(fd, "VALUE k 0 2\r\nok\r\nEND\r\n");
  });
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), 2000));
  EXPECT_FALSE(client.Get("k").found);
  const auto again = client.Get("k");
  EXPECT_TRUE(again.found);
  EXPECT_EQ(again.value, "ok");
}

TEST(NetClientErrors, SetSeesServerErrorAsFailure) {
  ScriptedServer server([](int fd) {
    ReadUntil(fd, "v\r\n");  // command line + payload
    WriteAll(fd, "SERVER_ERROR out of memory storing object\r\n");
  });
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), 2000));
  EXPECT_FALSE(client.Set("k", "v"));
}

// ---------------------------------------------------------------------------
// Mid-response disconnects.

TEST(NetClientErrors, DisconnectInsideValuePayload) {
  ScriptedServer server([](int fd) {
    ReadUntil(fd, "\r\n");
    // Promise 100 bytes, deliver 3, die.
    WriteAll(fd, "VALUE k 0 100\r\nabc");
  });
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), 2000));
  EXPECT_FALSE(client.Get("k").found);
  // The client must not hand back a truncated value or hang; later round
  // trips on the dead socket fail cleanly too.
  EXPECT_FALSE(client.Get("k").found);
}

TEST(NetClientErrors, DisconnectBeforeAnyReply) {
  ScriptedServer server([](int fd) { ReadUntil(fd, "\r\n"); });
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), 2000));
  EXPECT_FALSE(client.Get("k").found);
}

TEST(NetClientErrors, StatsTruncatedMidStream) {
  ScriptedServer server([](int fd) {
    ReadUntil(fd, "\r\n");
    WriteAll(fd, "STAT curr_items 1\r\nSTAT total_i");  // no END, then close
  });
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), 2000));
  EXPECT_FALSE(client.Stats().has_value());
}

TEST(NetClientErrors, VersionGarbageReply) {
  ScriptedServer server([](int fd) {
    ReadUntil(fd, "\r\n");
    WriteAll(fd, "BANANA\r\n");
  });
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), 2000));
  EXPECT_FALSE(client.Version().has_value());
}

// ---------------------------------------------------------------------------
// Partial writes / EAGAIN on send.

TEST(NetClientErrors, LargeSetSurvivesPartialWrites) {
  // 8 MiB of payload cannot fit in the socket buffers, so the client's send
  // loop must handle short writes. The peer drains slowly (after a delay and
  // in small chunks) to force the client through multiple partial sends.
  constexpr size_t kValueBytes = 8 * 1024 * 1024;
  std::atomic<size_t> received{0};
  ScriptedServer server([&received](int fd) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    char buf[16 * 1024];
    std::string tail;
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        return;
      }
      received += static_cast<size_t>(n);
      tail.append(buf, static_cast<size_t>(n));
      if (tail.size() > 8) {
        tail.erase(0, tail.size() - 8);
      }
      if (tail.size() >= 2 && tail.substr(tail.size() - 2) == "\r\n" &&
          received >= kValueBytes) {
        break;
      }
    }
    WriteAll(fd, "STORED\r\n");
  });
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), 2000));
  const std::string value(kValueBytes, 'x');
  EXPECT_TRUE(client.Set("big", value));
  // Command line + payload + trailing CRLF all arrived.
  EXPECT_GE(received.load(), kValueBytes + 2);
}

TEST(NetClientErrors, SendToStalledPeerFailsInsteadOfSpinning) {
  // The peer never reads: the client fills the socket buffers, hits EAGAIN /
  // a send timeout, and must report failure rather than spin or block
  // forever.
  std::atomic<bool> done{false};
  ScriptedServer server([&done](int fd) {
    (void)fd;
    while (!done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  NetClient client;
  // Connect's timeout doubles as SO_SNDTIMEO, bounding each blocked send().
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), 300));
  const auto start = std::chrono::steady_clock::now();
  std::string value(64 * 1024 * 1024, 'x');  // far beyond any socket buffer
  const bool sent = client.SendRaw("set big 0 0 " +
                                   std::to_string(value.size()) + "\r\n" +
                                   value + "\r\n");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  done.store(true);
  EXPECT_FALSE(sent);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            30);
}

// ---------------------------------------------------------------------------
// Typed transport errors + Reconnect() (fleet-mode satellite): the failure
// taxonomy the fleet warm-up streamer branches on when a server process is
// SIGKILLed behind a live connection.

TEST(NetClientTypedErrors, ConnectRefusedIsTyped) {
  // Grab an ephemeral port and close it so nothing is listening there.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const uint16_t dead_port = ntohs(addr.sin_port);
  ::close(probe);

  NetClient client;
  EXPECT_FALSE(client.Connect("127.0.0.1", dead_port, 500));
  EXPECT_EQ(client.last_error(), NetClientError::kRefused);
  EXPECT_EQ(client.last_errno(), ECONNREFUSED);
  EXPECT_EQ(ToString(NetClientError::kRefused), "refused");
}

TEST(NetClientTypedErrors, PeerFinIsTypedClosed) {
  ScriptedServer server([](int fd) { ReadUntil(fd, "\r\n"); });
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), 2000));
  EXPECT_EQ(client.last_error(), NetClientError::kNone);
  EXPECT_FALSE(client.Get("k").found);
  EXPECT_EQ(client.last_error(), NetClientError::kClosed);
  EXPECT_EQ(client.last_errno(), 0);
}

TEST(NetClientTypedErrors, ProtocolErrorIsNotATransportError) {
  // SERVER_ERROR is a healthy connection delivering bad news: last_error()
  // must stay kNone so callers don't trip breakers on overload replies.
  ScriptedServer server([](int fd) {
    ReadUntil(fd, "\r\n");
    WriteAll(fd, "SERVER_ERROR temporarily overloaded\r\n");
  });
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), 2000));
  EXPECT_FALSE(client.Get("k").found);
  EXPECT_EQ(client.last_error(), NetClientError::kNone);
}

TEST(NetClientTypedErrors, OperationWithoutSocketIsNotConnected) {
  NetClient client;
  EXPECT_FALSE(client.Get("k").found);
  EXPECT_EQ(client.last_error(), NetClientError::kNotConnected);
}

/// A reply outside the grammar: the Get misses with kProtocol, the socket is
/// closed, and the next call sees kNotConnected.
void ExpectProtocolError(const std::string& reply) {
  ScriptedServer server([reply](int fd) {
    ReadUntil(fd, "\r\n");
    WriteAll(fd, reply);
    ReadUntil(fd, "\r\n");  // returns when the client hangs up
  });
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), 2000));
  EXPECT_FALSE(client.Get("k").found);
  EXPECT_EQ(client.last_error(), NetClientError::kProtocol);
  EXPECT_EQ(ToString(NetClientError::kProtocol), "protocol");
  EXPECT_FALSE(client.connected());
  EXPECT_FALSE(client.Get("k").found);
  EXPECT_EQ(client.last_error(), NetClientError::kNotConnected);
}

TEST(NetClientTypedErrors, GarbageLineIsAProtocolError) {
  ExpectProtocolError("BANANA\r\n");
}

TEST(NetClientTypedErrors, TornValueTerminatorIsAProtocolError) {
  ExpectProtocolError("VALUE k 0 5\r\nabcdeXY");
}

TEST(NetClientTypedErrors, OverflowingValueLengthIsAProtocolError) {
  ExpectProtocolError("VALUE k 0 18446744073709551615\r\n");
}

TEST(NetClientTypedErrors, LateReplyDoesNotAnswerTheNextCall) {
  // The reply to `get a` arrives after the receive timeout; the client must
  // not hand it out as the answer to `get b`.
  ScriptedServer server([](int fd) {
    ReadUntil(fd, "\r\n");
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    WriteAll(fd, "VALUE a 0 5\r\nalpha\r\nEND\r\n");
    ReadUntil(fd, "\r\n");  // returns when the client hangs up
  });
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), 100));
  EXPECT_FALSE(client.Get("a").found);
  EXPECT_EQ(client.last_error(), NetClientError::kTimeout);
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_FALSE(client.Get("b").found);
  EXPECT_EQ(client.last_error(), NetClientError::kNotConnected);
}

TEST(NetClientTypedErrors, ReconnectRedialsAfterPeerDeath) {
  // A persistent listener whose first accepted connection dies instantly
  // (the SIGKILLed process) and whose second serves normally (the
  // replacement bound to the same endpoint).
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(
      ::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(
      ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const uint16_t port = ntohs(addr.sin_port);
  ASSERT_EQ(::listen(listen_fd, 4), 0);
  std::thread peer([listen_fd] {
    const int fd1 = ::accept(listen_fd, nullptr, nullptr);
    if (fd1 >= 0) {
      ::close(fd1);  // dies under the client
    }
    const int fd2 = ::accept(listen_fd, nullptr, nullptr);
    if (fd2 >= 0) {
      ReadUntil(fd2, "\r\n");
      WriteAll(fd2, "VALUE k 0 2\r\nok\r\nEND\r\n");
      ::close(fd2);
    }
  });

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port, 2000));
  EXPECT_FALSE(client.Get("k").found);
  // Depending on timing the failed round trip lands as FIN, RST, or EPIPE —
  // all are transport errors, never kNone.
  EXPECT_NE(client.last_error(), NetClientError::kNone);

  ReconnectPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_ms = 5;
  EXPECT_TRUE(client.Reconnect(policy));
  EXPECT_EQ(client.reconnects(), 1u);
  EXPECT_EQ(client.last_error(), NetClientError::kNone);
  EXPECT_TRUE(client.Get("k").found);

  peer.join();
  ::close(listen_fd);
}

TEST(NetClientTypedErrors, ReconnectExhaustionKeepsFinalError) {
  ScriptedServer server([](int fd) { ReadUntil(fd, "\r\n"); });
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), 2000));
  EXPECT_FALSE(client.Get("k").found);  // peer closed; listener also gone

  ReconnectPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 2;
  // The ScriptedServer's listener may linger until its destructor; either
  // every dial is refused, or a dial lands on the dead backlog and the next
  // round trip fails. Exhaustion must report false with a typed error.
  if (!client.Reconnect(policy)) {
    EXPECT_NE(client.last_error(), NetClientError::kNone);
  }
}

// ---------------------------------------------------------------------------
// ReplyReader: pipelined reply dispositions (the loadgen's receive path).

using Status = ReplyReader::Status;
using Expect = ReplyReader::Expect;

std::vector<Status> FeedAll(ReplyReader& reader, std::string_view bytes,
                            size_t chunk, bool* ok = nullptr) {
  std::vector<Status> out;
  bool good = true;
  for (size_t i = 0; i < bytes.size() && good; i += chunk) {
    good = reader.Feed(bytes.substr(i, chunk),
                       [&out](Status s) { out.push_back(s); });
  }
  if (ok != nullptr) {
    *ok = good;
  }
  return out;
}

TEST(ReplyReader, ClassifiesPipelinedRepliesAcrossChunkSizes) {
  const std::string stream =
      "VALUE a 0 3\r\nxyz\r\nEND\r\n"   // hit
      "END\r\n"                          // miss
      "STORED\r\n"                       // hit (set)
      "NOT_STORED\r\n"                   // miss (add on existing)
      "SERVER_ERROR temporarily overloaded\r\n"  // error
      "NOT_FOUND\r\n";                   // miss (delete)
  const std::vector<Status> expected = {Status::kHit,  Status::kMiss,
                                        Status::kHit,  Status::kMiss,
                                        Status::kError, Status::kMiss};
  for (size_t chunk : {size_t{1}, size_t{3}, size_t{7}, stream.size()}) {
    ReplyReader reader;
    reader.Push(Expect::kRetrieval);
    reader.Push(Expect::kRetrieval);
    for (int i = 0; i < 4; ++i) {
      reader.Push(Expect::kLine);
    }
    bool ok = false;
    EXPECT_EQ(FeedAll(reader, stream, chunk, &ok), expected)
        << "chunk=" << chunk;
    EXPECT_TRUE(ok);
    EXPECT_EQ(reader.pending(), 0u);
  }
}

TEST(ReplyReader, ValuePayloadContainingProtocolTextIsSkipped) {
  // The payload spells "END\r\n" — byte-count skipping must not mistake it
  // for the terminator.
  const std::string stream = "VALUE a 0 7\r\nEND\r\nxy\r\nEND\r\n";
  ReplyReader reader;
  reader.Push(Expect::kRetrieval);
  bool ok = false;
  const auto got = FeedAll(reader, stream, 2, &ok);
  EXPECT_TRUE(ok);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], Status::kHit);
}

TEST(ReplyReader, ErrorTerminatesRetrievalExpectation) {
  ReplyReader reader;
  reader.Push(Expect::kRetrieval);
  bool ok = false;
  const auto got =
      FeedAll(reader, "SERVER_ERROR shedding load\r\n", 5, &ok);
  EXPECT_TRUE(ok);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], Status::kError);
}

TEST(ReplyReader, BytesWithoutExpectationAreCorruption) {
  ReplyReader reader;
  bool ok = true;
  FeedAll(reader, "STORED\r\n", 8, &ok);
  EXPECT_FALSE(ok);
}

TEST(ReplyReader, UnparseableValueHeaderIsCorruption) {
  ReplyReader reader;
  reader.Push(Expect::kRetrieval);
  bool ok = true;
  FeedAll(reader, "VALUE k 0 notanumber\r\n", 32, &ok);
  EXPECT_FALSE(ok);
}

// The one grammar: payloads delivered whole at any chunking, and anything
// outside the reply vocabulary is corruption.

struct Collected final : ReplyReader::Handler {
  void OnValue(const ReplyReader::Value& v) override {
    values.push_back(std::string(v.key) + "/" + std::to_string(v.flags) +
                     "/" + std::to_string(v.cas) + "/" + std::string(v.data));
  }
  void OnStat(std::string_view name, std::string_view value) override {
    stats.push_back(std::string(name) + "=" + std::string(value));
  }
  bool OnReply(Status status, std::string_view line) override {
    statuses.push_back(status);
    lines.emplace_back(line);
    return true;
  }
  /// Every callback, one per line, in a comparable form.
  std::string Render() const {
    std::string out;
    for (const std::string& v : values) {
      out += "value " + v + "\n";
    }
    for (const std::string& s : stats) {
      out += "stat " + s + "\n";
    }
    for (size_t i = 0; i < statuses.size(); ++i) {
      out += "reply " + std::to_string(static_cast<int>(statuses[i])) + " " +
             lines[i] + "\n";
    }
    return out;
  }
  std::vector<std::string> values;
  std::vector<std::string> stats;
  std::vector<Status> statuses;
  std::vector<std::string> lines;
};

bool FeedStrict(std::string_view bytes, size_t chunk, Collected* got,
                std::initializer_list<Expect> expects) {
  ReplyReader reader;
  for (const Expect e : expects) {
    reader.Push(e);
  }
  for (size_t i = 0; i < bytes.size(); i += chunk) {
    if (!reader.Feed(bytes.substr(i, chunk), got)) {
      return false;
    }
  }
  return true;
}

TEST(ReplyReader, StrictModeDeliversValuesAtAnyChunking) {
  const std::string stream =
      "VALUE a 7 5 42\r\nEND\r\n\r\nEND\r\n"  // payload spells END
      "END\r\n"
      "SERVER_ERROR out of memory\r\n"
      "NOT_STORED\r\n";
  for (size_t chunk = 1; chunk <= stream.size(); ++chunk) {
    Collected got;
    ASSERT_TRUE(FeedStrict(stream, chunk, &got,
                           {Expect::kRetrieval, Expect::kRetrieval,
                            Expect::kLine, Expect::kLine}))
        << "chunk " << chunk;
    ASSERT_EQ(got.values, std::vector<std::string>{"a/7/42/END\r\n"})
        << "chunk " << chunk;
    ASSERT_EQ(got.lines,
              (std::vector<std::string>{"END", "END",
                                        "SERVER_ERROR out of memory",
                                        "NOT_STORED"}))
        << "chunk " << chunk;
  }
}

TEST(ReplyReader, StrictModeRejectsWhatAnUpstreamMustNotSend) {
  const struct {
    const char* bytes;
    Expect expect;
  } bad[] = {
      {"VALUE a 0 5\r\nabcdeXY", Expect::kRetrieval},   // torn terminator
      {"VALUE a 0 2 1 9\r\nab\r\nEND\r\n", Expect::kRetrieval},  // extra
      {"VALUE a 0\r\n", Expect::kRetrieval},            // no byte count
      {"VALUE a 0 2000000\r\n", Expect::kRetrieval},    // over 1 MB
      {"VALUE x 0 5\r\n", Expect::kLine},                // torn reply
      {"HELLO\r\n", Expect::kLine},                      // not a status
  };
  for (const auto& c : bad) {
    Collected got;
    EXPECT_FALSE(FeedStrict(c.bytes, 64, &got, {c.expect})) << c.bytes;
  }
  // An error line mid-get is a well-formed kError reply, not corruption
  // (the proxy's pool is what fails an upstream over on it).
  ReplyReader reader;
  reader.Push(Expect::kRetrieval);
  bool ok = false;
  EXPECT_EQ(FeedAll(reader, "SERVER_ERROR busy\r\n", 64, &ok),
            std::vector<Status>{Status::kError});
  EXPECT_TRUE(ok);
}

// ---------------------------------------------------------------------------
// The one grammar holds for the default reader too (the loadgen's).

TEST(ReplyReader, DefaultReaderRejectsOutOfGrammarReplies) {
  const struct {
    std::string bytes;
    Expect expect;
  } bad[] = {
      // bytes + 2 overflows to 1: a reader that trusts the length skips one
      // byte and takes the END as a hit.
      {"VALUE k 0 18446744073709551615\r\nxEND\r\n", Expect::kRetrieval},
      {"BANANA\r\n", Expect::kLine},  // not a status line
      // A line that never ends must not be buffered without bound.
      {std::string(1 << 20, 'x'), Expect::kRetrieval},
  };
  for (const auto& c : bad) {
    ReplyReader reader;
    reader.Push(c.expect);
    bool ok = true;
    EXPECT_TRUE(FeedAll(reader, c.bytes, 64, &ok).empty())
        << c.bytes.substr(0, 40);
    EXPECT_FALSE(ok) << c.bytes.substr(0, 40);
  }
}

/// Feeds `bytes` cut at `cuts` (ascending offsets) into a fresh reader.
bool FeedCut(std::string_view bytes, const std::vector<size_t>& cuts,
             const std::vector<Expect>& expects, Collected* got) {
  ReplyReader reader;
  for (const Expect e : expects) {
    reader.Push(e);
  }
  size_t at = 0;
  for (const size_t cut : cuts) {
    if (!reader.Feed(bytes.substr(at, cut - at), got)) {
      return false;
    }
    at = cut;
  }
  return reader.Feed(bytes.substr(at), got) && reader.pending() == 0;
}

TEST(ReplyReader, StatsRepliesAtAnyChunking) {
  const std::string stream =
      "STAT pid 42\r\nSTAT version spotcache-1.6.0\r\nEND\r\n"
      "END\r\n"
      "ERROR\r\n";
  const std::vector<Expect> expects = {Expect::kStats, Expect::kStats,
                                       Expect::kStats};
  Collected want;
  want.stats = {"pid=42", "version=spotcache-1.6.0"};
  want.statuses = {Status::kHit, Status::kHit, Status::kError};
  want.lines = {"END", "END", "ERROR"};
  for (size_t chunk = 1; chunk <= stream.size(); ++chunk) {
    std::vector<size_t> cuts;
    for (size_t at = chunk; at < stream.size(); at += chunk) {
      cuts.push_back(at);
    }
    Collected got;
    ASSERT_TRUE(FeedCut(stream, cuts, expects, &got)) << "chunk " << chunk;
    ASSERT_EQ(got.Render(), want.Render()) << "chunk " << chunk;
  }
  // A STAT line is exactly three tokens.
  for (const char* bad : {"STAT pid\r\nEND\r\n", "STAT a b c\r\nEND\r\n",
                          "VALUE a 0 1\r\nx\r\nEND\r\n", "STORED\r\n"}) {
    Collected got;
    EXPECT_FALSE(FeedCut(bad, {}, {Expect::kStats}, &got)) << bad;
  }
}

TEST(ReplyReader, SeededChunkingFuzzMatchesOneWholeFeed) {
  std::mt19937_64 rng(0x5eedc0deULL);
  const auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng() % n);
  };
  const std::vector<std::string> positives = {"STORED", "DELETED", "TOUCHED",
                                              "OK"};
  const std::vector<std::string> negatives = {"NOT_STORED", "NOT_FOUND",
                                              "EXISTS"};
  const std::vector<std::string> errors = {
      "ERROR", "CLIENT_ERROR bad data chunk", "SERVER_ERROR busy"};
  for (int round = 0; round < 300; ++round) {
    std::string stream;
    std::vector<Expect> expects;
    Collected want;
    const size_t replies = 1 + pick(6);
    for (size_t r = 0; r < replies; ++r) {
      const Expect expect = static_cast<Expect>(pick(3));
      expects.push_back(expect);
      if (pick(5) == 0) {  // an error line answers any expectation
        const std::string& e = errors[pick(errors.size())];
        stream += e + "\r\n";
        want.statuses.push_back(Status::kError);
        want.lines.push_back(e);
        continue;
      }
      switch (expect) {
        case Expect::kRetrieval: {
          const size_t blocks = pick(4);
          for (size_t b = 0; b < blocks; ++b) {
            const std::string key = "k" + std::to_string(pick(1000));
            const uint32_t flags = static_cast<uint32_t>(rng());
            const bool with_cas = pick(2) == 0;
            const uint64_t cas = with_cas ? rng() : 0;
            constexpr std::string_view kBytes = "\r\nEND VALUE x";
            std::string data;  // protocol-looking payload bytes
            for (size_t i = pick(24); i > 0; --i) {
              data += kBytes[pick(kBytes.size())];
            }
            stream += "VALUE " + key + " " + std::to_string(flags) + " " +
                      std::to_string(data.size());
            if (with_cas) {
              stream += " " + std::to_string(cas);
            }
            stream += "\r\n" + data + "\r\n";
            want.values.push_back(key + "/" + std::to_string(flags) + "/" +
                                  std::to_string(cas) + "/" + data);
          }
          stream += "END\r\n";
          want.statuses.push_back(blocks > 0 ? Status::kHit : Status::kMiss);
          want.lines.push_back("END");
          break;
        }
        case Expect::kLine: {
          const bool positive = pick(2) == 0;
          const std::string& line = positive
                                        ? positives[pick(positives.size())]
                                        : negatives[pick(negatives.size())];
          stream += line + "\r\n";
          want.statuses.push_back(positive ? Status::kHit : Status::kMiss);
          want.lines.push_back(line);
          break;
        }
        case Expect::kStats: {
          for (size_t i = pick(4); i > 0; --i) {
            const std::string name = "s" + std::to_string(pick(100));
            const std::string value = std::to_string(rng());
            stream += "STAT " + name + " " + value + "\r\n";
            want.stats.push_back(name + "=" + value);
          }
          stream += "END\r\n";
          want.statuses.push_back(Status::kHit);
          want.lines.push_back("END");
          break;
        }
      }
    }
    Collected whole;
    ASSERT_TRUE(FeedCut(stream, {}, expects, &whole)) << stream;
    ASSERT_EQ(whole.Render(), want.Render()) << stream;
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<size_t> cuts;
      for (size_t i = pick(8); i > 0; --i) {
        cuts.push_back(1 + pick(stream.size()));
      }
      std::sort(cuts.begin(), cuts.end());
      Collected got;
      ASSERT_TRUE(FeedCut(stream, cuts, expects, &got)) << stream;
      ASSERT_EQ(got.Render(), whole.Render()) << stream;
    }
  }
}

}  // namespace
}  // namespace spotcache::net
