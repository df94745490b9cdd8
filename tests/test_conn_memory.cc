// Heap a cache connection costs the server between reads.
//
// A reactor owns one receive buffer and one reply arena; a connection holds
// only the bytes it still owes. Two cases pin that, measured as the process
// heap (mallinfo2, as the ItemStoreMemory tests do) and as the reactor's
// `net/conn_buffer_bytes` gauge, through the cache server's handler
// (ServerCore) and the proxy's (ProxyCore, deferred replies):
//
//   * 64 connections that each sent one `version` and read its reply add at
//     most 1 KiB of heap each (a per-connection 64 KiB receive buffer and
//     16 KiB arena block used to cost 80 KiB, and an empty deque of reply
//     slots 576 B), and leave the gauge as it was;
//   * a connection parked in the middle of a 200 KB payload holds at most
//     the payload + its command line + 64 B, and its share of the gauge
//     returns to 0 once the payload completes.
//
// The clients are raw sockets, so the only heap that moves is the server's.

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/request_handler.h"
#include "src/net/server.h"
#include "src/net/server_core.h"
#include "src/obs/obs.h"
#include "src/proxy/proxy_core.h"

namespace spotcache::net {
namespace {

// mallinfo2 reports glibc's own arenas; sanitizer runtimes replace malloc,
// so the heap figures mean nothing there and those checks skip.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kRealMalloc = false;
#else
constexpr bool kRealMalloc = true;
#endif

/// glibc maps a block this large and rounds the mapping up to a page.
constexpr size_t kPageBytes = 4096;

size_t HeapBytes() {
  const struct mallinfo2 mi = ::mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

void SendAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    bytes.remove_prefix(static_cast<size_t>(n));
  }
}

/// Reads one reply line (without its CRLF) into a fixed buffer.
std::string ReadLine(int fd) {
  char buf[256];
  size_t len = 0;
  while (len < sizeof(buf)) {
    const ssize_t n = ::recv(fd, buf + len, sizeof(buf) - len, 0);
    if (n <= 0) {
      break;
    }
    len += static_cast<size_t>(n);
    if (len >= 2 && buf[len - 2] == '\r' && buf[len - 1] == '\n') {
      return std::string(buf, len - 2);
    }
  }
  return std::string(buf, len);
}

/// One NetServer on its own thread around the named handler.
class Served {
 public:
  explicit Served(bool proxy) {
    obs_.tracer.set_enabled(false);
    if (proxy) {
      handler_ = std::make_unique<proxy::ProxyCore>(proxy::ProxyCoreConfig{});
    } else {
      handler_ = std::make_unique<ServerCore>(ServerCoreConfig{});
    }
    server_ = std::make_unique<NetServer>(NetServerConfig{}, handler_.get(),
                                          &obs_);
    EXPECT_TRUE(server_->Start());
    loop_ = std::thread([this] { server_->Run(); });
  }
  ~Served() {
    server_->Stop();
    loop_.join();
  }

  uint16_t port() const { return server_->port(); }
  long Gauge() const {
    return static_cast<long>(
        obs_.registry.GaugeValue("net/conn_buffer_bytes"));
  }
  /// The gauge once it reads `value` (it is updated just after a reply is
  /// written), or its last reading after 2 s.
  long AwaitGauge(long value) const {
    for (int i = 0; i < 2'000 && Gauge() != value; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Gauge();
  }
  /// Waits until the server has read `total` bytes from its clients.
  void AwaitBytesIn(int64_t total) const {
    for (int i = 0; i < 2'000; ++i) {
      if (obs_.registry.CounterValue("net/bytes_in") >= total) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ADD_FAILURE() << "server read "
                  << obs_.registry.CounterValue("net/bytes_in") << " of "
                  << total << " bytes";
  }

 private:
  Obs obs_;
  std::unique_ptr<RequestHandler> handler_;
  std::unique_ptr<NetServer> server_;
  std::thread loop_;
};

void IdleConnectionsAddLittleHeap(bool proxy) {
  constexpr int kConns = 64;
  constexpr std::string_view kVersion = "version\r\n";
  Served served(proxy);
  // A first exchange allocates the reactor's arena and whatever the
  // handler builds once; the second one is answered only after the gauge
  // has counted the first.
  const int warm = Connect(served.port());
  for (int i = 0; i < 2; ++i) {
    SendAll(warm, kVersion);
    ASSERT_EQ(ReadLine(warm).rfind("VERSION ", 0), 0u);
  }
  const long gauge_before = served.Gauge();
  EXPECT_GE(gauge_before, static_cast<long>(NetServerConfig{}.recv_chunk));
  const size_t heap_before = HeapBytes();

  std::vector<int> fds;
  for (int i = 0; i < kConns; ++i) {
    fds.push_back(Connect(served.port()));
    SendAll(fds.back(), kVersion);
    ASSERT_EQ(ReadLine(fds.back()).rfind("VERSION ", 0), 0u);
  }
  const size_t heap_after = HeapBytes();
  std::printf("gauge per connection: %ld B\n",
              (served.Gauge() - gauge_before) / kConns);
  EXPECT_EQ(served.AwaitGauge(gauge_before), gauge_before);
  if (kRealMalloc) {
    const double per_conn =
        (static_cast<double>(heap_after) - static_cast<double>(heap_before)) /
        kConns;
    std::printf("heap per connection: %.0f B\n", per_conn);
    EXPECT_LE(per_conn, 1024.0);
  }
  for (const int fd : fds) {
    ::close(fd);
  }
  ::close(warm);
}

void ParkedPayloadHoldsOnlyItself(bool proxy) {
  constexpr size_t kPayload = 200'000;
  Served served(proxy);
  const int fd = Connect(served.port());
  int64_t sent = 0;
  for (int i = 0; i < 2; ++i) {  // as above: the gauge has counted the first
    SendAll(fd, "version\r\n");
    ASSERT_EQ(ReadLine(fd).rfind("VERSION ", 0), 0u);
    sent += 9;
  }
  const std::string line = "set parked 0 0 " + std::to_string(kPayload) + "\r\n";
  const std::string payload(kPayload, 'p');
  const std::string_view first_half(payload.data(), kPayload / 2);
  const long gauge_before = served.Gauge();
  const size_t heap_before = HeapBytes();

  SendAll(fd, line);
  SendAll(fd, first_half);
  sent += static_cast<int64_t>(line.size() + first_half.size());
  served.AwaitBytesIn(sent);
  const long held = served.Gauge() - gauge_before;
  std::printf("gauge held mid-payload: %ld B\n", held);
  EXPECT_GE(held, static_cast<long>(first_half.size()));
  EXPECT_LE(held, static_cast<long>(kPayload + line.size() + 64));
  if (kRealMalloc) {
    const size_t heap_held = HeapBytes() - heap_before;
    std::printf("heap held mid-payload: %zu B\n", heap_held);
    EXPECT_LE(heap_held, kPayload + line.size() + 64 + kPageBytes);
  }

  SendAll(fd, std::string_view(payload).substr(kPayload / 2));
  SendAll(fd, "\r\n");
  // Stored by the server; the proxy, with no upstream, reports the error.
  EXPECT_FALSE(ReadLine(fd).empty());
  const long after = served.AwaitGauge(gauge_before);
  std::printf("gauge held after the payload: %ld B\n", after - gauge_before);
  EXPECT_EQ(after, gauge_before);
  ::close(fd);
}

TEST(ConnMemory, ServerIdleConnectionsAddLittleHeap) {
  IdleConnectionsAddLittleHeap(/*proxy=*/false);
}

TEST(ConnMemory, ProxyIdleConnectionsAddLittleHeap) {
  IdleConnectionsAddLittleHeap(/*proxy=*/true);
}

TEST(ConnMemory, ServerParkedPayloadHoldsOnlyItself) {
  ParkedPayloadHoldsOnlyItself(/*proxy=*/false);
}

TEST(ConnMemory, ProxyParkedPayloadHoldsOnlyItself) {
  ParkedPayloadHoldsOnlyItself(/*proxy=*/true);
}

}  // namespace
}  // namespace spotcache::net
