// Serving-binary signal handling: SIGUSR1 dumps the flight recorder + a live
// metrics snapshot without interrupting service; SIGTERM still shuts down
// cleanly (exit 0, artifacts written, pidfile removed); the proxy's SIGHUP
// re-reads its fleet file; a port already taken exits 3 with one stderr
// line. Drives the real binaries — spotcache_server's
// path arrives as argv[1] and spotcache_proxy's as argv[2] (wired by CMake
// via $<TARGET_FILE:...>); a case skips when its binary is absent.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/net/client.h"

namespace spotcache {
namespace {

std::string g_server_bin;  // set from argv[1] in main() below
std::string g_proxy_bin;   // set from argv[2]

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return "";
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

/// A serving-binary child process (spotcache_server unless `bin` names
/// another) with stdout captured for the readiness lines.
class ServerProcess {
 public:
  explicit ServerProcess(std::vector<std::string> extra_args,
                         const std::string& bin = g_server_bin) {
    int out_pipe[2];
    if (::pipe(out_pipe) != 0) {
      return;
    }
    pid_ = ::fork();
    if (pid_ == 0) {
      ::dup2(out_pipe[1], STDOUT_FILENO);
      ::close(out_pipe[0]);
      ::close(out_pipe[1]);
      std::vector<std::string> args = {bin, "--port=0"};
      for (std::string& a : extra_args) {
        args.push_back(std::move(a));
      }
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& a : args) {
        argv.push_back(a.data());
      }
      argv.push_back(nullptr);
      ::execv(bin.c_str(), argv.data());
      std::perror("execv");
      ::_exit(127);
    }
    ::close(out_pipe[1]);
    stdout_fd_ = out_pipe[0];
  }

  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    if (stdout_fd_ >= 0) {
      ::close(stdout_fd_);
    }
  }

  pid_t pid() const { return pid_; }

  /// Reads stdout until `needle` appears; returns everything read so far.
  std::string ReadUntil(const std::string& needle) {
    char buf[512];
    while (stdout_.find(needle) == std::string::npos) {
      const ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
      if (n <= 0) {
        break;
      }
      stdout_.append(buf, static_cast<size_t>(n));
    }
    return stdout_;
  }

  /// Parses "<prefix> <port>" from the captured stdout.
  uint16_t PortAfter(const std::string& prefix) {
    const size_t pos = stdout_.find(prefix);
    if (pos == std::string::npos) {
      return 0;
    }
    return static_cast<uint16_t>(
        std::atoi(stdout_.c_str() + pos + prefix.size()));
  }

  /// SIGTERM + waitpid; returns the exit status (-1 on abnormal death).
  int Terminate() {
    if (pid_ <= 0) {
      return -1;
    }
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    const pid_t done = pid_;
    pid_ = -1;
    (void)done;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::string stdout_;
};

/// Runs `bin args...` to its exit; returns the exit status (-1 on abnormal
/// death) and everything it wrote to stderr.
std::pair<int, std::string> RunToExit(const std::string& bin,
                                      std::vector<std::string> args) {
  int err_pipe[2];
  if (::pipe(err_pipe) != 0) {
    return {-1, ""};
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int devnull = ::open("/dev/null", O_WRONLY);
    ::dup2(devnull, STDOUT_FILENO);
    ::dup2(err_pipe[1], STDERR_FILENO);
    ::close(err_pipe[0]);
    ::close(err_pipe[1]);
    args.insert(args.begin(), bin);
    std::vector<char*> argv;
    for (std::string& a : args) {
      argv.push_back(a.data());
    }
    argv.push_back(nullptr);
    ::execv(bin.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(err_pipe[1]);
  std::string err;
  char buf[512];
  for (ssize_t n; (n = ::read(err_pipe[0], buf, sizeof(buf))) > 0;) {
    err.append(buf, static_cast<size_t>(n));
  }
  ::close(err_pipe[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, err};
}

class ServerSignalsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (g_server_bin.empty()) {
      GTEST_SKIP() << "spotcache_server binary path not provided";
    }
  }
};

TEST_F(ServerSignalsTest, Usr1DumpsWithoutStoppingThenTermExitsClean) {
  char dir[] = "/tmp/spotcache_signals_XXXXXX";
  ASSERT_NE(::mkdtemp(dir), nullptr);
  const std::string spans = std::string(dir) + "/spans.jsonl";
  const std::string metrics = std::string(dir) + "/metrics.prom";

  ServerProcess server({"--spans=" + spans, "--metrics=" + metrics,
                        "--span-sample=1", "--latency-sample=1",
                        "--slow-us=-1"});
  ASSERT_GT(server.pid(), 0);
  server.ReadUntil("listening ");
  const uint16_t port = server.PortAfter("listening ");
  ASSERT_NE(port, 0);

  net::NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port));
  ASSERT_TRUE(client.Set("key", "value"));
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(client.Get("key").found);
  }

  // SIGUSR1: both dump files appear while the server keeps serving.
  ASSERT_EQ(::kill(server.pid(), SIGUSR1), 0);
  std::string span_content;
  std::string metrics_content;
  for (int i = 0; i < 500; ++i) {
    span_content = ReadFileOrEmpty(spans);
    metrics_content = ReadFileOrEmpty(metrics);
    if (!span_content.empty() && !metrics_content.empty()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(span_content.find("\"type\":\"request_span\""),
            std::string::npos);
  EXPECT_NE(metrics_content.find("net_requests"), std::string::npos);

  // Still alive and serving after the dump.
  EXPECT_TRUE(client.Get("key").found);
  // SIGHUP triggers the same dump path (no crash, still serving).
  ASSERT_EQ(::kill(server.pid(), SIGHUP), 0);
  EXPECT_TRUE(client.Get("key").found);
  client.Close();

  // Clean shutdown: exit 0 and the final artifacts are (re)written.
  EXPECT_EQ(server.Terminate(), 0);
  EXPECT_NE(ReadFileOrEmpty(spans).find("request_span"), std::string::npos);
  EXPECT_NE(ReadFileOrEmpty(metrics).find("net_requests"),
            std::string::npos);

  ::unlink(spans.c_str());
  ::unlink(metrics.c_str());
  ::rmdir(dir);
}

/// A field of /proc/<pid>/status in kB ("RssAnon", "Threads", ...); -1 when
/// the file or the field is missing.
int64_t StatusField(pid_t pid, const std::string& field) {
  std::istringstream in(
      ReadFileOrEmpty("/proc/" + std::to_string(pid) + "/status"));
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::atoll(line.c_str() + field.size() + 1);
    }
  }
  return -1;
}

/// The idle RssAnon (kB) of a server at `threads` reactors, read once every
/// reactor thread runs and two reads 50 ms apart agree.
int64_t IdleRssAnonKb(int threads) {
  ServerProcess server({"--threads=" + std::to_string(threads)});
  if (server.pid() <= 0) {
    return -1;
  }
  server.ReadUntil("listening ");
  // One reactor runs on the main thread; more each get their own.
  const int64_t want_threads = threads == 1 ? 1 : threads + 1;
  int64_t last = -1;
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (StatusField(server.pid(), "Threads") < want_threads) {
      continue;
    }
    const int64_t rss = StatusField(server.pid(), "RssAnon");
    if (rss == last) {
      return rss;
    }
    last = rss;
  }
  return -1;
}

// A reactor reserves its span ring and receive buffer without touching them,
// and an SO_REUSEPORT server builds no cross-reactor mailbox, so an idle
// reactor adds its thread's stack and a few small tables, not the 192 KiB
// ring it used to zero-fill at start.
TEST_F(ServerSignalsTest, IdleReactorAddsAtMost96KiBOfRss) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer build: its allocator and shadow set the RSS";
#endif
  const int64_t one = IdleRssAnonKb(1);
  const int64_t four = IdleRssAnonKb(4);
  ASSERT_GT(one, 0);
  ASSERT_GT(four, 0);
  EXPECT_LE((four - one) / 3, 96) << "RssAnon " << one << " kB at 1 reactor, "
                                  << four << " kB at 4";
}

TEST_F(ServerSignalsTest, MetricsPortServesLiveScrape) {
  ServerProcess server({"--metrics-port=0"});
  ASSERT_GT(server.pid(), 0);
  server.ReadUntil("metrics listening ");
  const uint16_t port = server.PortAfter("listening ");
  const uint16_t mport = server.PortAfter("metrics listening ");
  ASSERT_NE(port, 0);
  ASSERT_NE(mport, 0);

  net::NetClient cache;
  ASSERT_TRUE(cache.Connect("127.0.0.1", port));
  ASSERT_TRUE(cache.Set("k", "v"));

  net::NetClient scraper;  // raw HTTP over the text-client's socket helpers
  ASSERT_TRUE(scraper.Connect("127.0.0.1", mport));
  ASSERT_TRUE(scraper.SendRaw("GET /metrics HTTP/1.0\r\n\r\n"));
  const auto status = scraper.ReadLine();
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, "HTTP/1.0 200 OK");
  std::string body;
  for (;;) {
    const auto line = scraper.ReadLine();
    if (!line.has_value()) {
      break;  // connection closed after the document
    }
    body += *line;
    body += '\n';
  }
  EXPECT_NE(body.find("net_requests"), std::string::npos);
  scraper.Close();
  cache.Close();
  EXPECT_EQ(server.Terminate(), 0);
}

TEST_F(ServerSignalsTest, ProxyPidfileDumpReloadAndCleanExit) {
  if (g_proxy_bin.empty()) {
    GTEST_SKIP() << "spotcache_proxy binary path not provided";
  }
  char dir[] = "/tmp/spotcache_proxy_signals_XXXXXX";
  ASSERT_NE(::mkdtemp(dir), nullptr);
  const std::string fleet = std::string(dir) + "/fleet.txt";
  const std::string pidfile = std::string(dir) + "/proxy.pid";
  const std::string trace = std::string(dir) + "/trace.jsonl";
  const std::string metrics = std::string(dir) + "/metrics.prom";
  const std::string spans = std::string(dir) + "/spans.jsonl";

  ServerProcess server({});
  ASSERT_GT(server.pid(), 0);
  server.ReadUntil("listening ");
  const uint16_t server_port = server.PortAfter("listening ");
  ASSERT_NE(server_port, 0);
  const auto write_fleet = [&](int generation) {
    std::ofstream(fleet) << "# spotcache fleet membership v1\ngeneration "
                         << generation << "\nnode 0 127.0.0.1 " << server_port
                         << "\n";
  };
  write_fleet(1);

  ServerProcess proxy({"--fleet=" + fleet, "--pidfile=" + pidfile,
                       "--trace=" + trace, "--metrics=" + metrics,
                       "--spans=" + spans, "--span-sample=1"},
                      g_proxy_bin);
  ASSERT_GT(proxy.pid(), 0);
  proxy.ReadUntil("listening ");
  const uint16_t port = proxy.PortAfter("listening ");
  ASSERT_NE(port, 0);
  // The pidfile is written before the readiness line is printed.
  EXPECT_EQ(ReadFileOrEmpty(pidfile), std::to_string(proxy.pid()) + "\n");

  net::NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port));
  ASSERT_TRUE(client.Set("key", "value"));
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(client.Get("key").found);
  }

  // SIGUSR1: spans and a metrics snapshot appear while the proxy serves.
  ASSERT_EQ(::kill(proxy.pid(), SIGUSR1), 0);
  std::string span_content;
  std::string metrics_content;
  for (int i = 0; i < 500; ++i) {
    span_content = ReadFileOrEmpty(spans);
    metrics_content = ReadFileOrEmpty(metrics);
    if (!span_content.empty() && !metrics_content.empty()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(span_content.find("\"type\":\"request_span\""),
            std::string::npos);
  EXPECT_NE(metrics_content.find("proxy_requests"), std::string::npos);
  EXPECT_TRUE(client.Get("key").found);

  // SIGHUP re-reads the rewritten fleet file; service continues.
  write_fleet(2);
  ASSERT_EQ(::kill(proxy.pid(), SIGHUP), 0);
  std::string generation;
  for (int i = 0; i < 500 && generation != "2"; ++i) {
    const auto stats = client.Stats();
    ASSERT_TRUE(stats.has_value());
    const auto it = stats->find("proxy_generation");
    ASSERT_NE(it, stats->end());
    generation = it->second;
    if (generation != "2") {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_EQ(generation, "2");
  EXPECT_TRUE(client.Get("key").found);
  client.Close();

  // Clean shutdown: exit 0, every artifact written, the pidfile removed.
  EXPECT_EQ(proxy.Terminate(), 0);
  EXPECT_FALSE(ReadFileOrEmpty(trace).empty());
  EXPECT_NE(ReadFileOrEmpty(metrics).find("proxy_requests"),
            std::string::npos);
  EXPECT_NE(ReadFileOrEmpty(spans).find("request_span"), std::string::npos);
  EXPECT_FALSE(FileExists(pidfile));
  EXPECT_EQ(server.Terminate(), 0);

  for (const std::string& f : {fleet, trace, metrics, spans}) {
    ::unlink(f.c_str());
  }
  ::rmdir(dir);
}

// A port another socket is listening on: both binaries exit 3 and say so in
// exactly one stderr line.
TEST_F(ServerSignalsTest, TakenPortExitsThreeWithOneStderrLine) {
  const int holder = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(holder, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(holder, reinterpret_cast<sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::listen(holder, 1), 0);
  ASSERT_EQ(::getsockname(holder, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const std::string port = "--port=" + std::to_string(ntohs(addr.sin_port));

  std::vector<std::pair<std::string, std::vector<std::string>>> runs = {
      {g_server_bin, {port}}};
  if (!g_proxy_bin.empty()) {
    runs.push_back({g_proxy_bin, {port, "--node=0:127.0.0.1:1"}});
  }
  for (const auto& [bin, args] : runs) {
    const auto [code, err] = RunToExit(bin, args);
    EXPECT_EQ(code, 3) << bin;
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << bin << ":\n"
                                                          << err;
    EXPECT_NE(err.find("failed to bind 127.0.0.1:"), std::string::npos) << err;
  }
  ::close(holder);
}

}  // namespace
}  // namespace spotcache

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (argc > 1) {
    spotcache::g_server_bin = argv[1];
  }
  if (argc > 2) {
    spotcache::g_proxy_bin = argv[2];
  }
  return RUN_ALL_TESTS();
}
