// perfbench_driver: the serving benchmark's load process and layer replay.
//
//   perfbench_driver serve
//       Line-oriented coprocess. Each stdin line is `<command> key=value...`
//       and each reply is one JSON object on one stdout line. All load comes
//       from src/loadgen's RunOpenLoop on this one thread (4 connections).
//         prefill port=P <stream>                    the engine's prefill
//         window  port=P rate=R dur=S probe=0|1 <stream>
//                                                    one open-loop window
//         audit   port=P n=N <stream>                seeded value check
//         quit
//   perfbench_driver layers <stream> spans=FILE [capacity_mb=N shards=N
//                           conn_shards=a,b.. upstreams=P,P proxy=P direct=P]
//       Times the public functions of each serving layer (RequestParser,
//       ServerCore::Handle, ItemStore, ShardExchange, LruCache, ProxyCore,
//       UpstreamPool, NetClient, OpGenerator) on the workload's own op stream
//       and prints one JSON object of per-layer numbers. The replay runs
//       untraced, then with a span around every timed call (written to FILE
//       as JSONL), then untraced again; the traced/untraced wall times are
//       reported so the tracing overhead is visible. This mode
//       runs one helper thread (the ShardExchange owner side); it generates
//       no load.
//
// <stream> is keys=N theta=F get=F vmin=N vmax=N seed=N: the same fields the
// engine's OpStreamConfig takes, so a replay sees exactly the ops a window
// with that seed sends.

#include <poll.h>
#include <sys/eventfd.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/cache/lru_cache.h"
#include "src/loadgen/engine.h"
#include "src/loadgen/op_stream.h"
#include "src/net/client.h"
#include "src/net/item_store.h"
#include "src/net/protocol.h"
#include "src/net/response.h"
#include "src/net/server_core.h"
#include "src/net/sharding.h"
#include "src/proxy/proxy_core.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

using namespace spotcache;
using namespace spotcache::loadgen;

namespace {

constexpr int kConnections = 4;
constexpr const char* kKeyPrefix = "lg:";
// Any fixed "now" works: the workloads never set an expiry.
constexpr int64_t kNow = 1'700'000'000;
// Ops each layer replay runs, and the fewer for replays that do a network
// round trip per call.
constexpr size_t kReplayOps = 30'000;
constexpr size_t kNetReplayOps = 2'000;

using Args = std::map<std::string, std::string>;

Args ParseArgs(const std::vector<std::string>& tokens) {
  Args a;
  for (const std::string& t : tokens) {
    const size_t eq = t.find('=');
    if (eq != std::string::npos) {
      a[t.substr(0, eq)] = t.substr(eq + 1);
    }
  }
  return a;
}

double Num(const Args& a, const char* key, double def) {
  const auto it = a.find(key);
  return it == a.end() ? def : std::strtod(it->second.c_str(), nullptr);
}

uint64_t U64(const Args& a, const char* key, uint64_t def) {
  const auto it = a.find(key);
  return it == a.end() ? def : std::strtoull(it->second.c_str(), nullptr, 10);
}

std::string Str(const Args& a, const char* key) {
  const auto it = a.find(key);
  return it == a.end() ? std::string() : it->second;
}

std::vector<uint64_t> U64List(const Args& a, const char* key) {
  std::vector<uint64_t> out;
  const std::string s = Str(a, key);
  size_t pos = 0;
  while (pos < s.size()) {
    size_t end = s.find(',', pos);
    if (end == std::string::npos) {
      end = s.size();
    }
    if (end > pos) {
      out.push_back(std::strtoull(s.substr(pos, end - pos).c_str(), nullptr, 10));
    }
    pos = end + 1;
  }
  return out;
}

OpStreamConfig StreamFrom(const Args& a) {
  OpStreamConfig s;
  s.keys.num_keys = U64(a, "keys", 10'000);
  s.keys.theta = Num(a, "theta", 0.99);
  s.mix.get_ratio = Num(a, "get", 0.9);
  s.mix.value_bytes = static_cast<uint32_t>(U64(a, "vmin", 100));
  s.mix.value_bytes_max = static_cast<uint32_t>(U64(a, "vmax", 0));
  s.seed = U64(a, "seed", 1);
  s.schedule.base_rate_rps = Num(a, "rate", 1000.0);
  s.schedule.duration_s = Num(a, "dur", 1.0);
  return s;
}

uint32_t MaxValueBytes(const OpStreamConfig& s) {
  return std::max(s.mix.value_bytes, s.mix.value_bytes_max);
}

/// One-line JSON object builder (keys are trusted identifiers).
class JsonOut {
 public:
  JsonOut& Num(std::string_view key, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return Raw(key, buf);
  }
  JsonOut& Int(std::string_view key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonOut& Str(std::string_view key, std::string_view v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') {
        q += '\\';
      }
      q += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    q += '"';
    return Raw(key, q);
  }
  JsonOut& List(std::string_view key, const std::vector<uint64_t>& v) {
    std::string s = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      s += (i > 0 ? "," : "") + std::to_string(v[i]);
    }
    return Raw(key, s + "]");
  }
  JsonOut& Raw(std::string_view key, std::string_view raw) {
    out_ += out_.empty() ? "{\"" : ",\"";
    out_ += key;
    out_ += "\":";
    out_ += raw;
    return *this;
  }
  std::string Done() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

int64_t NowNs() {
  timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::string KeyOf(uint64_t id) { return kKeyPrefix + std::to_string(id); }

// --- serve: the load coprocess ------------------------------------------

EngineConfig EngineFrom(const Args& a) {
  EngineConfig cfg;
  cfg.port = static_cast<uint16_t>(U64(a, "port", 0));
  cfg.connections = kConnections;
  cfg.stream = StreamFrom(a);
  cfg.key_prefix = kKeyPrefix;
  cfg.prefill = false;
  cfg.probe_shards = U64(a, "probe", 0) != 0;
  cfg.drain_timeout_s = 1.0;
  return cfg;
}

std::string CmdPrefill(const Args& a) {
  EngineConfig cfg = EngineFrom(a);
  cfg.prefill = true;
  cfg.probe_shards = false;
  cfg.stream.schedule.duration_s = 0.0;
  const LoadGenResult r = RunOpenLoop(cfg);
  return JsonOut().Int("ok", r.ok ? 1 : 0).Str("error", r.error).Done();
}

std::string CmdWindow(const Args& a) {
  EngineConfig cfg = EngineFrom(a);
  // One completion bucket spanning the whole window: gets / hits / sets.
  cfg.window_us = int64_t{3600} * 1'000'000;
  const int64_t t0 = NowNs();
  const LoadGenResult r = RunOpenLoop(cfg);
  const int64_t t1 = NowNs();
  uint64_t gets = 0;
  uint64_t hits = 0;
  uint64_t sets = 0;
  for (const LoadGenWindow& w : r.windows) {
    gets += w.gets;
    hits += w.get_hits;
    sets += w.sets;
  }
  return JsonOut()
      .Int("ok", r.ok ? 1 : 0)
      .Str("error", r.error)
      .Int("scheduled", r.scheduled)
      .Int("completed", r.completed)
      .Int("errors", r.errors)
      .Int("abandoned", r.abandoned)
      .Int("failed_conns", r.failed_conns)
      .Int("gets", gets)
      .Int("get_hits", hits)
      .Int("sets", sets)
      .Num("offered_rps", r.offered_rps)
      .Num("achieved_rps", r.achieved_rps)
      .Int("count", r.latency.count)
      .Num("p50_us", r.latency.p50_us)
      .Num("p99_us", r.latency.p99_us)
      .Num("max_us", r.latency.max_us)
      .Num("t0", static_cast<double>(t0) * 1e-9)
      .Num("t1", static_cast<double>(t1) * 1e-9)
      .List("shard_conns", r.shard_conn_counts)
      .List("conn_shards", std::vector<uint64_t>(r.conn_shards.begin(),
                                                 r.conn_shards.end()))
      .Done();
}

/// Reads `n` seeded keys back and checks every value is the engine's fill
/// byte with a length inside the workload's value range.
std::string CmdAudit(const Args& a) {
  const OpStreamConfig s = StreamFrom(a);
  const uint64_t n = U64(a, "n", 1000);
  net::NetClient client;
  if (!client.Connect("127.0.0.1", static_cast<uint16_t>(U64(a, "port", 0)),
                      2000)) {
    return JsonOut().Int("ok", 0).Str("error", "connect failed").Done();
  }
  Rng rng(s.seed ^ 0xa0d17ULL);
  uint64_t found = 0;
  uint64_t bad = 0;
  uint64_t transport = 0;
  const uint32_t vmin = s.mix.value_bytes;
  const uint32_t vmax = MaxValueBytes(s);
  for (uint64_t i = 0; i < n; ++i) {
    const net::NetClient::GetResult g =
        client.Get(KeyOf(rng() % s.keys.num_keys));
    if (client.last_error() != net::NetClientError::kNone) {
      ++transport;
      break;
    }
    if (!g.found) {
      continue;
    }
    ++found;
    const bool filled =
        g.value.find_first_not_of('v') == std::string::npos;
    if (!filled || g.value.size() < vmin || g.value.size() > vmax) {
      ++bad;
    }
  }
  return JsonOut()
      .Int("ok", transport == 0 ? 1 : 0)
      .Int("checked", n)
      .Int("found", found)
      .Int("bad", bad)
      .Int("transport_errors", transport)
      .Done();
}

int Serve() {
  std::string line;
  while (std::getline(std::cin, line)) {
    std::vector<std::string> tokens;
    size_t pos = 0;
    while (pos < line.size()) {
      size_t end = line.find(' ', pos);
      if (end == std::string::npos) {
        end = line.size();
      }
      if (end > pos) {
        tokens.push_back(line.substr(pos, end - pos));
      }
      pos = end + 1;
    }
    if (tokens.empty()) {
      continue;
    }
    const std::string& cmd = tokens[0];
    const Args args = ParseArgs(tokens);
    std::string reply;
    if (cmd == "prefill") {
      reply = CmdPrefill(args);
    } else if (cmd == "window") {
      reply = CmdWindow(args);
    } else if (cmd == "audit") {
      reply = CmdAudit(args);
    } else if (cmd == "quit") {
      return 0;
    } else {
      reply = JsonOut().Int("ok", 0).Str("error", "unknown command").Done();
    }
    std::cout << reply << '\n' << std::flush;
  }
  return 0;
}

// --- layers: replay of public layer functions -----------------------------

/// Spans of the traced replay pass, kept in memory and written at the end.
struct Span {
  int64_t t0 = 0;
  int64_t t1 = 0;
  const char* layer = "";
  const char* name = "";
};

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}
  void Add(int64_t t0, int64_t t1, const char* layer, const char* name) {
    if (on_) {
      spans_.push_back({t0, t1, layer, name});
    }
  }
  std::string Jsonl() const {
    std::string out;
    char buf[160];
    for (const Span& s : spans_) {
      std::snprintf(buf, sizeof(buf),
                    "{\"layer\":\"%s\",\"name\":\"%s\",\"t0\":%.9f,"
                    "\"t1\":%.9f}\n",
                    s.layer, s.name, static_cast<double>(s.t0) * 1e-9,
                    static_cast<double>(s.t1) * 1e-9);
      out += buf;
    }
    return out;
  }

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// Per-call durations of one public function.
class CallStats {
 public:
  void Add(int64_t ns) {
    hist_.Record(static_cast<double>(std::max<int64_t>(ns, 1)) * 1e-9);
    total_ns_ += static_cast<double>(ns);
    ++n_;
  }
  uint64_t n() const { return n_; }
  /// Mean ns per call with the clock-read cost taken out.
  double MeanNs(double overhead_ns) const {
    return n_ == 0 ? 0.0
                   : std::max(total_ns_ / static_cast<double>(n_) - overhead_ns,
                              0.0);
  }
  double QuantileUs(double q) const {
    return n_ == 0 ? 0.0 : hist_.Quantile(q) * 1e6;
  }
  double QuantileNs(double q) const {
    return n_ == 0 ? 0.0 : hist_.Quantile(q) * 1e9;
  }

 private:
  LogHistogram hist_{1e-9, 1.02};
  double total_ns_ = 0.0;
  uint64_t n_ = 0;
};

/// Times one call and records it (and its span, in the traced pass).
template <typename Fn>
int64_t Timed(SpanLog& log, const char* layer, const char* name, Fn&& fn) {
  const int64_t t0 = NowNs();
  fn();
  const int64_t t1 = NowNs();
  log.Add(t0, t1, layer, name);
  return t1 - t0;
}

/// Median cost of an empty timed section (two clock reads).
double TimerOverheadNs() {
  std::vector<int64_t> v(20'001);
  for (int64_t& d : v) {
    const int64_t t0 = NowNs();
    d = NowNs() - t0;
  }
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return static_cast<double>(v[v.size() / 2]);
}

void AppendWire(const Op& op, const std::string& fill, std::string* out) {
  if (op.kind == OpKind::kGet) {
    *out += "get ";
    *out += KeyOf(op.key);
    *out += "\r\n";
    return;
  }
  *out += "set ";
  *out += KeyOf(op.key);
  *out += " 0 0 ";
  *out += std::to_string(op.value_len);
  *out += "\r\n";
  out->append(fill.data(), op.value_len);
  *out += "\r\n";
}

struct Replay {
  OpStreamConfig stream;
  std::vector<Op> ops;
  std::vector<std::string> keys;   // per op
  std::vector<std::string> wires;  // per op, the bytes the engine sends
  std::string fill;
  size_t capacity_bytes = 64u << 20;
  uint32_t shards = 1;
  std::vector<uint64_t> conn_shards;
  std::vector<uint64_t> upstreams;
  uint16_t proxy_port = 0;
  uint16_t direct_port = 0;
  double overhead_ns = 0.0;
};

using Results = std::map<std::string, double>;

/// OpGenerator::Next plus the engine's request formatting.
void ReplayGenerator(const Replay& r, SpanLog& log, Results* out) {
  OpGenerator gen(r.stream);
  std::string buf;
  CallStats calls;
  for (size_t i = 0; i < r.ops.size(); ++i) {
    calls.Add(Timed(log, "loadgen", "OpGenerator::Next", [&] {
      const std::optional<Op> op = gen.Next();
      if (op.has_value()) {
        AppendWire(*op, r.fill, &buf);
      }
    }));
    if (buf.size() > (1u << 20)) {
      buf.clear();
    }
  }
  (*out)["loadgen.gen_ns_per_op"] = calls.MeanNs(r.overhead_ns);
}

/// RequestParser over the wire bytes in 16 KB receive-sized chunks.
void ReplayParser(const Replay& r, SpanLog& log, Results* out) {
  std::string wire;
  for (const std::string& w : r.wires) {
    wire += w;
  }
  net::RequestParser parser;
  uint64_t requests = 0;
  int64_t total = 0;
  constexpr size_t kChunk = 16 * 1024;
  for (size_t pos = 0; pos < wire.size(); pos += kChunk) {
    const std::string_view chunk =
        std::string_view(wire).substr(pos, kChunk);
    total += Timed(log, "net", "RequestParser::Next", [&] {
      parser.Feed(chunk);
      while (parser.Next() == net::ParseStatus::kRequest) {
        ++requests;
      }
    });
  }
  (*out)["net.parse_ns_per_req"] =
      requests == 0 ? 0.0
                    : static_cast<double>(total) / static_cast<double>(requests);
}

/// Parses every op's wire bytes and hands each request to `fn`.
template <typename Fn>
void ForEachRequest(const std::vector<std::string>& wires, size_t limit,
                    Fn&& fn) {
  net::RequestParser parser;
  for (size_t i = 0; i < std::min(limit, wires.size()); ++i) {
    parser.Feed(wires[i]);
    if (parser.Next() == net::ParseStatus::kRequest) {
      fn(i, parser.request());
    }
  }
}

/// Stores every key once with the smallest value, like the engine's prefill.
template <typename Fn>
void ForEachPrefillKey(const Replay& r, Fn&& fn) {
  const std::string_view value(r.fill.data(), r.stream.mix.value_bytes);
  for (uint64_t k = 0; k < r.stream.keys.num_keys; ++k) {
    fn(KeyOf(k), value);
  }
}

// The store replays run the op stream once untimed first: the prefill
// leaves the store holding only minimum-size values, and the live server
// has long left that state by the time its windows are measured.

void ReplayServerCore(const Replay& r, SpanLog& log, Results* out) {
  net::ServerCoreConfig cfg;
  cfg.capacity_bytes = r.capacity_bytes;
  net::ServerCore core(cfg);
  net::ResponseAssembler resp;
  ForEachPrefillKey(r, [&](const std::string& key, std::string_view value) {
    core.store().Set(key, 0, 0, value, kNow);
  });
  ForEachRequest(r.wires, r.ops.size(),
                 [&](size_t, const net::TextRequest& req) {
                   core.Handle(req, kNow, &resp);
                   resp.Clear();
                 });
  CallStats gets;
  CallStats sets;
  ForEachRequest(r.wires, r.ops.size(),
                 [&](size_t i, const net::TextRequest& req) {
                   const int64_t ns = Timed(log, "net", "ServerCore::Handle", [&] {
                     core.Handle(req, kNow, &resp);
                   });
                   (r.ops[i].kind == OpKind::kGet ? gets : sets).Add(ns);
                   resp.Clear();
                 });
  (*out)["net.handle_ns.get"] = gets.MeanNs(r.overhead_ns);
  (*out)["net.handle_ns.set"] = sets.MeanNs(r.overhead_ns);
}

void ReplayItemStore(const Replay& r, SpanLog& log, Results* out) {
  net::ItemStore store(r.capacity_bytes);
  ForEachPrefillKey(r, [&](const std::string& key, std::string_view value) {
    store.Set(key, 0, 0, value, kNow);
  });
  const auto apply = [&](size_t i) {
    const Op& op = r.ops[i];
    if (op.kind == OpKind::kGet) {
      (void)store.Get(r.keys[i], kNow);
    } else {
      store.Set(r.keys[i], 0, 0, std::string_view(r.fill.data(), op.value_len),
                kNow);
    }
  };
  for (size_t i = 0; i < r.ops.size(); ++i) {
    apply(i);
  }
  CallStats gets;
  CallStats sets;
  for (size_t i = 0; i < r.ops.size(); ++i) {
    const bool get = r.ops[i].kind == OpKind::kGet;
    (get ? gets : sets)
        .Add(Timed(log, "store", get ? "ItemStore::Get" : "ItemStore::Set",
                   [&] { apply(i); }));
  }
  (*out)["net.store_get_ns"] = gets.MeanNs(r.overhead_ns);
  (*out)["net.store_set_ns"] = sets.MeanNs(r.overhead_ns);
}

/// The flat LRU arena on the same key/size stream, charged like ItemStore
/// (key + value + 64 bytes), so its hit ratio is the store's target.
void ReplayLruCache(const Replay& r, SpanLog& log, Results* out) {
  using Value = std::shared_ptr<const std::string>;
  LruCache<std::string, Value> cache(r.capacity_bytes);
  cache.Reserve(r.stream.keys.num_keys);
  ForEachPrefillKey(r, [&](const std::string& key, std::string_view value) {
    cache.Put(key, std::make_shared<const std::string>(value),
              key.size() + value.size() + 64);
  });
  // Returns whether a get hit.
  const auto apply = [&](size_t i) {
    const Op& op = r.ops[i];
    const std::string& key = r.keys[i];
    if (op.kind == OpKind::kGet) {
      return cache.Get(key).has_value();
    }
    cache.Put(key, std::make_shared<const std::string>(r.fill.data(),
                                                       op.value_len),
              key.size() + op.value_len + 64);
    return false;
  };
  for (size_t i = 0; i < r.ops.size(); ++i) {
    apply(i);
  }
  CallStats gets;
  CallStats puts;
  uint64_t hits = 0;
  for (size_t i = 0; i < r.ops.size(); ++i) {
    const bool get = r.ops[i].kind == OpKind::kGet;
    (get ? gets : puts)
        .Add(Timed(log, "cache", get ? "LruCache::Get" : "LruCache::Put",
                   [&] { hits += apply(i) ? 1 : 0; }));
  }
  (*out)["cache.lru_get_ns"] = gets.MeanNs(r.overhead_ns);
  (*out)["cache.lru_put_ns"] = puts.MeanNs(r.overhead_ns);
  (*out)["cache.hit_ratio"] =
      gets.n() == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(gets.n());
}

/// Submit -> Wake -> AwaitOp between two threads: the requester here, the
/// owner shard on a helper thread that sleeps on its eventfd like a reactor.
void ReplayShardExchange(const Replay& r, SpanLog& log, Results* out) {
  net::ShardExchange exchange(2);
  net::ItemStore owner_store(r.capacity_bytes);
  ForEachPrefillKey(r, [&](const std::string& key, std::string_view value) {
    owner_store.Set(key, 0, 0, value, kNow);
  });
  exchange.SetExecutor(0, [](net::CrossShardOp* op) {
    op->done.store(true, std::memory_order_release);
  });
  exchange.SetExecutor(1, [&owner_store](net::CrossShardOp* op) {
    const net::Item* item = owner_store.Get(op->key, op->now);
    op->found = item != nullptr;
    op->rdata = item != nullptr ? item->data : nullptr;
    op->done.store(true, std::memory_order_release);
  });
  const int efd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  exchange.SetWakeFd(1, efd);
  std::atomic<bool> stop{false};
  std::thread owner([&] {
    pollfd p{efd, POLLIN, 0};
    while (!stop.load(std::memory_order_acquire)) {
      ::poll(&p, 1, 50);
      uint64_t v = 0;
      (void)!::read(efd, &v, sizeof(v));
      exchange.ServiceInbox(1);
    }
  });
  CallStats hops;
  net::CrossShardOp op;
  const size_t n = std::min<size_t>(r.ops.size(), 20'000);
  for (size_t i = 0; i < n; ++i) {
    op.kind = net::CrossShardOp::Kind::kGet;
    op.key = r.keys[i];
    op.now = kNow;
    op.rdata.reset();
    op.done.store(false, std::memory_order_relaxed);
    hops.Add(Timed(log, "shard", "ShardExchange::AwaitOp", [&] {
      exchange.Submit(0, 1, &op);
      exchange.Wake(1);
      exchange.AwaitOp(0, &op);
    }));
  }
  stop.store(true, std::memory_order_release);
  exchange.Wake(1);
  owner.join();
  ::close(efd);
  (*out)["shard.hop_ns.p50"] = hops.QuantileNs(0.5);
  (*out)["shard.hop_ns.p99"] = hops.QuantileNs(0.99);

  // Share of ops whose key is homed on another shard than the connection
  // (round-robin over the connections, as the engine sends them).
  uint64_t cross = 0;
  if (r.shards > 1 && !r.conn_shards.empty()) {
    for (size_t i = 0; i < r.ops.size(); ++i) {
      const uint64_t conn_shard = r.conn_shards[i % r.conn_shards.size()];
      cross += net::ShardOfKey(r.keys[i], r.shards) != conn_shard ? 1 : 0;
    }
  }
  (*out)["shard.cross_frac"] =
      r.ops.empty() ? 0.0
                    : static_cast<double>(cross) /
                          static_cast<double>(r.ops.size());
}

/// ProxyCore::Handle and its UpstreamPool legs against the live upstreams,
/// then the proxy hop as seen by a NetClient (via proxy vs direct).
void ReplayProxy(const Replay& r, SpanLog& log, Results* out) {
  if (r.upstreams.empty()) {
    return;
  }
  proxy::ProxyCore core(proxy::ProxyCoreConfig{});
  for (size_t i = 0; i < r.upstreams.size(); ++i) {
    core.pool().SetNode(i, "127.0.0.1", static_cast<uint16_t>(r.upstreams[i]));
  }
  net::ResponseAssembler resp;
  CallStats handle;
  ForEachRequest(r.wires, kNetReplayOps,
                 [&](size_t, const net::TextRequest& req) {
                   handle.Add(Timed(log, "proxy", "ProxyCore::Handle", [&] {
                     core.Handle(req, kNow, &resp);
                   }));
                   resp.Clear();
                 });
  CallStats up_get;
  CallStats up_set;
  std::vector<std::string_view> one(1);
  std::vector<proxy::KeyFetch> fetched;
  for (size_t i = 0; i < std::min(kNetReplayOps, r.ops.size()); ++i) {
    one[0] = r.keys[i];
    if (r.ops[i].kind == OpKind::kGet) {
      up_get.Add(Timed(log, "proxy", "UpstreamPool::MultiGet", [&] {
        core.pool().MultiGet(one, false, &fetched);
      }));
    } else {
      up_set.Add(Timed(log, "proxy", "UpstreamPool::ForwardLineCommand", [&] {
        (void)core.pool().ForwardLineCommand(r.keys[i], r.wires[i]);
      }));
    }
  }
  (*out)["proxy.handle_us.p50"] = handle.QuantileUs(0.5);
  (*out)["proxy.handle_us.p99"] = handle.QuantileUs(0.99);
  (*out)["proxy.upstream_get_us.p50"] = up_get.QuantileUs(0.5);
  (*out)["proxy.upstream_get_us.p99"] = up_get.QuantileUs(0.99);
  (*out)["proxy.upstream_set_us.p50"] = up_set.QuantileUs(0.5);
  (*out)["proxy.absorbed_failures.replay"] =
      static_cast<double>(core.pool().stats().absorbed_failures);

  // Sync get round trips through the proxy process and straight to a
  // server: their difference is the proxy hop.
  const auto sync_gets = [&](uint16_t port, const char* name,
                             CallStats* calls) {
    net::NetClient client;
    if (port == 0 || !client.Connect("127.0.0.1", port, 2000)) {
      return;
    }
    for (size_t i = 0; i < std::min(kNetReplayOps, r.ops.size()); ++i) {
      calls->Add(Timed(log, "proxy", name, [&] { (void)client.Get(r.keys[i]); }));
    }
  };
  CallStats via_proxy;
  CallStats direct;
  sync_gets(r.proxy_port, "NetClient::Get.via_proxy", &via_proxy);
  sync_gets(r.direct_port, "NetClient::Get.direct", &direct);
  if (via_proxy.n() > 0 && direct.n() > 0) {
    (*out)["proxy.hop_us.p50"] =
        via_proxy.QuantileUs(0.5) - direct.QuantileUs(0.5);
    (*out)["proxy.hop_us.p99"] =
        via_proxy.QuantileUs(0.99) - direct.QuantileUs(0.99);
  }
}

Results RunReplays(const Replay& r, SpanLog& log) {
  Results out;
  const auto pass = [&](const char* name, auto&& fn) {
    Timed(log, "replay", name, [&] { fn(r, log, &out); });
  };
  pass("generator", ReplayGenerator);
  pass("parser", ReplayParser);
  pass("server_core", ReplayServerCore);
  pass("item_store", ReplayItemStore);
  pass("lru_cache", ReplayLruCache);
  pass("shard_exchange", ReplayShardExchange);
  pass("proxy", ReplayProxy);
  return out;
}

int Layers(const Args& a) {
  Replay r;
  r.stream = StreamFrom(a);
  const std::string spans_path = Str(a, "spans");
  if (spans_path.empty()) {
    std::fprintf(stderr, "layers: spans=FILE is required\n");
    return 2;
  }
  // A schedule long enough to hold kReplayOps arrivals; only the op order
  // matters.
  r.stream.schedule.base_rate_rps = 1e6;
  r.stream.schedule.duration_s =
      static_cast<double>(kReplayOps) / 1e6 * 1.5 + 1.0;
  r.ops = GenerateOps(r.stream, kReplayOps);
  r.fill.assign(std::max<uint32_t>(MaxValueBytes(r.stream), 1), 'v');
  for (const Op& op : r.ops) {
    r.keys.push_back(KeyOf(op.key));
    std::string w;
    AppendWire(op, r.fill, &w);
    r.wires.push_back(std::move(w));
  }
  r.capacity_bytes = static_cast<size_t>(U64(a, "capacity_mb", 64)) << 20;
  r.shards = static_cast<uint32_t>(U64(a, "shards", 1));
  r.conn_shards = U64List(a, "conn_shards");
  r.upstreams = U64List(a, "upstreams");
  r.proxy_port = static_cast<uint16_t>(U64(a, "proxy", 0));
  r.direct_port = static_cast<uint16_t>(U64(a, "direct", 0));
  r.overhead_ns = TimerOverheadNs();

  SpanLog quiet(false);
  int64_t t0 = NowNs();
  Results out = RunReplays(r, quiet);
  int64_t untraced_ns = NowNs() - t0;

  SpanLog traced(true);
  t0 = NowNs();
  RunReplays(r, traced);
  const int64_t traced_ns = NowNs() - t0;
  // A second untraced pass after the traced one, so warm-up effects do not
  // land on either side of the overhead comparison.
  t0 = NowNs();
  RunReplays(r, quiet);
  untraced_ns = (untraced_ns + NowNs() - t0) / 2;
  std::FILE* f = std::fopen(spans_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
    return 1;
  }
  const std::string body = traced.Jsonl();
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);

  JsonOut j;
  j.Num("replay.traced_ms", static_cast<double>(traced_ns) * 1e-6);
  j.Num("replay.untraced_ms", static_cast<double>(untraced_ns) * 1e-6);
  j.Num("replay.timer_overhead_ns", r.overhead_ns);
  j.Int("replay.ops", r.ops.size());
  for (const auto& [name, value] : out) {
    j.Num(name, value);
  }
  std::cout << j.Done() << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_driver serve | layers key=value...\n");
    return 2;
  }
  const std::string mode = argv[1];
  if (mode == "serve") {
    return Serve();
  }
  if (mode == "layers") {
    return Layers(ParseArgs(std::vector<std::string>(argv + 2, argv + argc)));
  }
  std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
  return 2;
}
