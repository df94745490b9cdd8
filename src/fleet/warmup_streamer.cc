#include "src/fleet/warmup_streamer.h"

#include <time.h>

#include <chrono>

#include "src/cloud/token_bucket.h"

namespace spotcache::fleet {

namespace {

void SleepWall(Duration d) {
  if (d <= Duration::Micros(0)) {
    return;
  }
  timespec ts{};
  ts.tv_sec = d.micros() / 1'000'000;
  ts.tv_nsec = (d.micros() % 1'000'000) * 1000;
  ::nanosleep(&ts, nullptr);
}

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// True for failures a reconnect can heal (a corrupt reply closed the
/// socket, so a fresh one starts back in sync).
bool Reconnectable(net::NetClientError e) {
  switch (e) {
    case net::NetClientError::kReset:
    case net::NetClientError::kPipe:
    case net::NetClientError::kClosed:
    case net::NetClientError::kRefused:
    case net::NetClientError::kProtocol:
      return true;
    default:
      return false;
  }
}

}  // namespace

uint64_t WarmupWireBytes(std::string_view key, std::string_view value) {
  // get <key>\r\n  +  VALUE <key> <flags> <bytes>\r\n<value>\r\nEND\r\n
  const uint64_t source_leg = 4 + key.size() + 2 +        // get request
                              6 + key.size() + 8 + 2 +    // VALUE header (approx flags/bytes digits)
                              value.size() + 2 + 5;       // payload + END
  // set <key> 0 0 <bytes>\r\n<value>\r\n  +  STORED\r\n
  const uint64_t dest_leg = 4 + key.size() + 8 + 2 + value.size() + 2 + 8;
  return source_leg + dest_leg;
}

WarmupResult WarmupStreamer::Stream(const std::string& source_host,
                                    uint16_t source_port,
                                    const std::string& dest_host,
                                    uint16_t dest_port,
                                    const std::vector<std::string>& keys) {
  WarmupResult result;
  result.token_rate = config_.bytes_per_sec;
  result.token_burst = config_.burst_bytes;
  result.token_initial = config_.initial_tokens;

  net::NetClient source;
  net::NetClient dest;
  if (!source.Connect(source_host, source_port, config_.op_timeout_ms)) {
    result.error = "warmup source connect failed: " +
                   std::string(ToString(source.last_error()));
    return result;
  }
  if (!dest.Connect(dest_host, dest_port, config_.op_timeout_ms)) {
    result.error = "warmup dest connect failed: " +
                   std::string(ToString(dest.last_error()));
    return result;
  }

  // The bucket runs on a wall-anchored clock: SimTime zero = stream start.
  TokenBucket bucket(config_.bytes_per_sec * 3600.0, config_.burst_bytes,
                     config_.initial_tokens);
  const int64_t start_us = NowUs();
  auto now = [&] { return SimTime::FromMicros(NowUs() - start_us); };

  for (const std::string& key : keys) {
    // --- Source leg: read the item (reconnect-and-retry once per failure
    // family; a key that is genuinely gone counts as missing). ---
    net::NetClient::GetResult item;
    for (int tries = 0;; ++tries) {
      item = source.Get(key);
      if (item.found || source.last_error() == net::NetClientError::kNone) {
        break;
      }
      if (tries >= 1 || !Reconnectable(source.last_error()) ||
          !source.Reconnect(config_.reconnect)) {
        result.error = "warmup source read failed: " +
                       std::string(ToString(source.last_error()));
        result.duration_s = static_cast<double>(NowUs() - start_us) / 1e6;
        return result;
      }
      ++result.reconnects;
    }
    if (!item.found) {
      ++result.items_missing;
      continue;
    }

    // --- Pace: wait for the bucket to cover this item's wire bytes. ---
    const uint64_t wire = WarmupWireBytes(key, item.value);
    bucket.AdvanceTo(now());
    while (!bucket.TryConsume(static_cast<double>(wire))) {
      SleepWall(config_.pace_quantum);
      bucket.AdvanceTo(now());
    }

    // --- Destination leg: write it (same reconnect discipline). ---
    for (int tries = 0;; ++tries) {
      if (dest.Set(key, item.value, item.flags)) {
        break;
      }
      if (tries >= 1 || !Reconnectable(dest.last_error()) ||
          !dest.Reconnect(config_.reconnect)) {
        result.error = "warmup dest write failed: " +
                       std::string(ToString(dest.last_error()));
        result.duration_s = static_cast<double>(NowUs() - start_us) / 1e6;
        return result;
      }
      ++result.reconnects;
    }
    ++result.items_copied;
    result.bytes_copied += wire;
  }

  result.duration_s = static_cast<double>(NowUs() - start_us) / 1e6;
  result.ok = true;
  return result;
}

}  // namespace spotcache::fleet
