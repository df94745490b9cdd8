// MembershipPublisher: the fleet controller's view of the proxy tier.
//
// FleetController mutates fleet membership through exactly three verbs —
// point a slot at an endpoint, point the backup, declare a slot dead. Each
// verb mutates a FleetMembership document (src/proxy/membership.h), bumps
// the generation, rewrites the membership file atomically (tmp + rename),
// and fires the notify callback — in the drill, a SIGHUP to the
// spotcache_proxy process, whose loop then re-reads the file. The proxy
// therefore sees each chaos action as a whole-document generation step,
// never a torn intermediate state.
//
// A mirror ConsistentHashRing (built exactly like the proxy's UpstreamPool
// ring: HashString on the key, weight 1.0 per slot, dead slots kept on the
// ring) answers OwnerOf so the drill can compute which hot keys a slot's
// replacement must be re-fed without asking the proxy.
//
// Thread safety: all entry points take one internal mutex (the controller
// calls from its chaos thread; the drill reads OwnerOf from setup code).

#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>

#include "src/proxy/membership.h"
#include "src/routing/consistent_hash.h"

namespace spotcache::fleet {

class MembershipPublisher {
 public:
  /// Writes membership documents to `path`; `notify` (nullable) runs after
  /// every successful publish (e.g. kill(proxy_pid, SIGHUP)).
  MembershipPublisher(std::string path, std::function<void()> notify);

  /// Adds ring slot `slot` or re-points it at a replacement endpoint.
  /// Re-pointing revives a dead slot; ring ownership (and therefore key
  /// placement) does not move.
  void SetNode(uint64_t slot, const std::string& host, uint16_t port);
  /// The off-ring backup node (holds hot copies; read/write fallback).
  void SetBackup(const std::string& host, uint16_t port);
  /// Declares the slot dead right now (a kill just happened; the proxy
  /// need not discover the corpse the hard way).
  void MarkDead(uint64_t slot);

  /// The slot owning `key` on the mirror ring (dead slots still own their
  /// keys — the proxy degrades them to the backup rather than rehashing).
  std::optional<uint64_t> OwnerOf(std::string_view key) const;

  /// Current document (for tests and the drill report).
  proxy::FleetMembership Snapshot() const;
  uint64_t generation() const;
  /// True when every publish so far hit the file (a failed write keeps the
  /// document in memory and is retried by the next mutation).
  bool healthy() const;

 private:
  /// Bumps the generation, saves, notifies. Caller holds mu_.
  void PublishLocked();
  /// The document's node entry for `slot` (created on demand).
  proxy::MemberNode* NodeLocked(uint64_t slot);

  const std::string path_;
  const std::function<void()> notify_;

  mutable std::mutex mu_;
  proxy::FleetMembership membership_;
  ConsistentHashRing ring_;
  bool save_failed_ = false;
};

}  // namespace spotcache::fleet
