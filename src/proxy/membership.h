// Fleet membership documents: the file-based control plane between the
// fleet controller and the proxy tier.
//
// The controller (or any operator) writes a small text file describing the
// backing fleet — one consistent-hash slot per primary, plus the off-ring
// backup — and signals the proxy (SIGHUP) to re-read it. The format is
// line-oriented and diff-friendly:
//
//   # spotcache fleet membership v1
//   generation 7
//   backup 127.0.0.1 18000
//   node 0 127.0.0.1 18001
//   node 1 dead
//   node 2 127.0.0.1 18003
//
// `generation` is a monotonically increasing edition number (the proxy
// exposes the last applied generation in its stats, which is how drills
// verify a reload landed). `node <slot> dead` keeps the slot on the ring but
// marks its endpoint unusable — the controller publishes this between a kill
// and the replacement becoming ready, so the proxy trips the slot's breaker
// immediately instead of discovering the corpse one timeout at a time.
//
// Save() writes atomically (temp file + rename) so a reader racing a writer
// always sees a complete document.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace spotcache::proxy {

struct MemberNode {
  uint64_t slot = 0;
  /// Empty host means the slot is present but dead (no reachable endpoint).
  std::string host;
  uint16_t port = 0;

  bool dead() const { return host.empty(); }
};

struct FleetMembership {
  uint64_t generation = 0;
  std::optional<MemberNode> backup;  // slot field unused for the backup
  std::vector<MemberNode> nodes;    // sorted by slot after Parse()
};

/// Renders the membership document (trailing newline included).
std::string SerializeMembership(const FleetMembership& m);

/// Parses a membership document. Returns nullopt (with a human-readable
/// reason in *error, if given) on any malformed line — a partially applied
/// fleet view is worse than keeping the previous one.
std::optional<FleetMembership> ParseMembership(const std::string& text,
                                               std::string* error = nullptr);

/// Builds a membership (generation 0) from command-line endpoint specs:
/// "SLOT:HOST:PORT" per node and "HOST:PORT" for the backup (empty = no
/// backup), with the document parser's own checks — a decimal slot, a port
/// in 1..65535, nothing trailing, no slot named twice. nullopt (with the
/// reason in *error, if given) on any malformed spec.
std::optional<FleetMembership> MembershipFromSpecs(
    const std::vector<std::string>& nodes, const std::string& backup,
    std::string* error = nullptr);

/// Reads + parses `path`. nullopt when unreadable or malformed.
std::optional<FleetMembership> LoadMembership(const std::string& path,
                                              std::string* error = nullptr);

/// Atomically writes `m` to `path` (temp file in the same directory +
/// rename). Returns false on any I/O failure.
bool SaveMembership(const std::string& path, const FleetMembership& m);

}  // namespace spotcache::proxy
