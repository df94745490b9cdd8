#include "src/proxy/membership.h"

#include <stdio.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <sstream>

namespace spotcache::proxy {

namespace {

constexpr const char* kHeader = "# spotcache fleet membership v1";

bool ParsePort(const std::string& token, uint16_t* out) {
  if (token.empty() || token.size() > 5) {
    return false;
  }
  uint32_t value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') {
      return false;
    }
    value = value * 10 + static_cast<uint32_t>(c - '0');
  }
  if (value == 0 || value > 65535) {
    return false;
  }
  *out = static_cast<uint16_t>(value);
  return true;
}

bool ParseU64(const std::string& token, uint64_t* out) {
  if (token.empty() || token.size() > 20) {
    return false;
  }
  uint64_t value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') {
      return false;
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (~0ULL - digit) / 10) {
      return false;  // overflow
    }
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

std::optional<FleetMembership> Fail(std::string* error, const std::string& why) {
  if (error != nullptr) {
    *error = why;
  }
  return std::nullopt;
}

/// Sorts `m`'s nodes by slot; a slot named twice makes the whole document
/// invalid (nullopt with the reason).
std::optional<FleetMembership> SortedBySlot(FleetMembership m,
                                            std::string* error) {
  std::sort(m.nodes.begin(), m.nodes.end(),
            [](const MemberNode& a, const MemberNode& b) {
              return a.slot < b.slot;
            });
  for (size_t i = 1; i < m.nodes.size(); ++i) {
    if (m.nodes[i].slot == m.nodes[i - 1].slot) {
      return Fail(error,
                  "duplicate slot " + std::to_string(m.nodes[i].slot));
    }
  }
  return m;
}

/// Parses "HOST:PORT" (the host may not contain ':').
bool ParseEndpoint(const std::string& spec, std::string* host,
                   uint16_t* port) {
  const size_t colon = spec.find(':');
  if (colon == std::string::npos || colon == 0 ||
      spec.find(':', colon + 1) != std::string::npos) {
    return false;
  }
  *host = spec.substr(0, colon);
  return ParsePort(spec.substr(colon + 1), port);
}

}  // namespace

std::string SerializeMembership(const FleetMembership& m) {
  std::string out(kHeader);
  out += "\ngeneration " + std::to_string(m.generation) + "\n";
  if (m.backup.has_value()) {
    out += "backup " + m.backup->host + " " +
           std::to_string(m.backup->port) + "\n";
  }
  for (const MemberNode& n : m.nodes) {
    out += "node " + std::to_string(n.slot) + " ";
    out += n.dead() ? "dead" : n.host + " " + std::to_string(n.port);
    out += "\n";
  }
  return out;
}

std::optional<FleetMembership> ParseMembership(const std::string& text,
                                               std::string* error) {
  FleetMembership m;
  std::istringstream in(text);
  std::string line;
  bool saw_header = false;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (line.empty()) {
      continue;
    }
    if (line[0] == '#') {
      saw_header = saw_header || line == kHeader;
      continue;
    }
    std::istringstream tokens(line);
    std::string kind;
    tokens >> kind;
    if (kind == "generation") {
      std::string gen;
      if (!(tokens >> gen) || !ParseU64(gen, &m.generation)) {
        return Fail(error, "line " + std::to_string(line_no) +
                               ": bad generation");
      }
    } else if (kind == "backup") {
      MemberNode backup;
      std::string port;
      if (!(tokens >> backup.host >> port) || !ParsePort(port, &backup.port)) {
        return Fail(error,
                    "line " + std::to_string(line_no) + ": bad backup");
      }
      m.backup = backup;
    } else if (kind == "node") {
      MemberNode node;
      std::string slot;
      std::string host;
      if (!(tokens >> slot >> host) || !ParseU64(slot, &node.slot)) {
        return Fail(error, "line " + std::to_string(line_no) + ": bad node");
      }
      if (host != "dead") {
        std::string port;
        if (!(tokens >> port) || !ParsePort(port, &node.port)) {
          return Fail(error,
                      "line " + std::to_string(line_no) + ": bad node port");
        }
        node.host = host;
      }
      m.nodes.push_back(node);
    } else {
      return Fail(error, "line " + std::to_string(line_no) +
                             ": unknown directive '" + kind + "'");
    }
    std::string extra;
    if (tokens >> extra) {
      return Fail(error,
                  "line " + std::to_string(line_no) + ": trailing junk");
    }
  }
  if (!saw_header) {
    return Fail(error, "missing header line '" + std::string(kHeader) + "'");
  }
  return SortedBySlot(std::move(m), error);
}

std::optional<FleetMembership> MembershipFromSpecs(
    const std::vector<std::string>& nodes, const std::string& backup,
    std::string* error) {
  FleetMembership m;
  if (!backup.empty()) {
    MemberNode b;
    if (!ParseEndpoint(backup, &b.host, &b.port)) {
      return Fail(error, "bad backup '" + backup + "' (want HOST:PORT)");
    }
    m.backup = b;
  }
  for (const std::string& spec : nodes) {
    MemberNode node;
    const size_t colon = spec.find(':');
    if (colon == std::string::npos ||
        !ParseU64(spec.substr(0, colon), &node.slot) ||
        !ParseEndpoint(spec.substr(colon + 1), &node.host, &node.port)) {
      return Fail(error,
                  "bad node '" + spec + "' (want SLOT:HOST:PORT)");
    }
    m.nodes.push_back(node);
  }
  return SortedBySlot(std::move(m), error);
}

std::optional<FleetMembership> LoadMembership(const std::string& path,
                                              std::string* error) {
  std::ifstream in(path);
  if (!in) {
    return Fail(error, "cannot open " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseMembership(text.str(), error);
}

bool SaveMembership(const std::string& path, const FleetMembership& m) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      return false;
    }
    out << SerializeMembership(m);
    if (!out.flush()) {
      ::unlink(tmp.c_str());
      return false;
    }
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace spotcache::proxy
