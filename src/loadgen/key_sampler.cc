#include "src/loadgen/key_sampler.h"

#include <cstdio>

namespace spotcache::loadgen {

KeySampler::KeySampler(const Config& config)
    : config_(config), zipf_(config.num_keys, config.theta) {
  config_.num_keys = zipf_.num_keys();  // at least one key
}

uint64_t KeySampler::SampleRank(Rng& rng) const {
  return zipf_.Sample(rng);
}

uint64_t KeySampler::KeyFor(uint64_t rank, uint64_t hot_shift) const {
  const uint64_t n = config_.num_keys;
  uint64_t id = (rank + hot_shift) % n;
  if (config_.scramble) {
    uint64_t state = id;  // SplitMix64 as a stateless hash of the rank
    id = SplitMix64(state) % n;
  }
  return id;
}

bool WriteKeyFile(const std::string& path, const std::vector<uint32_t>& ranks) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  bool ok = true;
  for (uint32_t r : ranks) {
    unsigned char b[4] = {static_cast<unsigned char>(r & 0xff),
                          static_cast<unsigned char>((r >> 8) & 0xff),
                          static_cast<unsigned char>((r >> 16) & 0xff),
                          static_cast<unsigned char>((r >> 24) & 0xff)};
    if (std::fwrite(b, 1, 4, f) != 4) {
      ok = false;
      break;
    }
  }
  return std::fclose(f) == 0 && ok;
}

std::optional<std::vector<uint32_t>> LoadKeyFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return std::nullopt;
  }
  std::vector<uint32_t> ranks;
  unsigned char b[4];
  size_t n;
  while ((n = std::fread(b, 1, 4, f)) == 4) {
    ranks.push_back(static_cast<uint32_t>(b[0]) |
                    (static_cast<uint32_t>(b[1]) << 8) |
                    (static_cast<uint32_t>(b[2]) << 16) |
                    (static_cast<uint32_t>(b[3]) << 24));
  }
  const bool clean = n == 0 && std::feof(f) != 0;
  std::fclose(f);
  if (!clean) {
    return std::nullopt;  // trailing partial record or read error
  }
  return ranks;
}

std::vector<uint32_t> GenerateRanks(const KeySampler& sampler, size_t count,
                                    Rng& rng) {
  std::vector<uint32_t> ranks;
  ranks.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    ranks.push_back(static_cast<uint32_t>(sampler.SampleRank(rng)));
  }
  return ranks;
}

}  // namespace spotcache::loadgen
