#include "src/routing/consistent_hash.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>

#include "src/routing/hash.h"
#include "src/util/rng.h"

namespace spotcache {
namespace {

TEST(ConsistentHash, EmptyRingHasNoOwner) {
  ConsistentHashRing ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.NodeFor(123).has_value());
}

TEST(ConsistentHash, SingleNodeOwnsEverything) {
  ConsistentHashRing ring;
  ring.SetNode(7, 1.0);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(ring.NodeFor(rng()), 7u);
  }
}

TEST(ConsistentHash, DeterministicLookups) {
  ConsistentHashRing a;
  ConsistentHashRing b;
  for (uint64_t n = 1; n <= 10; ++n) {
    a.SetNode(n, 1.0);
    b.SetNode(n, 1.0);
  }
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t h = rng();
    EXPECT_EQ(*a.NodeFor(h), *b.NodeFor(h));
  }
}

TEST(ConsistentHash, OwnershipRoughlyProportionalToWeight) {
  ConsistentHashRing ring;
  ring.SetNode(1, 1.0);
  ring.SetNode(2, 1.0);
  ring.SetNode(3, 2.0);  // double weight
  const auto own = ring.OwnershipFractions();
  double total = 0.0;
  for (const auto& [node, frac] : own) {
    total += frac;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_NEAR(own.at(3), 0.5, 0.12);
  EXPECT_NEAR(own.at(1), 0.25, 0.10);
}

TEST(ConsistentHash, RemovalOnlyMovesVictimsKeys) {
  ConsistentHashRing ring;
  for (uint64_t n = 1; n <= 8; ++n) {
    ring.SetNode(n, 1.0);
  }
  Rng rng(3);
  std::vector<uint64_t> hashes;
  std::vector<uint64_t> before;
  for (int i = 0; i < 5000; ++i) {
    hashes.push_back(rng());
    before.push_back(*ring.NodeFor(hashes.back()));
  }
  ring.RemoveNode(4);
  int moved_from_others = 0;
  for (size_t i = 0; i < hashes.size(); ++i) {
    const uint64_t now = *ring.NodeFor(hashes[i]);
    if (before[i] == 4) {
      EXPECT_NE(now, 4u);
    } else if (now != before[i]) {
      ++moved_from_others;
    }
  }
  // Consistent hashing: keys not on the removed node stay put.
  EXPECT_EQ(moved_from_others, 0);
}

TEST(ConsistentHash, AddingNodeStealsOnlyItsShare) {
  ConsistentHashRing ring;
  for (uint64_t n = 1; n <= 8; ++n) {
    ring.SetNode(n, 1.0);
  }
  Rng rng(4);
  std::vector<uint64_t> hashes;
  std::vector<uint64_t> before;
  for (int i = 0; i < 5000; ++i) {
    hashes.push_back(rng());
    before.push_back(*ring.NodeFor(hashes.back()));
  }
  ring.SetNode(9, 1.0);
  int moved = 0;
  for (size_t i = 0; i < hashes.size(); ++i) {
    const uint64_t now = *ring.NodeFor(hashes[i]);
    if (now != before[i]) {
      EXPECT_EQ(now, 9u);  // keys only move to the new node
      ++moved;
    }
  }
  // Expected share ~1/9 of the keys.
  EXPECT_NEAR(static_cast<double>(moved) / hashes.size(), 1.0 / 9.0, 0.05);
}

TEST(ConsistentHash, WeightUpdateChangesShare) {
  ConsistentHashRing ring;
  ring.SetNode(1, 1.0);
  ring.SetNode(2, 1.0);
  ring.SetNode(2, 3.0);
  EXPECT_DOUBLE_EQ(ring.WeightOf(2), 3.0);
  const auto own = ring.OwnershipFractions();
  EXPECT_GT(own.at(2), own.at(1));
}

TEST(ConsistentHash, ZeroWeightRemoves) {
  ConsistentHashRing ring;
  ring.SetNode(1, 1.0);
  ring.SetNode(1, 0.0);
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.Contains(1));
  EXPECT_EQ(ring.WeightOf(1), 0.0);
}

TEST(ConsistentHash, TinyWeightStillGetsAVnode) {
  ConsistentHashRing ring;
  ring.SetNode(1, 0.001);
  EXPECT_FALSE(ring.empty());
  EXPECT_TRUE(ring.NodeFor(42).has_value());
}

TEST(ConsistentHash, NodeCount) {
  ConsistentHashRing ring;
  ring.SetNode(1, 1.0);
  ring.SetNode(2, 0.5);
  EXPECT_EQ(ring.node_count(), 2u);
  ring.RemoveNode(1);
  EXPECT_EQ(ring.node_count(), 1u);
}

/// The owner std::lower_bound finds over the ring's vnodes, wrapping past
/// the last one: the lookup NodeFor's slice table must reproduce.
uint64_t LowerBoundOwner(const ConsistentHashRing& ring, uint64_t h) {
  const auto& v = ring.vnodes();
  auto it = std::lower_bound(
      v.begin(), v.end(), h,
      [](const std::pair<uint64_t, uint64_t>& vnode, uint64_t pos) {
        return vnode.first < pos;
      });
  return (it == v.end() ? v.begin() : it)->second;
}

TEST(ConsistentHash, SliceLookupMatchesLowerBound) {
  // 1e5 random hashes, plus each vnode's position and its neighbours and
  // both ends of hash space, across a run of add, remove and reweight edits.
  ConsistentHashRing ring;
  Rng rng(0x51ce);
  size_t checked = 0;
  const auto check = [&](uint64_t h) {
    ASSERT_EQ(*ring.NodeFor(h), LowerBoundOwner(ring, h)) << h;
    ++checked;
  };
  for (int edit = 0; edit < 50; ++edit) {
    const uint64_t node = rng.NextBelow(12);
    const double roll = rng.NextDouble();
    if (roll < 0.2 && ring.node_count() > 1) {
      ring.RemoveNode(node);
    } else {
      // Weights from 1/64 (one vnode) to 4 (256 vnodes).
      ring.SetNode(node, roll < 0.3 ? 1.0 / 64 : 4.0 * rng.NextDouble());
    }
    if (ring.empty()) {
      ring.SetNode(node, 1.0);
    }
    for (int i = 0; i < 2000; ++i) {
      check(rng());
    }
    for (const auto& [pos, owner] : ring.vnodes()) {
      check(pos);
      check(pos - 1);
      check(pos + 1);
    }
    check(0);
    check(UINT64_MAX);
  }
  EXPECT_GE(checked, 100'000u);
}

TEST(HashFunctions, Deterministic) {
  EXPECT_EQ(HashU64(42), HashU64(42));
  EXPECT_NE(HashU64(42), HashU64(43));
  EXPECT_EQ(HashString("abc"), HashString("abc"));
  EXPECT_NE(HashString("abc"), HashString("abd"));
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

TEST(HashFunctions, AvalancheOnLowBits) {
  // Sequential inputs should produce well-spread outputs.
  int high_bit_set = 0;
  for (uint64_t i = 0; i < 1000; ++i) {
    high_bit_set += (HashU64(i) >> 63) & 1;
  }
  EXPECT_GT(high_bit_set, 400);
  EXPECT_LT(high_bit_set, 600);
}

}  // namespace
}  // namespace spotcache
