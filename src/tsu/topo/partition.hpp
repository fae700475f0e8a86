// Switch -> controller-shard partitioners for the sharded control plane
// (controller/shard.hpp). Three schemes:
//
//   kHash       stateless splitmix64 over the NodeId: spreads any topology
//               evenly and makes most multi-switch updates span shards -
//               the stress case for the coordinator's cross-shard round
//               protocol.
//   kBlock      contiguous, topology-aware ranges over [0, node_count):
//               consecutive NodeIds - which the generators lay out along
//               paths and pool blocks - stay on one shard, so most updates
//               are shard-local and coordination only pays at range
//               boundaries.
//   kGreedyCut  workload-aware: make_greedy_cut_partition() greedily
//               assigns switches to balanced shards so as to minimize the
//               cut of the workload's switch co-occurrence graph (switches
//               touched by the same update want the same shard). Fewer cut
//               edges means fewer cross-shard rounds for the coordinator
//               to barrier on and wider safe horizons for the parallel
//               stepper (sim/sharded.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tsu/util/ids.hpp"

namespace tsu::topo {

enum class PartitionScheme : std::uint8_t {
  kHash = 0,
  kBlock = 1,
  kGreedyCut = 2,
};

const char* to_string(PartitionScheme scheme) noexcept;

// One weighted edge of the workload's switch co-occurrence graph: `weight`
// updates touch both `a` and `b`.
struct SwitchAffinity {
  NodeId a = 0;
  NodeId b = 0;
  std::size_t weight = 1;
};

// Maps every switch to the controller shard that owns it. For kHash/kBlock
// the mapping is a pure function of (shards, scheme, node_count); kGreedyCut
// additionally carries an explicit per-switch table computed from the
// workload (make_greedy_cut_partition). Every layer that needs the mapping
// - the executor harness, the coordinator's request splitter, reply routing
// - shares the same partition object, so they always agree.
class SwitchPartition {
 public:
  // Everything on shard 0 (the unsharded controller).
  SwitchPartition() = default;

  // `node_count` bounds the id space for kBlock's contiguous ranges (ids
  // at or beyond it fall into the last range); kHash ignores it.
  SwitchPartition(std::size_t shards, PartitionScheme scheme,
                  std::size_t node_count);

  std::size_t shards() const noexcept { return shards_; }
  PartitionScheme scheme() const noexcept { return scheme_; }

  std::size_t shard_of(NodeId node) const noexcept;

  // Sum of affinity weights whose endpoints land on different shards under
  // this partition - the coordination the workload will pay.
  std::size_t cut_weight(const std::vector<SwitchAffinity>& edges) const;

 private:
  friend SwitchPartition make_greedy_cut_partition(
      std::size_t shards, std::size_t node_count,
      const std::vector<SwitchAffinity>& edges);

  std::size_t shards_ = 1;
  PartitionScheme scheme_ = PartitionScheme::kHash;
  std::size_t node_count_ = 0;
  // kGreedyCut only: explicit assignment by NodeId (ids beyond the table
  // fall back to kBlock's ranges, which kGreedyCut uses for untouched ids).
  std::vector<std::uint32_t> table_;
};

// Builds a kGreedyCut partition: switches in descending affinity degree
// are placed on the shard they have the most affinity weight with, subject
// to a balanced capacity of ceil(node_count / shards) switches per shard;
// ties and isolated switches fall back to kBlock's contiguous ranges.
// Deterministic for a given edge list.
SwitchPartition make_greedy_cut_partition(
    std::size_t shards, std::size_t node_count,
    const std::vector<SwitchAffinity>& edges);

}  // namespace tsu::topo
