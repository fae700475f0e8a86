// Update-instance workloads: the paper's Figure 1 scenario and the seeded
// random families used by the property tests and the scaling benches.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "tsu/topo/topology.hpp"
#include "tsu/update/instance.hpp"
#include "tsu/update/schedule.hpp"
#include "tsu/util/rng.hpp"
#include "tsu/util/status.hpp"

namespace tsu::topo {

// The demo scenario of the paper's Figure 1: 12 OpenFlow switches, host h1
// at switch 1, host h2 at switch 12, waypoint (firewall/IDS) at switch 3;
// solid-line old route and dashed-line new route. The figure does not label
// every edge, so the concrete routes below are our synthesis under every
// constraint the text states; they are chosen *adversarially* - non-empty
// X and Y conflict sets and backward moves - so the scenario exercises all
// WayUp rounds and Peacock's backward phase (see the README section
// "Update semantics and the planner/checker kernel").
//   old route: <1, 2, 3, 4, 8, 5, 6, 12>
//   new route: <1, 7, 5, 3, 2, 9, 10, 11, 12>
struct Fig1 {
  Topology topology;
  update::Instance instance;
};

Fig1 fig1();

// Reversal family: old path 0,1,...,n-1; the new path visits the interior
// in reverse order. Strong loop freedom needs Θ(n) rounds here while
// relaxed schedulers stay flat - the PODC'15 contrast (bench E4).
update::Instance reversal_instance(std::size_t n);

struct RandomInstanceOptions {
  std::size_t old_interior_min = 3;   // interior nodes of the old path
  std::size_t old_interior_max = 8;
  std::size_t new_len_min = 3;        // interior nodes of the new path
  std::size_t new_len_max = 8;
  // Probability that the next new-path node is drawn from the old path's
  // interior (creating overlap, backward moves and X/Y conflicts) rather
  // than being a fresh node.
  double reuse_probability = 0.6;
  bool with_waypoint = true;
};

// Seeded random two-path instance. Paths share endpoints; when
// `with_waypoint` the waypoint is interior to both paths. The generator
// retries internally until a valid instance emerges (always terminates:
// a fresh-node path is always valid).
update::Instance random_instance(Rng& rng,
                                 const RandomInstanceOptions& options = {});

// Embeds an instance's edges into a topology (union of both paths as links,
// made bidirectional), hosts at the endpoints. Gives the data-plane
// simulator something to route over.
Topology topology_for(const update::Instance& inst);

// Shared-pool workload for admission and scale experiments: `count` update
// instances whose nodes come from a pool of `pool_switches` switches
// (rounded down to whole blocks of 6). Instance i lives in block
// i % (pool / 6): old route <b, b+1, b+2, b+3>, new route
// <b, b+4, b+5, b+3>. With more instances than blocks, instances share
// switches (switch-level overlap) while their rules stay disjoint per flow
// - the workload where rule-level admission beats switch-level and blind
// stays safe. Requires pool_switches >= 6.
std::vector<update::Instance> pool_workload(std::size_t count,
                                            std::size_t pool_switches);

// pool_workload with Peacock schedules already planned, plus the pointer
// lists the executors take. The pointer vectors reference this struct's
// own storage (stable across moves: the vectors' heap buffers move with
// it).
struct PlannedPoolWorkload {
  std::vector<update::Instance> instances;
  std::vector<update::Schedule> schedules;
  std::vector<const update::Instance*> instance_ptrs;
  std::vector<const update::Schedule*> schedule_ptrs;
};

Result<PlannedPoolWorkload> planned_pool_workload(std::size_t count,
                                                  std::size_t pool_switches);

}  // namespace tsu::topo
