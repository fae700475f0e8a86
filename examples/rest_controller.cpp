// The REST front door: feed the controller the exact JSON message format
// of the paper's ofctl_rest_own.py (§2), plan WayUp server-side, execute.
//
//   $ ./build/examples/rest_controller            # built-in Fig.1 message
//   $ ./build/examples/rest_controller msg.json   # your own message
#include <cstdio>
#include <fstream>
#include <sstream>

#include "tsu/core/experiment.hpp"
#include "tsu/rest/rest.hpp"
#include "tsu/topo/instances.hpp"
#include "tsu/util/strings.hpp"

namespace {

constexpr const char* kDefaultMessage = R"({
  "oldpath": [1, 2, 3, 4, 8, 5, 6, 12],
  "newpath": [1, 7, 5, 3, 2, 9, 10, 11, 12],
  "wp": 3,
  "interval": 10
})";

}  // namespace

int main(int argc, char** argv) {
  using namespace tsu;

  std::string body = kDefaultMessage;
  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    body = buffer.str();
  }

  // Parse the REST message (paths as datapath numbers, wp, interval).
  Result<rest::RestUpdateMessage> message = rest::parse_update_message(body);
  if (!message.ok()) {
    std::fprintf(stderr, "bad REST message: %s\n",
                 message.error().to_string().c_str());
    return 1;
  }
  std::printf("request: %s\n\n", rest::to_json(message.value()).c_str());

  // Resolve datapath numbers against the deployment's topology.
  const topo::Fig1 fig = topo::fig1();
  Result<update::Instance> instance =
      rest::to_instance(message.value(), fig.topology);
  if (!instance.ok()) {
    std::fprintf(stderr, "message does not fit the topology: %s\n",
                 instance.error().to_string().c_str());
    return 1;
  }

  // Plan (WayUp when a waypoint is present, Peacock otherwise) and run,
  // honouring the message's inter-round interval.
  const core::Algorithm algorithm = instance.value().has_waypoint()
                                        ? core::Algorithm::kWayUp
                                        : core::Algorithm::kPeacock;
  core::ExecutorConfig config;
  config.seed = 11;
  config.interval = sim::from_ms(message.value().interval_ms);
  Result<core::ExperimentResult> result =
      core::run_experiment(instance.value(), algorithm, config);
  if (!result.ok()) {
    std::fprintf(stderr, "update failed: %s\n",
                 result.error().to_string().c_str());
    return 1;
  }
  std::printf("%s\n", result.value().summary_line().c_str());
  std::printf("per-round timings:\n");
  const auto& rounds = result.value().execution.update.rounds;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    std::printf("  round %zu: %s (flow_mods=%zu, barriers=%zu)\n", i + 1,
                format_duration_ns(rounds[i].finished - rounds[i].started)
                    .c_str(),
                rounds[i].flow_mods, rounds[i].barriers);
  }
  return 0;
}
