// The traced run's per-layer budget (see main.cc for the phases).
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>

#include "load.h"
#include "stack.h"
#include "util.h"
#include "workload.h"

namespace perfbench {

// Counters read off the untraced api::Client run's task processors.
struct LayerContext {
  double cache_hits = 0;
  double cache_misses = 0;
  double sync_loads = 0;
  double live_iterators = 0;
  double l0_files_max = 0;
  double edge_iterators = 0;
  double partition_skew = 0;
  double processed = 0;  // Events processed by all tasks.
};

// Reads the task processors' counters after a drained run.
void CollectTaskStats(Stack* stack, LayerContext* out);

// Runs the untraced and decorated NodeStack phases and the replay, and
// fills every per-layer metric. `untraced` is the api::Client run of the
// same workload and seed.
bool RunLayers(const std::string& dir, uint64_t seed, double seconds,
               const WorkloadSpec& spec, const PhaseResult& untraced,
               LayerContext* context, Metrics* metrics, uint64_t* attempted,
               uint64_t* failed);

// Shows the oracle accepts true values and rejects corrupted ones.
bool OracleSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
