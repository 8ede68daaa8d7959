// Streaming aggregators (paper Fig. 4 / §4.1.3). Each aggregator updates
// a serialized state blob on event entry and expiry, exactly mirroring
// the paper's state layouts: sum/count keep a single value, avg a
// (sum, count) pair, stdDev the Welford triple, max/min a monotonic
// deque, and countDistinct per-value counts in an auxiliary column
// family of the state store.
//
// Updates arrive as runs: one Enter or Expire call applies n >= 1
// values of one entity in arrival order, parsing the state once,
// updating it in registers and serializing it once. A run of n values
// yields the same result as n one-value runs, except that sum and avg
// add a run's total in one step and so may round differently.
#ifndef RAILGUN_AGG_AGGREGATOR_H_
#define RAILGUN_AGG_AGGREGATOR_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "reservoir/event.h"
#include "storage/db.h"

namespace railgun::agg {

enum class AggKind : uint8_t {
  kCount = 0,
  kSum = 1,
  kAvg = 2,
  kStdDev = 3,
  kMax = 4,
  kMin = 5,
  kLast = 6,
  kPrev = 7,
  kCountDistinct = 8,
};

// Parses "count", "sum", ... (case-insensitive).
StatusOr<AggKind> ParseAggKind(const std::string& name);
const char* AggKindName(AggKind kind);

// Access to auxiliary storage for aggregators that need it
// (countDistinct keeps per-value counts in a dedicated column family).
struct AggContext {
  storage::DB* db = nullptr;
  uint32_t aux_cf = 0;
  // Unique prefix for this (metric, entity) pair's auxiliary keys.
  std::string aux_key_prefix;
};

class Aggregator {
 public:
  virtual ~Aggregator() = default;

  // `values_expire` is false for windows that never call Expire
  // (infinite and tumbling): max/min then keep only the extremum.
  static std::unique_ptr<Aggregator> Create(AggKind kind,
                                            bool values_expire = true);

  // Applies a run of `n` >= 1 entering values, oldest first.
  // `offsets[i]` places `values[i]` in its stream (a log offset, or any
  // increasing sequence number); deque-based aggregators key expiry on
  // it. Values are FieldValues rather than numbers because
  // countDistinct aggregates value identity.
  virtual Status Enter(const reservoir::FieldValue* values,
                       const uint64_t* offsets, size_t n, std::string* state,
                       AggContext* ctx) = 0;

  // Applies a run of `n` >= 1 expiring values, oldest first, each with
  // the offset it entered under.
  virtual Status Expire(const reservoir::FieldValue* values,
                        const uint64_t* offsets, size_t n, std::string* state,
                        AggContext* ctx) = 0;

  // Produces the current aggregation result from the state.
  virtual StatusOr<reservoir::FieldValue> Result(
      const std::string& state) const = 0;
};

}  // namespace railgun::agg

#endif  // RAILGUN_AGG_AGGREGATOR_H_
