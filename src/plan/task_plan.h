// Task plan (paper §4.1.2): a DAG of Window -> Filter -> GroupBy ->
// Aggregator operators computing every metric of a task, with shared
// prefixes. Metrics that share a window, filter and group-by reuse the
// same DAG path, so each arriving event advances each distinct window
// once and touches exactly one state-store key per DAG leaf (§4.1.3).
//
// Aggregation states live in a write-back table in front of the state
// store (DESIGN.md "State store path"): a miss loads a group entity's
// leaf states from the DB once, updates stay in memory, and dirty
// states go back to the DB in one WriteBatch at each checkpoint
// (WriteBack) or when the table outgrows its budget (a sweep).
#ifndef RAILGUN_PLAN_TASK_PLAN_H_
#define RAILGUN_PLAN_TASK_PLAN_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "agg/aggregator.h"
#include "common/status.h"
#include "query/query.h"
#include "reservoir/reservoir.h"
#include "storage/db.h"
#include "storage/write_batch.h"
#include "window/window_operator.h"

namespace railgun::plan {

// One computed aggregation for the arriving event's entity.
struct MetricResult {
  uint64_t metric_id;
  std::string metric_name;
  std::string group_key;
  reservoir::FieldValue value;
};

// Write-back state table counters; tables are per task and live on the
// task's thread, so these are plain integers.
struct StateTableStats {
  uint64_t hits = 0;    // Lookups served from the table.
  uint64_t misses = 0;  // Lookups that loaded states from the DB.
  uint64_t sweeps = 0;  // Budget write-backs that cleared the table.
  uint64_t bytes = 0;   // Approximate table footprint.
};

class TaskPlan {
 public:
  // All pointers are borrowed and must outlive the plan. The DB gains an
  // "agg_aux" column family for countDistinct if not already present.
  TaskPlan(reservoir::Reservoir* reservoir, storage::DB* db);

  TaskPlan(const TaskPlan&) = delete;
  TaskPlan& operator=(const TaskPlan&) = delete;

  Status Init();

  // Registers a query's metrics into the DAG (prefix-shared).
  Status AddQuery(const query::QueryDef& query);

  // Registers a query and backfills its aggregation state from the
  // events already in the reservoir (paper §6 future work), stopping
  // before the first event past `through_offset`. The new metrics run in
  // their own DAG island so historical replay cannot disturb the
  // positions of existing window iterators.
  Status AddQueryBackfilled(const query::QueryDef& query,
                            uint64_t through_offset = UINT64_MAX);

  // Advances every window for the arriving event (already appended to
  // the reservoir) and updates all aggregation states. Appends one
  // MetricResult per metric whose filter accepts the event, keyed by the
  // event's group-by values. Pass results == nullptr to skip result
  // reporting (fire-and-forget ingestion; state is still updated).
  Status ProcessEvent(const reservoir::Event& event,
                      std::vector<MetricResult>* results);

  // Adds every dirty aggregation state to *batch, commits the batch to
  // the DB and marks the states clean. Callers put their own records
  // (the checkpoint stamp) in the same batch so they land atomically.
  // Returns the number of state keys written.
  StatusOr<size_t> WriteBack(storage::WriteBatch* batch);

  const StateTableStats& state_stats() const { return stats_; }

  // Serializes the plan's layout for a checkpoint: every island's
  // queries (statement text and first metric id) and the position of
  // each of its window-edge iterators.
  void SaveWindowPositions(std::string* blob) const;
  // Rebuilds that layout on a freshly initialized plan: each recorded
  // island is re-created with its queries, looked up by statement text
  // in `queries`, under their recorded metric ids and without replay,
  // and its iterators are restored. A recorded query missing from
  // `queries` is left out; its metric ids stay reserved. A blob written
  // before the layout was recorded restores by island index: every
  // query goes into island 0, which resumes from the first position
  // blob.
  Status RestoreWindowPositions(const std::string& blob,
                                const std::vector<query::QueryDef>& queries);

  // True if a query with this statement text is planned.
  bool HasQuery(const std::string& statement) const;

  // DAG introspection (tests + DESIGN ablations).
  size_t num_window_nodes() const;
  size_t num_filter_nodes() const;
  size_t num_group_nodes() const;
  size_t num_metrics() const { return num_metrics_; }
  size_t num_edge_iterators() const;

 private:
  struct MetricLeaf {
    uint64_t metric_id;
    std::string name;
    agg::AggKind kind;
    int field_index;  // -1 => count(*) style (value 1).
    std::unique_ptr<agg::Aggregator> aggregator;
  };

  // Table key within one group node: a tumbling epoch (0 otherwise)
  // and the entity's group key.
  struct StateSlot {
    Micros epoch = 0;
    std::string group_key;
    bool operator==(const StateSlot& other) const {
      return epoch == other.epoch && group_key == other.group_key;
    }
  };
  struct StateSlotHash {
    size_t operator()(const StateSlot& slot) const {
      return std::hash<std::string>()(slot.group_key) ^
             std::hash<int64_t>()(slot.epoch) * 0x9e3779b97f4a7c15ULL;
    }
  };
  // Every leaf's state for one (epoch, entity), in GroupNode::metrics
  // order. An empty state is one the DB does not hold; aggregators never
  // store an empty state, so write-back skips them.
  struct StateEntry {
    std::vector<std::string> states;
    bool dirty = false;
  };

  struct GroupNode {
    std::vector<std::string> fields;
    std::vector<int> field_indices;
    std::string key;  // Canonical field list.
    std::vector<MetricLeaf> metrics;
    // This group's share of the write-back table.
    std::unordered_map<StateSlot, StateEntry, StateSlotHash> states;
  };

  struct FilterNode {
    std::shared_ptr<query::Expr> expr;  // Null = pass-through.
    std::string key;                    // Canonical expression text.
    std::vector<GroupNode> groups;
  };

  struct WindowNode {
    window::WindowSpec spec;
    window::WindowOperator* op = nullptr;
    std::vector<FilterNode> filters;
  };

  // A query as installed: its statement text and the metric id of its
  // first aggregation (the rest follow consecutively).
  struct PlannedQuery {
    std::string statement;
    uint64_t first_metric_id;
  };

  // An island is an independently advanced sub-DAG; island 0 holds all
  // normally added queries, and each backfilled query gets its own.
  struct Island {
    explicit Island(reservoir::Reservoir* reservoir) : windows_mgr(reservoir) {}
    window::WindowManager windows_mgr;
    std::vector<WindowNode> windows;
    std::vector<PlannedQuery> queries;
    // Per-event scratch, reused so an event allocates and copies
    // nothing: the drained edges (pointers into pinned chunks, valid
    // until the next Advance) and one window's share of them.
    window::EdgeDeltas edges;
    window::WindowDelta delta;
  };

  Status AddQueryToIsland(const query::QueryDef& query, Island* island);
  Status ProcessEventInIsland(const reservoir::Event& event, Island* island,
                              std::vector<MetricResult>* results);
  Status ApplyDelta(const window::WindowDelta& delta, WindowNode* node);
  // Applies a filter-accepted event list to one group node: each run of
  // consecutive events with the same group key is one Enter or Expire
  // call per leaf on that entity's table entry.
  Status ApplyEventRun(const std::vector<const reservoir::Event*>& events,
                       bool entering, Micros epoch, GroupNode* gnode);

  // Returns gnode's table entry for `slot`, loading every leaf's state
  // from the DB on a miss.
  StatusOr<StateEntry*> FindStates(const StateSlot& slot, GroupNode* gnode);
  // Swaps scratch_state_ into entry->states[leaf_index] and marks the
  // entry dirty if `update` succeeded; otherwise leaves the entry as is.
  Status CommitState(const Status& update, size_t leaf_index,
                     StateEntry* entry);
  // Writes back and clears the table once it outgrows its budget.
  Status MaybeSweep();

  // State-store key for a (metric, epoch, entity).
  static std::string StateKey(uint64_t metric_id, Micros epoch,
                              const std::string& group_key);
  static void GroupKeyOf(const reservoir::Event& event,
                         const GroupNode& group, std::string* key);
  template <typename Fn>
  void ForEachGroup(Fn&& fn);

  reservoir::Reservoir* reservoir_;
  storage::DB* db_;
  uint32_t aux_cf_ = 0;
  std::vector<std::unique_ptr<Island>> islands_;
  uint64_t next_metric_id_ = 1;
  size_t num_metrics_ = 0;

  // The table is swept once its footprint passes this many bytes.
  uint64_t state_budget_bytes_;
  StateTableStats stats_;

  // Delta-application scratch, reused across events/batches.
  std::vector<const reservoir::Event*> scratch_filtered_;
  std::vector<reservoir::FieldValue> scratch_values_;
  std::vector<uint64_t> scratch_offsets_;
  StateSlot scratch_slot_;
  std::string scratch_key_;
  std::string scratch_state_;
};

}  // namespace railgun::plan

#endif  // RAILGUN_PLAN_TASK_PLAN_H_
