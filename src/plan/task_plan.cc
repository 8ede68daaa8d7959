#include "plan/task_plan.h"

#include "common/coding.h"

#include <algorithm>

namespace railgun::plan {

using reservoir::Event;
using reservoir::FieldValue;
using window::WindowDelta;
using window::WindowKind;

namespace {

// The state table may hold this many write buffers' worth of states
// before a sweep writes it back and clears it: enough for a working set
// of tens of thousands of entities per task to stay resident.
constexpr uint64_t kStateBudgetWriteBuffers = 4;

// Approximate table footprint of one entry (hash node, slot and vector
// headers) and of one leaf state's string header, for the budget.
constexpr uint64_t kEntryOverheadBytes = 96;
constexpr uint64_t kStateOverheadBytes = sizeof(std::string);

// First byte of a window-layout checkpoint blob. Blobs written before
// the layout was recorded hold one length-prefixed position blob per
// island, so they start with island 0's length, which is at least 3
// (its three counts): a first byte of 0 cannot be one of them.
constexpr char kLayoutTag = 0;

}  // namespace

TaskPlan::TaskPlan(reservoir::Reservoir* reservoir, storage::DB* db)
    : reservoir_(reservoir),
      db_(db),
      state_budget_bytes_(kStateBudgetWriteBuffers *
                          db->options().write_buffer_size) {}

Status TaskPlan::Init() {
  auto cf_or = db_->FindColumnFamily("agg_aux");
  if (cf_or.ok()) {
    aux_cf_ = cf_or.value();
  } else {
    RAILGUN_ASSIGN_OR_RETURN(aux_cf_, db_->CreateColumnFamily("agg_aux"));
  }
  islands_.push_back(std::make_unique<Island>(reservoir_));
  return Status::OK();
}

Status TaskPlan::AddQuery(const query::QueryDef& query) {
  return AddQueryToIsland(query, islands_[0].get());
}

Status TaskPlan::AddQueryToIsland(const query::QueryDef& query,
                                  Island* island) {
  const reservoir::Schema* schema = reservoir_->schema();

  // Window node (prefix level 1).
  WindowNode* wnode = nullptr;
  for (auto& w : island->windows) {
    if (w.spec == query.window) {
      wnode = &w;
      break;
    }
  }
  if (wnode == nullptr) {
    island->windows.emplace_back();
    wnode = &island->windows.back();
    wnode->spec = query.window;
    wnode->op = island->windows_mgr.GetOrCreate(query.window);
  }

  // Filter node (prefix level 2).
  const std::string filter_key =
      query.filter == nullptr ? "" : query.filter->ToString();
  FilterNode* fnode = nullptr;
  for (auto& f : wnode->filters) {
    if (f.key == filter_key) {
      fnode = &f;
      break;
    }
  }
  if (fnode == nullptr) {
    wnode->filters.emplace_back();
    fnode = &wnode->filters.back();
    fnode->key = filter_key;
    fnode->expr = query.filter;
    if (fnode->expr != nullptr) {
      RAILGUN_RETURN_IF_ERROR(fnode->expr->Bind(*schema));
    }
  }

  // Group node (prefix level 3).
  std::string group_key_id;
  for (const auto& f : query.group_by) group_key_id += f + ",";
  GroupNode* gnode = nullptr;
  for (auto& g : fnode->groups) {
    if (g.key == group_key_id) {
      gnode = &g;
      break;
    }
  }
  if (gnode == nullptr) {
    fnode->groups.emplace_back();
    gnode = &fnode->groups.back();
    gnode->key = group_key_id;
    gnode->fields = query.group_by;
    for (const auto& field : query.group_by) {
      const int idx = schema->FieldIndex(field);
      if (idx < 0) {
        return Status::InvalidArgument("unknown group-by field: " + field);
      }
      gnode->field_indices.push_back(idx);
    }
  }

  // Aggregator leaves.
  const uint64_t first_metric_id = next_metric_id_;
  for (const auto& agg_spec : query.aggs) {
    MetricLeaf leaf;
    leaf.metric_id = next_metric_id_++;
    leaf.kind = agg_spec.kind;
    leaf.field_index = -1;
    if (!agg_spec.field.empty()) {
      leaf.field_index = schema->FieldIndex(agg_spec.field);
      if (leaf.field_index < 0) {
        return Status::InvalidArgument("unknown aggregation field: " +
                                       agg_spec.field);
      }
    }
    leaf.name = agg_spec.name + " over " + query.window.ToString();
    if (!query.group_by.empty()) {
      leaf.name += " by " + group_key_id.substr(0, group_key_id.size() - 1);
    }
    leaf.aggregator =
        agg::Aggregator::Create(agg_spec.kind, query.window.ValuesExpire());
    gnode->metrics.push_back(std::move(leaf));
    ++num_metrics_;
  }
  island->queries.push_back({query.raw, first_metric_id});
  return Status::OK();
}

Status TaskPlan::AddQueryBackfilled(const query::QueryDef& query,
                                    uint64_t through_offset) {
  auto island = std::make_unique<Island>(reservoir_);
  RAILGUN_RETURN_IF_ERROR(AddQueryToIsland(query, island.get()));
  // Installed before the replay so budget sweeps cover its states.
  islands_.push_back(std::move(island));
  Island* replaying = islands_.back().get();

  // Replay history through the new island only. The island's iterators
  // start at the oldest event, so the window mechanics replay exactly.
  Status s;
  auto replay_iter = reservoir_->NewIterator();
  while (s.ok() && !replay_iter->AtEnd() &&
         replay_iter->event().offset <= through_offset) {
    // replay_iter pins the event's chunk until it advances below.
    s = ProcessEventInIsland(replay_iter->event(), replaying,
                             /*results=*/nullptr);
    if (s.ok()) s = MaybeSweep();
    replay_iter->Advance();
  }
  if (!s.ok()) {
    // The query stays uninstalled: drop the island and its table share.
    for (auto& wnode : replaying->windows) {
      for (auto& fnode : wnode.filters) {
        for (auto& gnode : fnode.groups) {
          for (const auto& [slot, entry] : gnode.states) {
            stats_.bytes -= kEntryOverheadBytes + slot.group_key.size();
            for (const auto& state : entry.states) {
              stats_.bytes -= kStateOverheadBytes + state.size();
            }
          }
        }
      }
    }
    islands_.pop_back();
  }
  return s;
}

Status TaskPlan::ProcessEvent(const Event& event,
                              std::vector<MetricResult>* results) {
  for (auto& island : islands_) {
    RAILGUN_RETURN_IF_ERROR(
        ProcessEventInIsland(event, island.get(), results));
  }
  return MaybeSweep();
}

Status TaskPlan::ProcessEventInIsland(const Event& event, Island* island,
                                      std::vector<MetricResult>* results) {
  island->windows_mgr.Advance(event.timestamp, &island->edges);

  WindowDelta& delta = island->delta;
  for (auto& wnode : island->windows) {
    wnode.op->Collect(event.timestamp, island->edges, &delta);
    RAILGUN_RETURN_IF_ERROR(ApplyDelta(delta, &wnode));

    // Report the (updated) aggregations for the arriving event's entity.
    if (results == nullptr) continue;
    const Micros epoch =
        wnode.spec.kind == WindowKind::kTumbling ? delta.epoch : 0;
    scratch_slot_.epoch = epoch;
    for (auto& fnode : wnode.filters) {
      if (fnode.expr != nullptr && !fnode.expr->EvalBool(event)) continue;
      for (auto& gnode : fnode.groups) {
        GroupKeyOf(event, gnode, &scratch_slot_.group_key);
        RAILGUN_ASSIGN_OR_RETURN(StateEntry * entry,
                                 FindStates(scratch_slot_, &gnode));
        for (size_t k = 0; k < gnode.metrics.size(); ++k) {
          const MetricLeaf& leaf = gnode.metrics[k];
          RAILGUN_ASSIGN_OR_RETURN(FieldValue value,
                                   leaf.aggregator->Result(entry->states[k]));
          results->push_back(MetricResult{leaf.metric_id, leaf.name,
                                          scratch_slot_.group_key, value});
        }
      }
    }
  }
  return Status::OK();
}

Status TaskPlan::ApplyDelta(const WindowDelta& delta, WindowNode* node) {
  const Micros epoch =
      node->spec.kind == WindowKind::kTumbling ? delta.epoch : 0;
  for (auto& fnode : node->filters) {
    // Evaluate the filter once per event, then hand each group node the
    // accepted list so same-group stretches collapse into one aggregator
    // call per leaf.
    scratch_filtered_.clear();
    for (const Event* e : delta.entered) {
      if (fnode.expr != nullptr && !fnode.expr->EvalBool(*e)) continue;
      scratch_filtered_.push_back(e);
    }
    for (auto& gnode : fnode.groups) {
      RAILGUN_RETURN_IF_ERROR(
          ApplyEventRun(scratch_filtered_, /*entering=*/true, epoch, &gnode));
    }

    scratch_filtered_.clear();
    for (const Event* e : delta.expired) {
      if (fnode.expr != nullptr && !fnode.expr->EvalBool(*e)) continue;
      scratch_filtered_.push_back(e);
    }
    for (auto& gnode : fnode.groups) {
      RAILGUN_RETURN_IF_ERROR(ApplyEventRun(scratch_filtered_,
                                            /*entering=*/false, epoch,
                                            &gnode));
    }
  }
  return Status::OK();
}

Status TaskPlan::ApplyEventRun(const std::vector<const Event*>& events,
                               bool entering, Micros epoch,
                               GroupNode* gnode) {
  static const FieldValue kOne(int64_t{1});
  agg::AggContext ctx{db_, aux_cf_, {}};
  scratch_slot_.epoch = epoch;
  size_t i = 0;
  while (i < events.size()) {
    GroupKeyOf(*events[i], *gnode, &scratch_slot_.group_key);
    size_t j = i + 1;
    while (j < events.size()) {
      GroupKeyOf(*events[j], *gnode, &scratch_key_);
      if (scratch_key_ != scratch_slot_.group_key) break;
      ++j;
    }
    RAILGUN_ASSIGN_OR_RETURN(StateEntry * entry,
                             FindStates(scratch_slot_, gnode));
    const size_t n = j - i;
    scratch_offsets_.clear();
    for (size_t r = i; r < j; ++r) {
      scratch_offsets_.push_back(events[r]->offset);
    }
    scratch_values_.resize(n);
    for (size_t k = 0; k < gnode->metrics.size(); ++k) {
      const MetricLeaf& leaf = gnode->metrics[k];
      for (size_t r = 0; r < n; ++r) {
        scratch_values_[r] = leaf.field_index >= 0
                                 ? events[i + r]->values[leaf.field_index]
                                 : kOne;
      }
      if (leaf.kind == agg::AggKind::kCountDistinct) {
        ctx.aux_key_prefix =
            StateKey(leaf.metric_id, epoch, scratch_slot_.group_key) + "|";
      }
      scratch_state_ = entry->states[k];
      const Status update =
          entering ? leaf.aggregator->Enter(scratch_values_.data(),
                                            scratch_offsets_.data(), n,
                                            &scratch_state_, &ctx)
                   : leaf.aggregator->Expire(scratch_values_.data(),
                                             scratch_offsets_.data(), n,
                                             &scratch_state_, &ctx);
      RAILGUN_RETURN_IF_ERROR(CommitState(update, k, entry));
    }
    i = j;
  }
  return Status::OK();
}

StatusOr<TaskPlan::StateEntry*> TaskPlan::FindStates(const StateSlot& slot,
                                                     GroupNode* gnode) {
  auto it = gnode->states.find(slot);
  if (it != gnode->states.end() &&
      it->second.states.size() == gnode->metrics.size()) {
    ++stats_.hits;
    return &it->second;
  }
  ++stats_.misses;
  if (it == gnode->states.end()) {
    it = gnode->states.emplace(slot, StateEntry()).first;
    stats_.bytes += kEntryOverheadBytes + slot.group_key.size();
  }
  // Leaves added to the group after the entry was loaded load here too.
  std::vector<std::string>& states = it->second.states;
  while (states.size() < gnode->metrics.size()) {
    const uint64_t metric_id = gnode->metrics[states.size()].metric_id;
    std::string state;
    const Status s =
        db_->Get(storage::kDefaultColumnFamily,
                 StateKey(metric_id, slot.epoch, slot.group_key), &state);
    if (!s.ok() && !s.IsNotFound()) return s;
    stats_.bytes += kStateOverheadBytes + state.size();
    states.push_back(std::move(state));
  }
  return &it->second;
}

Status TaskPlan::CommitState(const Status& update, size_t leaf_index,
                             StateEntry* entry) {
  RAILGUN_RETURN_IF_ERROR(update);
  std::string& state = entry->states[leaf_index];
  stats_.bytes += scratch_state_.size();
  stats_.bytes -= state.size();
  state.swap(scratch_state_);
  entry->dirty = true;
  return Status::OK();
}

template <typename Fn>
void TaskPlan::ForEachGroup(Fn&& fn) {
  for (auto& island : islands_) {
    for (auto& wnode : island->windows) {
      for (auto& fnode : wnode.filters) {
        for (auto& gnode : fnode.groups) fn(gnode);
      }
    }
  }
}

StatusOr<size_t> TaskPlan::WriteBack(storage::WriteBatch* batch) {
  std::vector<StateEntry*> written;
  size_t keys = 0;
  ForEachGroup([&](GroupNode& gnode) {
    for (auto& [slot, entry] : gnode.states) {
      if (!entry.dirty) continue;
      for (size_t k = 0; k < entry.states.size(); ++k) {
        if (entry.states[k].empty()) continue;
        batch->Put(storage::kDefaultColumnFamily,
                   StateKey(gnode.metrics[k].metric_id, slot.epoch,
                            slot.group_key),
                   entry.states[k]);
        ++keys;
      }
      written.push_back(&entry);
    }
  });
  if (batch->Count() > 0) RAILGUN_RETURN_IF_ERROR(db_->Write(batch));
  for (StateEntry* entry : written) entry->dirty = false;
  return keys;
}

Status TaskPlan::MaybeSweep() {
  if (stats_.bytes <= state_budget_bytes_) return Status::OK();
  storage::WriteBatch batch;
  RAILGUN_RETURN_IF_ERROR(WriteBack(&batch).status());
  ForEachGroup([](GroupNode& gnode) { gnode.states.clear(); });
  stats_.bytes = 0;
  ++stats_.sweeps;
  return Status::OK();
}

std::string TaskPlan::StateKey(uint64_t metric_id, Micros epoch,
                               const std::string& group_key) {
  std::string key = "m";
  key += std::to_string(metric_id);
  if (epoch != 0) {
    key += "@";
    key += std::to_string(epoch);
  }
  key += "|";
  key += group_key;
  return key;
}

void TaskPlan::GroupKeyOf(const Event& event, const GroupNode& group,
                          std::string* key) {
  key->clear();
  for (size_t i = 0; i < group.field_indices.size(); ++i) {
    if (i > 0) key->push_back('\x1f');
    key->append(event.values[group.field_indices[i]].ToString());
  }
}

void TaskPlan::SaveWindowPositions(std::string* blob) const {
  // Layout: tag | next metric id | island count | per island: query
  // count, (statement, first metric id) per query, edge positions.
  blob->push_back(kLayoutTag);
  PutVarint64(blob, next_metric_id_);
  PutVarint32(blob, static_cast<uint32_t>(islands_.size()));
  std::string positions;
  for (const auto& island : islands_) {
    PutVarint32(blob, static_cast<uint32_t>(island->queries.size()));
    for (const PlannedQuery& q : island->queries) {
      PutLengthPrefixedSlice(blob, q.statement);
      PutVarint64(blob, q.first_metric_id);
    }
    positions.clear();
    island->windows_mgr.SavePositions(&positions);
    PutLengthPrefixedSlice(blob, positions);
  }
}

Status TaskPlan::RestoreWindowPositions(
    const std::string& blob, const std::vector<query::QueryDef>& queries) {
  if (num_metrics_ != 0 || islands_.size() != 1) {
    return Status::InvalidArgument("window positions restore into a used plan");
  }
  Slice in(blob);
  if (in.empty() || in[0] != kLayoutTag) {
    // A blob without the layout is restored the way it was written: by
    // island index, with every query in island 0. Positions of any
    // later island are dropped (their queries share island 0's edges).
    Island* island = islands_[0].get();
    for (const auto& q : queries) {
      RAILGUN_RETURN_IF_ERROR(AddQueryToIsland(q, island));
    }
    Slice positions;
    if (!GetLengthPrefixedSlice(&in, &positions)) {
      return Status::Corruption("window position blob too short");
    }
    return island->windows_mgr.RestorePositions(positions.ToString());
  }
  in.remove_prefix(1);
  uint64_t next_metric_id;
  uint32_t num_islands;
  if (!GetVarint64(&in, &next_metric_id) || !GetVarint32(&in, &num_islands) ||
      num_islands == 0) {
    return Status::Corruption("window position blob header");
  }
  for (uint32_t i = 0; i < num_islands; ++i) {
    if (i > 0) islands_.push_back(std::make_unique<Island>(reservoir_));
    Island* island = islands_.back().get();
    uint32_t num_queries;
    if (!GetVarint32(&in, &num_queries)) {
      return Status::Corruption("window position blob island");
    }
    for (uint32_t k = 0; k < num_queries; ++k) {
      Slice statement;
      uint64_t first_metric_id;
      if (!GetLengthPrefixedSlice(&in, &statement) ||
          !GetVarint64(&in, &first_metric_id)) {
        return Status::Corruption("window position blob query");
      }
      auto q = std::find_if(queries.begin(), queries.end(),
                            [&](const query::QueryDef& def) {
                              return Slice(def.raw) == statement;
                            });
      if (q == queries.end()) continue;
      next_metric_id_ = first_metric_id;
      RAILGUN_RETURN_IF_ERROR(AddQueryToIsland(*q, island));
    }
    Slice positions;
    if (!GetLengthPrefixedSlice(&in, &positions)) {
      return Status::Corruption("window position blob too short");
    }
    RAILGUN_RETURN_IF_ERROR(
        island->windows_mgr.RestorePositions(positions.ToString()));
  }
  next_metric_id_ = next_metric_id;
  return Status::OK();
}

bool TaskPlan::HasQuery(const std::string& statement) const {
  for (const auto& island : islands_) {
    for (const PlannedQuery& q : island->queries) {
      if (q.statement == statement) return true;
    }
  }
  return false;
}

size_t TaskPlan::num_window_nodes() const {
  size_t n = 0;
  for (const auto& island : islands_) n += island->windows.size();
  return n;
}

size_t TaskPlan::num_filter_nodes() const {
  size_t n = 0;
  for (const auto& island : islands_) {
    for (const auto& w : island->windows) n += w.filters.size();
  }
  return n;
}

size_t TaskPlan::num_group_nodes() const {
  size_t n = 0;
  for (const auto& island : islands_) {
    for (const auto& w : island->windows) {
      for (const auto& f : w.filters) n += f.groups.size();
    }
  }
  return n;
}

size_t TaskPlan::num_edge_iterators() const {
  size_t n = 0;
  for (const auto& island : islands_) {
    n += island->windows_mgr.num_edge_iterators();
  }
  return n;
}

}  // namespace railgun::plan
