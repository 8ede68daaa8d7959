#include "window/window_operator.h"

#include <algorithm>

#include "common/coding.h"

namespace railgun::window {

using reservoir::Event;
using reservoir::ReservoirIterator;

WindowOperator* WindowManager::GetOrCreate(const WindowSpec& spec) {
  const std::string key = spec.Key();
  auto it = operators_.find(key);
  if (it != operators_.end()) return it->second.get();

  auto op = std::make_unique<WindowOperator>(spec, reservoir_);

  // Wire shared edges.
  switch (spec.kind) {
    case WindowKind::kSliding:
      if (heads_.count(spec.HeadOffset()) == 0) {
        heads_[spec.HeadOffset()] = reservoir_->NewIterator();
      }
      if (tails_.count(spec.TailOffset()) == 0) {
        tails_[spec.TailOffset()] = reservoir_->NewIterator();
      }
      break;
    case WindowKind::kTumbling:
    case WindowKind::kInfinite:
      if (heads_.count(spec.HeadOffset()) == 0) {
        heads_[spec.HeadOffset()] = reservoir_->NewIterator();
      }
      break;
    case WindowKind::kCountSliding:
      if (heads_.count(spec.HeadOffset()) == 0) {
        heads_[spec.HeadOffset()] = reservoir_->NewIterator();
      }
      op->count_tail_ = reservoir_->NewIterator();
      break;
  }

  // State restored before this operator was re-created (recovery may
  // run RestorePositions first): apply it now, replacing the fresh
  // count tail with the checkpointed position.
  auto pending = pending_restores_.find(key);
  if (pending != pending_restores_.end()) {
    op->current_epoch_ = pending->second.epoch;
    op->in_window_ = pending->second.in_window;
    if (pending->second.has_tail) {
      op->count_tail_ = reservoir_->NewIteratorAtPosition(
          pending->second.tail_chunk_seq, pending->second.tail_index);
    }
    pending_restores_.erase(pending);
  }

  WindowOperator* raw = op.get();
  operators_[key] = std::move(op);
  return raw;
}

namespace {

// Moves `iter` forward while take(event) holds, appending pointers to
// the events it passes and pinning each chunk they live in.
template <typename Take>
void DrainWhile(ReservoirIterator* iter, Take take,
                std::vector<const Event*>* out,
                std::vector<std::shared_ptr<reservoir::Chunk>>* pins) {
  const reservoir::Chunk* pinned = nullptr;
  iter->Refresh();
  while (!iter->AtEnd() && take(iter->event())) {
    if (iter->chunk().get() != pinned) {
      pinned = iter->chunk().get();
      pins->push_back(iter->chunk());
    }
    out->push_back(&iter->event());
    iter->Advance();
  }
}

// Drains every edge of one side into the entry for its offset. Edges
// are only ever added, so resizing keeps every entry's capacity.
void DrainEdges(
    const std::map<Micros, std::unique_ptr<ReservoirIterator>>& edges,
    Micros now, bool inclusive, std::vector<EdgeEvents>* out,
    std::vector<std::shared_ptr<reservoir::Chunk>>* pins) {
  out->resize(edges.size());
  size_t i = 0;
  for (const auto& [offset, iter] : edges) {
    EdgeEvents& edge = (*out)[i++];
    edge.first = offset;
    edge.second.clear();
    const Micros threshold = now - offset;
    DrainWhile(
        iter.get(),
        [threshold, inclusive](const Event& e) {
          return inclusive ? e.timestamp <= threshold
                           : e.timestamp < threshold;
        },
        &edge.second, pins);
  }
}

// The events drained by the edge at `offset`, or null if none exists.
const std::vector<const Event*>* FindEdge(const std::vector<EdgeEvents>& edges,
                                          Micros offset) {
  auto it = std::lower_bound(
      edges.begin(), edges.end(), offset,
      [](const EdgeEvents& edge, Micros o) { return edge.first < o; });
  return it != edges.end() && it->first == offset ? &it->second : nullptr;
}

}  // namespace

void WindowManager::Advance(Micros now, EdgeDeltas* deltas) {
  deltas->pins.clear();
  // Heads: every event with timestamp <= now - offset enters.
  DrainEdges(heads_, now, /*inclusive=*/true, &deltas->entered_by_offset,
             &deltas->pins);
  // Tails: every event with timestamp < now - offset expires
  // (T_eval - ws <= t_i keeps the boundary event inside; see §2).
  DrainEdges(tails_, now, /*inclusive=*/false, &deltas->expired_by_offset,
             &deltas->pins);
}

void WindowManager::SavePositions(std::string* blob) const {
  // Layout: [kind byte, key, chunk_seq, index]* with kind 'h'(ead),
  // 't'(ail) keyed by offset, 'c'(ount tail) keyed by operator key, plus
  // per-operator scalar state for tumbling/count windows.
  PutVarint32(blob, static_cast<uint32_t>(heads_.size()));
  for (const auto& [offset, iter] : heads_) {
    PutVarsint64(blob, offset);
    PutVarint64(blob, iter->chunk_seq());
    PutVarint64(blob, iter->index());
  }
  PutVarint32(blob, static_cast<uint32_t>(tails_.size()));
  for (const auto& [offset, iter] : tails_) {
    PutVarsint64(blob, offset);
    PutVarint64(blob, iter->chunk_seq());
    PutVarint64(blob, iter->index());
  }
  uint32_t num_ops_with_state = 0;
  for (const auto& [key, op] : operators_) {
    if (op->count_tail_ != nullptr ||
        op->spec_.kind == WindowKind::kTumbling) {
      ++num_ops_with_state;
    }
  }
  PutVarint32(blob, num_ops_with_state);
  for (const auto& [key, op] : operators_) {
    if (op->count_tail_ == nullptr &&
        op->spec_.kind != WindowKind::kTumbling) {
      continue;
    }
    PutLengthPrefixedSlice(blob, key);
    PutVarsint64(blob, op->current_epoch_);
    PutVarint64(blob, op->in_window_);
    const bool has_tail = op->count_tail_ != nullptr;
    blob->push_back(has_tail ? 1 : 0);
    if (has_tail) {
      PutVarint64(blob, op->count_tail_->chunk_seq());
      PutVarint64(blob, op->count_tail_->index());
    }
  }
}

Status WindowManager::RestorePositions(const std::string& blob) {
  Slice in(blob);
  uint32_t n;
  if (!GetVarint32(&in, &n)) return Status::Corruption("window positions");
  for (uint32_t i = 0; i < n; ++i) {
    int64_t offset;
    uint64_t seq, index;
    if (!GetVarsint64(&in, &offset) || !GetVarint64(&in, &seq) ||
        !GetVarint64(&in, &index)) {
      return Status::Corruption("window head position");
    }
    heads_[offset] = reservoir_->NewIteratorAtPosition(seq, index);
  }
  if (!GetVarint32(&in, &n)) return Status::Corruption("window positions");
  for (uint32_t i = 0; i < n; ++i) {
    int64_t offset;
    uint64_t seq, index;
    if (!GetVarsint64(&in, &offset) || !GetVarint64(&in, &seq) ||
        !GetVarint64(&in, &index)) {
      return Status::Corruption("window tail position");
    }
    tails_[offset] = reservoir_->NewIteratorAtPosition(seq, index);
  }
  if (!GetVarint32(&in, &n)) return Status::Corruption("window positions");
  for (uint32_t i = 0; i < n; ++i) {
    Slice key;
    int64_t epoch;
    uint64_t in_window;
    if (!GetLengthPrefixedSlice(&in, &key) || !GetVarsint64(&in, &epoch) ||
        !GetVarint64(&in, &in_window) || in.empty()) {
      return Status::Corruption("window operator state");
    }
    const bool has_tail = in[0] != 0;
    in.remove_prefix(1);
    uint64_t seq = 0, index = 0;
    if (has_tail &&
        (!GetVarint64(&in, &seq) || !GetVarint64(&in, &index))) {
      return Status::Corruption("count tail position");
    }
    auto it = operators_.find(key.ToString());
    if (it != operators_.end()) {
      it->second->current_epoch_ = epoch;
      it->second->in_window_ = in_window;
      if (has_tail) {
        it->second->count_tail_ =
            reservoir_->NewIteratorAtPosition(seq, index);
      }
    } else {
      // The operator has not been re-created yet (restore ran before the
      // plan registered its windows): stash for GetOrCreate instead of
      // silently dropping recovery state.
      PendingOperatorState& pending = pending_restores_[key.ToString()];
      pending.epoch = epoch;
      pending.in_window = in_window;
      pending.has_tail = has_tail;
      pending.tail_chunk_seq = seq;
      pending.tail_index = index;
    }
  }
  return Status::OK();
}

WindowOperator::WindowOperator(WindowSpec spec,
                               reservoir::Reservoir* reservoir)
    : spec_(spec), reservoir_(reservoir) {}

void WindowOperator::Collect(Micros now, const EdgeDeltas& deltas,
                             WindowDelta* out) {
  out->entered.clear();
  out->expired.clear();
  out->pins.clear();
  out->reset = false;
  out->epoch = 0;

  const std::vector<const Event*>* entered =
      FindEdge(deltas.entered_by_offset, spec_.HeadOffset());
  if (entered != nullptr) {
    out->entered.insert(out->entered.end(), entered->begin(), entered->end());
  }

  switch (spec_.kind) {
    case WindowKind::kSliding: {
      const std::vector<const Event*>* expired =
          FindEdge(deltas.expired_by_offset, spec_.TailOffset());
      if (expired != nullptr) {
        out->expired.insert(out->expired.end(), expired->begin(),
                            expired->end());
      }
      break;
    }
    case WindowKind::kTumbling: {
      const Micros epoch = (now / spec_.size) * spec_.size;
      out->epoch = epoch;
      if (epoch != current_epoch_) {
        out->reset = true;
        current_epoch_ = epoch;
      }
      break;
    }
    case WindowKind::kInfinite:
      break;
    case WindowKind::kCountSliding: {
      // The head is the offset-0 edge (HeadOffset ignores a delay); the
      // private tail expires whatever exceeds the newest `count`.
      if (entered != nullptr) in_window_ += entered->size();
      uint64_t excess = in_window_ > spec_.count ? in_window_ - spec_.count : 0;
      DrainWhile(
          count_tail_.get(),
          [&excess](const Event&) {
            if (excess == 0) return false;
            --excess;
            return true;
          },
          &out->expired, &out->pins);
      in_window_ -= out->expired.size();
      break;
    }
  }
}

}  // namespace railgun::window
