#include "api/result.h"

#include <chrono>

namespace railgun::api {

namespace {

// Exact display name, or the bare aggregation name as a prefix of
// "<agg> over <window>...".
bool MetricNameMatches(const std::string& name, const std::string& wanted) {
  if (name == wanted) return true;
  static constexpr char kOver[] = " over ";
  constexpr size_t kOverLen = sizeof(kOver) - 1;
  return name.size() >= wanted.size() + kOverLen &&
         name.compare(0, wanted.size(), wanted) == 0 &&
         name.compare(wanted.size(), kOverLen, kOver) == 0;
}

}  // namespace

const MetricValue* EventResult::Find(const std::string& metric) const {
  for (const auto& m : metrics) {
    if (MetricNameMatches(m.metric, metric)) return &m;
  }
  return nullptr;
}

const MetricValue* EventResult::Find(const std::string& metric,
                                     const std::string& group) const {
  for (const auto& m : metrics) {
    if (MetricNameMatches(m.metric, metric) && m.group == group) return &m;
  }
  return nullptr;
}

std::string EventResult::ToString() const {
  std::string out;
  if (!status.ok()) {
    out += status.ToString();
    out += "\n";
  }
  for (const auto& m : metrics) {
    out += "    " + m.metric + " [" + m.group + "] = " +
           m.value.ToString() + "\n";
  }
  if (metrics.empty() && status.ok()) out += "    (no metrics)\n";
  return out;
}

bool ResultFuture::ready() const {
  if (state_ == nullptr) return false;
  MutexLock lock(&state_->mu);
  return state_->ready;
}

bool ResultFuture::Wait(Micros timeout) const {
  if (state_ == nullptr) return false;
  MutexLock lock(&state_->mu);
  if (timeout < 0) {
    state_->cv.Wait(&state_->mu, [this] { return state_->ready; });
    return true;
  }
  return state_->cv.WaitFor(&state_->mu, timeout,
                            [this] { return state_->ready; });
}

EventResult ResultFuture::Get(Micros timeout) const {
  if (state_ == nullptr) {
    EventResult result;
    result.status = Status::Unavailable("invalid ResultFuture");
    return result;
  }
  if (!Wait(timeout)) {
    EventResult result;
    result.status =
        Status::Unavailable("timed out waiting for the event result");
    return result;
  }
  MutexLock lock(&state_->mu);
  return state_->result;
}

ResultFuture ResultFuture::Ready(EventResult result) {
  auto state = std::make_shared<State>();
  state->ready = true;
  state->result = std::move(result);
  return ResultFuture(std::move(state));
}

void ResultFuture::Complete(const std::shared_ptr<State>& state,
                            EventResult result) {
  {
    MutexLock lock(&state->mu);
    if (state->ready) return;  // At-most-once completion.
    state->result = std::move(result);
    state->ready = true;
  }
  state->cv.NotifyAll();
}

}  // namespace railgun::api
