#include "workload.h"

#include <cmath>
#include <cstdlib>

#include "query/ddl.h"
#include "query/query.h"

namespace perfbench {

using railgun::reservoir::Event;
using railgun::reservoir::FieldType;

namespace {

// Event time of the first generated event. Timestamps then advance by a
// fixed step per event, independent of wall time, so a seed always
// yields the same window contents.
constexpr int64_t kEpochUs = 1000000000000000;  // 2001-09-09 in µs.

constexpr size_t kIngestCards = 1024;
// Ingest: 1 µs of event time per event — a 5-minute window would need
// 3e8 events to expire, so windows never expire inside a run.
constexpr int64_t kIngestStepUs = 1;

constexpr uint64_t kFraudCards = 20000;
// Fraud: 50 ms of event time per event, so the 60k-event history spans
// 3000 s, just over the longest window (2970 s).
constexpr int64_t kFraudStepUs = 50000;
constexpr int kFraudWindows = 12;

std::string FraudCreateStream() {
  railgun::workload::FraudStreamConfig config;
  config.num_cards = kFraudCards;
  railgun::workload::FraudStreamGenerator gen(config);
  std::string ddl = "CREATE STREAM fraud (";
  bool first = true;
  for (const auto& f : gen.schema_fields()) {
    if (!first) ddl += ", ";
    first = false;
    ddl += f.name + " " + railgun::query::FieldTypeName(f.type);
  }
  return ddl + ") PARTITION BY cardId PARTITIONS 4";
}

// Misaligned windows: no two share a head (delay) or a tail (delay +
// size) edge, so every window drives its own two reservoir iterators.
std::vector<std::string> FraudMetrics() {
  std::vector<std::string> out;
  for (int i = 0; i < kFraudWindows; ++i) {
    const int delay_s = 30 + 60 * i;
    const int size_s = 300 + 180 * i;
    out.push_back("ADD METRIC SELECT sum(amount), count(*) FROM fraud "
                  "GROUP BY cardId OVER sliding " +
                  std::to_string(size_s) + " seconds delayed by " +
                  std::to_string(delay_s) + " seconds");
  }
  return out;
}

// Card ids are "card<N>".
size_t CardIndex(const std::string& card) {
  return static_cast<size_t>(std::strtoull(card.c_str() + 4, nullptr, 10));
}

}  // namespace

bool LookupWorkload(const std::string& name, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  if (name == "ingest" || name == "remote_ingest") {
    s.remote = name == "remote_ingest";
    s.rate = 25000;
    s.send_batch = 256;
    s.batch = 256;
    s.depth = 8;
    s.stream = "payments";
    s.create_stream =
        "CREATE STREAM payments (cardId STRING, amount DOUBLE) "
        "PARTITION BY cardId PARTITIONS 4";
    s.metrics = {
        "ADD METRIC SELECT sum(amount), count(*) FROM payments "
        "GROUP BY cardId OVER sliding 5 minutes"};
  } else if (name == "fraud_windows") {
    s.rate = 1000;
    s.history = 60000;
    s.batch = 256;
    s.depth = 8;
    s.stream = "fraud";
    s.create_stream = FraudCreateStream();
    s.metrics = FraudMetrics();
  } else {
    return false;
  }
  *spec = s;
  return true;
}

EventSource::EventSource(const WorkloadSpec& spec, uint64_t seed)
    : spec_(spec),
      rng_(seed * 0x9E3779B97F4A7C15ull + 1),
      running_(kIngestCards),
      windows_(kFraudCards + 1) {
  for (const std::string& statement : spec.metrics) {
    const std::string body = statement.substr(statement.find("SELECT"));
    auto parsed = railgun::query::ParseQuery(body);
    if (!parsed.ok()) std::abort();  // The statements above are constant.
    const railgun::query::QueryDef& q = parsed.value();
    for (const auto& agg : q.aggs) {
      MetricRef ref;
      ref.name = agg.name + " over " + q.window.ToString() + " by cardId";
      ref.is_sum = agg.field == "amount";
      ref.window.size = q.window.size;
      ref.window.delay = q.window.delay;
      refs_.push_back(ref);
    }
  }
  if (spec.name == "fraud_windows") {
    railgun::workload::FraudStreamConfig config;
    config.num_cards = kFraudCards;
    config.seed = seed;
    fraud_.reset(new railgun::workload::FraudStreamGenerator(config));
    fields_ = fraud_->schema_fields();
  } else {
    fields_ = {{"cardId", FieldType::kString}, {"amount", FieldType::kDouble}};
  }
}

void EventSource::Next(GenEvent* out) {
  const uint64_t i = next_index_++;
  out->expected.clear();
  if (fraud_ != nullptr) {
    const int64_t ts = kEpochUs + static_cast<int64_t>(i) * kFraudStepUs;
    out->event = fraud_->Next(ts);
    // Dyadic amounts (multiples of 1/128) keep every windowed sum exact in
    // binary floating point, whatever order the engine adds and removes.
    const double amount =
        std::round(out->event.values[2].as_double() * 128.0) / 128.0;
    out->event.values[2] = amount;
    out->group = out->event.values[0].as_string();
    const size_t key = CardIndex(out->group);
    windows_.Add(key, ts, amount);
    for (const MetricRef& ref : refs_) {
      double sum;
      int64_t count;
      windows_.Query(key, ts, ref.window, &sum, &count);
      out->expected.push_back(
          {&ref.name, ref.is_sum ? sum : static_cast<double>(count)});
    }
  } else {
    const size_t key = i % kIngestCards;
    const double amount = static_cast<double>(rng_.Uniform(4000) + 1) * 0.25;
    Event& e = out->event;
    e.timestamp = kEpochUs + static_cast<int64_t>(i) * kIngestStepUs;
    e.id = i + 1;
    e.offset = 0;
    out->group = "card" + std::to_string(key);
    e.values.resize(2);
    e.values[0] = out->group;
    e.values[1] = amount;
    double sum;
    int64_t count;
    running_.Add(key, amount, &sum, &count);
    for (const MetricRef& ref : refs_) {
      out->expected.push_back(
          {&ref.name, ref.is_sum ? sum : static_cast<double>(count)});
    }
  }
}

}  // namespace perfbench
