#include "timed_bus.h"

#include "util.h"

namespace perfbench {

using railgun::Micros;
using railgun::Status;
using railgun::StatusOr;
using railgun::msg::TopicPartition;

namespace {

uint64_t Ns(double us) { return static_cast<uint64_t>(us * 1000.0); }

// Front-end reply consumers are named "fe.<node>" (engine/frontend.cc);
// every other group member is a processor unit.
bool IsFrontEnd(const std::string& consumer_id) {
  return consumer_id.rfind("fe.", 0) == 0;
}

}  // namespace

TimedBus::Counters TimedBus::counters() const {
  Counters c;
  c.produce_calls = produce_calls_.load();
  c.produce_records = produce_records_.load();
  c.produce_bytes = produce_bytes_.load();
  c.produce_us = static_cast<double>(produce_ns_.load()) / 1000.0;
  c.poll_work_us = static_cast<double>(poll_work_ns_.load()) / 1000.0;
  c.poll_wait_us = static_cast<double>(poll_wait_ns_.load()) / 1000.0;
  c.unit_polls_nonempty = unit_polls_nonempty_.load();
  c.unit_poll_messages = unit_poll_messages_.load();
  return c;
}

void TimedBus::RecordProduce(double us, uint64_t records, uint64_t bytes) {
  produce_calls_.fetch_add(1, std::memory_order_relaxed);
  produce_records_.fetch_add(records, std::memory_order_relaxed);
  produce_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  produce_ns_.fetch_add(Ns(us), std::memory_order_relaxed);
}

void TimedBus::RecordPoll(const std::string& consumer_id, double us,
                          size_t messages) {
  if (messages == 0) {
    poll_wait_ns_.fetch_add(Ns(us), std::memory_order_relaxed);
    return;
  }
  poll_work_ns_.fetch_add(Ns(us), std::memory_order_relaxed);
  if (!IsFrontEnd(consumer_id)) {
    unit_polls_nonempty_.fetch_add(1, std::memory_order_relaxed);
    unit_poll_messages_.fetch_add(messages, std::memory_order_relaxed);
  }
}

Status TimedBus::CreateTopic(const std::string& topic, int partitions) {
  return inner_->CreateTopic(topic, partitions);
}

Status TimedBus::DeleteTopic(const std::string& topic) {
  return inner_->DeleteTopic(topic);
}

StatusOr<int> TimedBus::NumPartitions(const std::string& topic) const {
  return inner_->NumPartitions(topic);
}

std::vector<TopicPartition> TimedBus::PartitionsOf(
    const std::string& topic) const {
  return inner_->PartitionsOf(topic);
}

StatusOr<uint64_t> TimedBus::Produce(const std::string& topic,
                                     const std::string& key,
                                     std::string payload) {
  const uint64_t bytes = payload.size();
  const double start = NowUs();
  auto result = inner_->Produce(topic, key, std::move(payload));
  RecordProduce(NowUs() - start, 1, bytes);
  return result;
}

StatusOr<uint64_t> TimedBus::ProduceToPartition(const std::string& topic,
                                                int partition, std::string key,
                                                std::string payload) {
  const uint64_t bytes = payload.size();
  const double start = NowUs();
  auto result = inner_->ProduceToPartition(topic, partition, std::move(key),
                                           std::move(payload));
  RecordProduce(NowUs() - start, 1, bytes);
  return result;
}

Status TimedBus::ProduceBatch(
    const std::string& topic,
    std::vector<railgun::msg::ProduceRecord> records) {
  uint64_t bytes = 0;
  for (const auto& r : records) bytes += r.payload.size();
  const uint64_t n = records.size();
  const double start = NowUs();
  Status s = inner_->ProduceBatch(topic, std::move(records));
  RecordProduce(NowUs() - start, n, bytes);
  return s;
}

Status TimedBus::Subscribe(const std::string& consumer_id,
                           const std::string& group,
                           const std::vector<std::string>& topics,
                           const std::string& metadata,
                           railgun::msg::AssignmentStrategy* strategy,
                           railgun::msg::RebalanceListener listener) {
  return inner_->Subscribe(consumer_id, group, topics, metadata, strategy,
                           std::move(listener));
}

Status TimedBus::Unsubscribe(const std::string& consumer_id) {
  return inner_->Unsubscribe(consumer_id);
}

Status TimedBus::Poll(const std::string& consumer_id, size_t max_messages,
                      std::vector<railgun::msg::Message>* out,
                      Micros max_wait) {
  const double start = NowUs();
  Status s = inner_->Poll(consumer_id, max_messages, out, max_wait);
  RecordPoll(consumer_id, NowUs() - start, out->size());
  return s;
}

Status TimedBus::PollBatch(const std::string& consumer_id, size_t max_messages,
                           railgun::msg::MessageBatch* out, Micros max_wait) {
  const double start = NowUs();
  Status s = inner_->PollBatch(consumer_id, max_messages, out, max_wait);
  RecordPoll(consumer_id, NowUs() - start, out->size());
  return s;
}

Status TimedBus::Fetch(const TopicPartition& tp, uint64_t offset,
                       size_t max_messages,
                       std::vector<railgun::msg::Message>* out) const {
  return inner_->Fetch(tp, offset, max_messages, out);
}

Status TimedBus::Commit(const std::string& consumer_id,
                        const TopicPartition& tp, uint64_t next_offset) {
  return inner_->Commit(consumer_id, tp, next_offset);
}

Status TimedBus::Seek(const std::string& consumer_id, const TopicPartition& tp,
                      uint64_t offset) {
  return inner_->Seek(consumer_id, tp, offset);
}

StatusOr<uint64_t> TimedBus::EndOffset(const TopicPartition& tp) const {
  return inner_->EndOffset(tp);
}

StatusOr<uint64_t> TimedBus::BaseOffset(const TopicPartition& tp) const {
  return inner_->BaseOffset(tp);
}

Status TimedBus::KillConsumer(const std::string& consumer_id) {
  return inner_->KillConsumer(consumer_id);
}

void TimedBus::CheckLiveness() { inner_->CheckLiveness(); }

Status TimedBus::WakeConsumer(const std::string& consumer_id) {
  return inner_->WakeConsumer(consumer_id);
}

void TimedBus::Wake() { inner_->Wake(); }

std::vector<TopicPartition> TimedBus::AssignmentOf(
    const std::string& consumer_id) {
  return inner_->AssignmentOf(consumer_id);
}

uint64_t TimedBus::rebalance_count() const { return inner_->rebalance_count(); }

uint64_t TimedBus::BacklogHint() const { return inner_->BacklogHint(); }

}  // namespace perfbench
