// Timing decorator over msg::Bus, used only by the traced run. Every call
// forwards to the wrapped bus; produce and poll calls are timed and
// counted from outside the bus, so nothing in src/ records spans.
#ifndef PERFBENCH_TIMED_BUS_H_
#define PERFBENCH_TIMED_BUS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "msg/bus.h"

namespace perfbench {

class TimedBus : public railgun::msg::Bus {
 public:
  explicit TimedBus(railgun::msg::Bus* inner) : inner_(inner) {}

  struct Counters {
    uint64_t produce_calls = 0;
    uint64_t produce_records = 0;
    uint64_t produce_bytes = 0;
    double produce_us = 0;
    double poll_work_us = 0;  // Polls that returned messages.
    double poll_wait_us = 0;  // Polls that returned nothing (parked).
    // Messages returned to processor-unit consumers (not front ends).
    uint64_t unit_polls_nonempty = 0;
    uint64_t unit_poll_messages = 0;
  };
  Counters counters() const;

  // --- msg::Bus ------------------------------------------------------
  railgun::Status CreateTopic(const std::string& topic,
                              int partitions) override;
  railgun::Status DeleteTopic(const std::string& topic) override;
  railgun::StatusOr<int> NumPartitions(const std::string& topic) const override;
  std::vector<railgun::msg::TopicPartition> PartitionsOf(
      const std::string& topic) const override;
  railgun::StatusOr<uint64_t> Produce(const std::string& topic,
                                      const std::string& key,
                                      std::string payload) override;
  railgun::StatusOr<uint64_t> ProduceToPartition(const std::string& topic,
                                                 int partition,
                                                 std::string key,
                                                 std::string payload) override;
  railgun::Status ProduceBatch(
      const std::string& topic,
      std::vector<railgun::msg::ProduceRecord> records) override;
  railgun::Status Subscribe(const std::string& consumer_id,
                            const std::string& group,
                            const std::vector<std::string>& topics,
                            const std::string& metadata,
                            railgun::msg::AssignmentStrategy* strategy,
                            railgun::msg::RebalanceListener listener) override;
  railgun::Status Unsubscribe(const std::string& consumer_id) override;
  railgun::Status Poll(const std::string& consumer_id, size_t max_messages,
                       std::vector<railgun::msg::Message>* out,
                       railgun::Micros max_wait) override;
  railgun::Status PollBatch(const std::string& consumer_id,
                            size_t max_messages,
                            railgun::msg::MessageBatch* out,
                            railgun::Micros max_wait) override;
  railgun::Status Fetch(const railgun::msg::TopicPartition& tp,
                        uint64_t offset, size_t max_messages,
                        std::vector<railgun::msg::Message>* out)
      const override;
  railgun::Status Commit(const std::string& consumer_id,
                         const railgun::msg::TopicPartition& tp,
                         uint64_t next_offset) override;
  railgun::Status Seek(const std::string& consumer_id,
                       const railgun::msg::TopicPartition& tp,
                       uint64_t offset) override;
  railgun::StatusOr<uint64_t> EndOffset(
      const railgun::msg::TopicPartition& tp) const override;
  railgun::StatusOr<uint64_t> BaseOffset(
      const railgun::msg::TopicPartition& tp) const override;
  railgun::Status KillConsumer(const std::string& consumer_id) override;
  void CheckLiveness() override;
  railgun::Status WakeConsumer(const std::string& consumer_id) override;
  void Wake() override;
  std::vector<railgun::msg::TopicPartition> AssignmentOf(
      const std::string& consumer_id) override;
  uint64_t rebalance_count() const override;
  uint64_t BacklogHint() const override;

 private:
  void RecordProduce(double us, uint64_t records, uint64_t bytes);
  void RecordPoll(const std::string& consumer_id, double us, size_t messages);

  railgun::msg::Bus* inner_;
  std::atomic<uint64_t> produce_calls_{0};
  std::atomic<uint64_t> produce_records_{0};
  std::atomic<uint64_t> produce_bytes_{0};
  std::atomic<uint64_t> produce_ns_{0};
  std::atomic<uint64_t> poll_work_ns_{0};
  std::atomic<uint64_t> poll_wait_ns_{0};
  std::atomic<uint64_t> unit_polls_nonempty_{0};
  std::atomic<uint64_t> unit_poll_messages_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_BUS_H_
