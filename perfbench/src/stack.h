// The system under test, stood up one of two ways:
//
//  ApiStack   the user's path: api::Client owning a 1-node x 2-unit
//             cluster, or attached over loopback TCP to a meta::Broker
//             hosting one. Used for every end-to-end metric.
//  NodeStack  the same topology assembled from its layers (InProcessBus,
//             Coordinator, RailgunNode, FrontEnd, and for remote runs a
//             BusServer + RemoteBus), so the traced run can put timing
//             decorators on the bus and on the stores' Envs.
//
// Both pin the bus delivery delay to 0: the benchmark measures the
// engine, not the simulated broker hop.
#ifndef PERFBENCH_STACK_H_
#define PERFBENCH_STACK_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/client.h"
#include "engine/task_processor.h"
#include "workload.h"

namespace perfbench {

// A submitted event's reply: an api::ResultFuture, or a slot completed by
// a FrontEnd callback.
class Pending {
 public:
  struct Slot {
    std::mutex mu;
    std::condition_variable cv;
    bool ready = false;
    railgun::api::EventResult result;
  };

  Pending() = default;
  explicit Pending(railgun::api::ResultFuture future)
      : future_(std::move(future)) {}
  explicit Pending(std::shared_ptr<Slot> slot) : slot_(std::move(slot)) {}

  bool ready() const;
  // Waits up to timeout_us for the reply; returns whether it arrived.
  bool Wait(double timeout_us) const;
  // Blocks until the reply (or the front end's timeout) arrives.
  railgun::api::EventResult Get() const;

 private:
  railgun::api::ResultFuture future_;
  std::shared_ptr<Slot> slot_;
};

struct StackOptions {
  std::string dir;         // Fresh data directory for this stack.
  bool remote = false;     // Client over loopback TCP.
  bool decorated = false;  // NodeStack: timing decorators installed.
};

class Stack {
 public:
  virtual ~Stack() = default;

  // Starts the cluster and applies the workload's DDL.
  virtual railgun::Status Start(const WorkloadSpec& spec) = 0;
  // Submits events in order; appends one Pending per event.
  virtual void SubmitBatch(const std::vector<GenEvent>& events,
                           std::vector<Pending>* out) = 0;
  virtual void Stop() = 0;

  // Task processors of the serving node. Read them only while no
  // request is in flight.
  virtual std::vector<railgun::engine::TaskProcessor*> Tasks() = 0;
  // Pending-request depth of the submitting front end (0 if hidden).
  virtual size_t FrontEndPending() = 0;
  // Broker backlog (messages produced but not yet consumed).
  virtual uint64_t Backlog() = 0;
  // Microseconds spent inside the client's submit calls so far.
  double submit_us() const { return submit_us_; }

 protected:
  double submit_us_ = 0;
};

std::unique_ptr<Stack> NewApiStack(const StackOptions& options);

class TimedBus;
class TimedEnv;
// Decorator counters of a decorated NodeStack (null otherwise).
struct Decorators {
  TimedBus* bus = nullptr;
  TimedEnv* reservoir_env = nullptr;
  TimedEnv* db_env = nullptr;
};
std::unique_ptr<Stack> NewNodeStack(const StackOptions& options,
                                    Decorators* decorators);

}  // namespace perfbench

#endif  // PERFBENCH_STACK_H_
