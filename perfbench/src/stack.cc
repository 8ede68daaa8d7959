#include "stack.h"

#include "engine/coordinator.h"
#include "engine/node.h"
#include "meta/broker.h"
#include "msg/broker.h"
#include "msg/remote/bus_server.h"
#include "msg/remote/remote_bus.h"
#include "query/ddl.h"
#include "timed_bus.h"
#include "timed_env.h"
#include "util.h"

namespace perfbench {

using railgun::Micros;
using railgun::MonotonicClock;
using railgun::Status;
using railgun::api::EventResult;
using railgun::api::Row;
namespace engine = railgun::engine;

namespace {

constexpr Micros kRequestTimeout = 10 * railgun::kMicrosPerSecond;

// 1 node x 2 processor units, no simulated broker hop.
engine::ClusterOptions ClusterShape(const std::string& dir) {
  engine::ClusterOptions cluster;
  cluster.num_nodes = 1;
  cluster.node.num_processor_units = 2;
  cluster.node.frontend.request_timeout = kRequestTimeout;
  cluster.bus.delivery_delay = 0;
  cluster.base_dir = dir;
  return cluster;
}

std::vector<engine::TaskProcessor*> TasksOf(engine::RailgunNode* node) {
  std::vector<engine::TaskProcessor*> out;
  for (int u = 0; u < node->num_units(); ++u) {
    for (const auto& tp : node->unit(u)->active_tasks()) {
      engine::TaskProcessor* task = node->unit(u)->FindProcessor(tp);
      if (task != nullptr) out.push_back(task);
    }
  }
  return out;
}

class ApiStack : public Stack {
 public:
  explicit ApiStack(const StackOptions& options) : options_(options) {}
  ~ApiStack() override { Stop(); }

  Status Start(const WorkloadSpec& spec) override {
    stream_ = spec.stream;
    const engine::ClusterOptions cluster =
        ClusterShape(options_.dir + "/cluster");
    railgun::api::ClientOptions client;
    // Pinned explicitly: ClientOptions inherits BusOptions' 500 µs hop.
    client.engine.bus.delivery_delay = 0;
    client.request_timeout = kRequestTimeout;
    if (options_.remote) {
      railgun::meta::BrokerOptions broker;
      broker.cluster = cluster;
      broker_.reset(new railgun::meta::Broker(broker));
      RAILGUN_RETURN_IF_ERROR(broker_->Start());
      client.remote_address = broker_->address();
    } else {
      client.engine = cluster;
      client.num_nodes = cluster.num_nodes;
      client.processor_units_per_node = cluster.node.num_processor_units;
      client.base_dir = cluster.base_dir;
    }
    client_.reset(new railgun::api::Client(client));
    RAILGUN_RETURN_IF_ERROR(client_->Start());
    RAILGUN_RETURN_IF_ERROR(client_->Execute(spec.create_stream));
    for (const std::string& metric : spec.metrics) {
      RAILGUN_RETURN_IF_ERROR(client_->Execute(metric));
    }
    auto schema = client_->GetSchema(stream_);
    RAILGUN_RETURN_IF_ERROR(schema.status());
    for (const auto& f : schema.value().fields()) names_.push_back(f.name);
    return Status::OK();
  }

  void SubmitBatch(const std::vector<GenEvent>& events,
                   std::vector<Pending>* out) override {
    rows_.resize(events.size());
    for (size_t i = 0; i < events.size(); ++i) {
      const auto& e = events[i].event;
      Row row;
      row.At(e.timestamp).WithId(e.id);
      for (size_t f = 0; f < names_.size(); ++f) {
        row.Set(names_[f], e.values[f]);
      }
      rows_[i] = std::move(row);
    }
    const double start = NowUs();
    if (rows_.size() == 1) {
      railgun::api::ResultFuture future = client_->Submit(stream_, rows_[0]);
      submit_us_ += NowUs() - start;
      out->emplace_back(std::move(future));
      return;
    }
    std::vector<railgun::api::ResultFuture> futures =
        client_->SubmitBatch(stream_, rows_);
    submit_us_ += NowUs() - start;
    for (auto& f : futures) out->emplace_back(std::move(f));
  }

  void Stop() override {
    if (client_ != nullptr) client_->Stop();
    client_.reset();
    if (broker_ != nullptr) broker_->Stop();
    broker_.reset();
  }

  std::vector<engine::TaskProcessor*> Tasks() override {
    return TasksOf(cluster()->node(0));
  }

  // The measured user path is not probed while it runs; the traced run
  // samples these on the NodeStack.
  size_t FrontEndPending() override { return 0; }
  uint64_t Backlog() override { return 0; }

 private:
  engine::Cluster* cluster() {
    return broker_ != nullptr ? broker_->cluster() : client_->cluster();
  }

  StackOptions options_;
  std::string stream_;
  std::vector<std::string> names_;
  std::vector<Row> rows_;
  std::unique_ptr<railgun::meta::Broker> broker_;
  std::unique_ptr<railgun::api::Client> client_;
};

class NodeStack : public Stack {
 public:
  NodeStack(const StackOptions& options, Decorators* decorators)
      : options_(options) {
    railgun::msg::BusOptions bus;
    bus.delivery_delay = 0;
    bus_.reset(new railgun::msg::InProcessBus(bus));
    served_bus_ = bus_.get();
    if (options.decorated) {
      timed_bus_.reset(new TimedBus(bus_.get()));
      reservoir_env_.reset(new TimedEnv(railgun::Env::Default()));
      db_env_.reset(new TimedEnv(railgun::Env::Default()));
      served_bus_ = timed_bus_.get();
      decorators->bus = timed_bus_.get();
      decorators->reservoir_env = reservoir_env_.get();
      decorators->db_env = db_env_.get();
    }
  }
  ~NodeStack() override { Stop(); }

  Status Start(const WorkloadSpec& spec) override {
    stream_ = spec.stream;
    coordinator_.reset(new engine::Coordinator(1));
    bus_->SetGroupStrategy(engine::kActiveGroup, coordinator_.get());
    engine::NodeOptions node = ClusterShape("").node;
    if (options_.decorated) {
      node.unit.task.reservoir.env = reservoir_env_.get();
      node.unit.task.db.env = db_env_.get();
    }
    RAILGUN_RETURN_IF_ERROR(railgun::Env::Default()->CreateDir(options_.dir));
    node_.reset(new engine::RailgunNode(node, "node0", options_.dir + "/node0",
                                        served_bus_, coordinator_.get(),
                                        MonotonicClock::Default()));
    RAILGUN_RETURN_IF_ERROR(node_->Start());
    frontend_ = node_->frontend();
    if (options_.remote) {
      server_.reset(new railgun::msg::remote::BusServer(
          railgun::msg::remote::BusServerOptions(), served_bus_));
      RAILGUN_RETURN_IF_ERROR(server_->Start());
      railgun::msg::remote::RemoteBusOptions remote;
      remote.address = server_->address();
      remote_bus_.reset(new railgun::msg::remote::RemoteBus(remote));
      RAILGUN_RETURN_IF_ERROR(remote_bus_->Connect());
      client_frontend_.reset(new engine::FrontEnd(node.frontend, "client0",
                                                  remote_bus_.get(),
                                                  MonotonicClock::Default()));
      RAILGUN_RETURN_IF_ERROR(client_frontend_->Start());
      frontend_ = client_frontend_.get();
    }

    // Same DDL sequence as api::Client: the stream, then one metric at a
    // time, each applied by every unit before the next.
    RAILGUN_ASSIGN_OR_RETURN(railgun::query::StreamSchemaDef schema,
                             railgun::query::ParseCreateStream(
                                 spec.create_stream));
    def_.name = schema.name;
    def_.fields = schema.fields;
    def_.partitioners = schema.partitioners;
    def_.partitions_per_topic = schema.partitions_per_topic;
    RAILGUN_RETURN_IF_ERROR(Register());
    for (const std::string& statement : spec.metrics) {
      RAILGUN_ASSIGN_OR_RETURN(railgun::query::DdlStatement ddl,
                               railgun::query::ParseDdl(statement));
      def_.queries.push_back(ddl.metric);
      RAILGUN_RETURN_IF_ERROR(Register());
    }
    return Status::OK();
  }

  void SubmitBatch(const std::vector<GenEvent>& events,
                   std::vector<Pending>* out) override {
    events_.clear();
    std::vector<engine::FrontEnd::ReplyCallback> callbacks;
    std::vector<std::shared_ptr<Pending::Slot>> slots;
    for (const GenEvent& e : events) {
      events_.push_back(e.event);
      auto slot = std::make_shared<Pending::Slot>();
      slots.push_back(slot);
      callbacks.push_back([slot](Status status,
                                 const std::vector<engine::MetricReply>& r) {
        EventResult result;
        result.status = std::move(status);
        for (const auto& m : r) {
          result.metrics.push_back({m.metric_name, m.group_key, m.value});
        }
        std::lock_guard<std::mutex> lock(slot->mu);
        slot->result = std::move(result);
        slot->ready = true;
        slot->cv.notify_all();
      });
    }
    const double start = NowUs();
    const Status s = frontend_->SubmitBatch(stream_, events_,
                                            std::move(callbacks));
    submit_us_ += NowUs() - start;
    for (auto& slot : slots) {
      if (!s.ok()) {  // Rejected up front: the callbacks never fire.
        std::lock_guard<std::mutex> lock(slot->mu);
        slot->result.status = s;
        slot->ready = true;
      }
      out->emplace_back(slot);
    }
  }

  void Stop() override {
    if (client_frontend_ != nullptr) client_frontend_->Stop();
    client_frontend_.reset();
    remote_bus_.reset();
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    if (node_ != nullptr) node_->Stop();
    node_.reset();
  }

  std::vector<engine::TaskProcessor*> Tasks() override {
    return TasksOf(node_.get());
  }
  size_t FrontEndPending() override { return frontend_->pending_count(); }
  uint64_t Backlog() override { return bus_->BacklogHint(); }

 private:
  Status Register() {
    RAILGUN_RETURN_IF_ERROR(node_->RegisterStream(def_));
    if (client_frontend_ != nullptr) {
      RAILGUN_RETURN_IF_ERROR(client_frontend_->RegisterStream(def_));
    }
    const double deadline = NowUs() + static_cast<double>(kRequestTimeout);
    for (;;) {
      bool pending = false;
      for (int u = 0; u < node_->num_units(); ++u) {
        pending = pending || node_->unit(u)->has_pending_streams();
      }
      if (!pending) return Status::OK();
      if (NowUs() > deadline) {
        return Status::Unavailable("stream registration not applied");
      }
      MonotonicClock::Default()->SleepMicros(railgun::kMicrosPerMilli);
    }
  }

  StackOptions options_;
  std::string stream_;
  engine::StreamDef def_;
  std::vector<railgun::reservoir::Event> events_;
  std::unique_ptr<railgun::msg::InProcessBus> bus_;
  std::unique_ptr<TimedBus> timed_bus_;
  std::unique_ptr<TimedEnv> reservoir_env_;
  std::unique_ptr<TimedEnv> db_env_;
  railgun::msg::Bus* served_bus_ = nullptr;
  std::unique_ptr<engine::Coordinator> coordinator_;
  std::unique_ptr<engine::RailgunNode> node_;
  std::unique_ptr<railgun::msg::remote::BusServer> server_;
  std::unique_ptr<railgun::msg::remote::RemoteBus> remote_bus_;
  std::unique_ptr<engine::FrontEnd> client_frontend_;
  engine::FrontEnd* frontend_ = nullptr;
};

}  // namespace

bool Pending::ready() const {
  if (slot_ == nullptr) return future_.ready();
  std::lock_guard<std::mutex> lock(slot_->mu);
  return slot_->ready;
}

bool Pending::Wait(double timeout_us) const {
  if (slot_ == nullptr) return future_.Wait(static_cast<Micros>(timeout_us));
  std::unique_lock<std::mutex> lock(slot_->mu);
  return slot_->cv.wait_for(
      lock, std::chrono::duration<double, std::micro>(timeout_us),
      [this] { return slot_->ready; });
}

EventResult Pending::Get() const {
  if (slot_ == nullptr) return future_.Get();
  std::unique_lock<std::mutex> lock(slot_->mu);
  slot_->cv.wait(lock, [this] { return slot_->ready; });
  return slot_->result;
}

std::unique_ptr<Stack> NewApiStack(const StackOptions& options) {
  return std::unique_ptr<Stack>(new ApiStack(options));
}

std::unique_ptr<Stack> NewNodeStack(const StackOptions& options,
                                    Decorators* decorators) {
  return std::unique_ptr<Stack>(new NodeStack(options, decorators));
}

}  // namespace perfbench
