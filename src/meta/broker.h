// The broker process in a box: an engine::Cluster (by default with zero
// local nodes — pure coordination), the BusServer exposing its message
// bus over TCP, and the MetadataService answering membership, schema
// and DDL RPCs through the server's extension hook.
//
// A multi-process Railgun deployment is one Broker process, N
// railgun_noded worker processes (meta::WorkerNode) joining it, and M
// api::Client processes attaching with ClientOptions::remote_address —
// the paper's N-machine topology with this process standing in for
// Kafka + the coordination plane.
#ifndef RAILGUN_META_BROKER_H_
#define RAILGUN_META_BROKER_H_

#include <memory>
#include <string>

#include "engine/cluster.h"
#include "meta/metadata_service.h"
#include "msg/remote/bus_server.h"

namespace railgun::meta {

struct BrokerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral; Broker::port() reports the bound one.
  // The hosted cluster. Defaults to zero local nodes: all processing
  // capacity joins as worker processes. Set num_nodes > 0 to colocate
  // engine nodes with the broker (the PR 3 hub-and-spoke shape).
  engine::ClusterOptions cluster;
  MetadataServiceOptions meta;

  BrokerOptions() {
    cluster.num_nodes = 0;
    cluster.base_dir = "/tmp/railgun-broker";
  }
};

class Broker {
 public:
  explicit Broker(const BrokerOptions& options);
  ~Broker();

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  Status Start();
  void Stop();

  int port() const { return server_->port(); }
  // "host:port" for ClientOptions::remote_address / WorkerNodeOptions.
  std::string address() const { return server_->address(); }

  engine::Cluster* cluster() { return cluster_.get(); }
  MetadataService* metadata() { return meta_.get(); }
  msg::remote::BusServer* bus_server() { return server_.get(); }

 private:
  BrokerOptions options_;
  std::unique_ptr<engine::Cluster> cluster_;
  std::unique_ptr<msg::remote::BusServer> server_;
  std::unique_ptr<MetadataService> meta_;
  bool started_ = false;
};

}  // namespace railgun::meta

#endif  // RAILGUN_META_BROKER_H_
