#include "msg/remote/bus_server.h"

#include <utility>

#include "common/coding.h"
#include "trace/trace_context.h"

namespace railgun::msg::remote {

BusServer::BusServer(const BusServerOptions& options, Bus* bus)
    : options_(options), bus_(bus) {}

BusServer::~BusServer() { Stop(); }

Status BusServer::Start() {
  RAILGUN_ASSIGN_OR_RETURN(listener_,
                           ListenSocket::Listen(options_.host, options_.port));
  port_ = listener_.port();
  running_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void BusServer::Stop() {
  if (!running_.exchange(false)) return;
  listener_.Close();  // Unblocks the parked accept.
  {
    MutexLock lock(&mu_);
    for (auto& [id, sock] : conns_) sock->ShutdownBoth();
  }
  // Unpark server-side blocking Polls so their connection threads notice
  // the shut-down sockets. The wake is level-triggered and consumed, so
  // local consumers of the same bus just re-scan once.
  bus_->Wake();
  if (accept_thread_.joinable()) accept_thread_.join();
  MutexLock lock(&mu_);
  conns_drained_.Wait(&mu_, [this] { return live_connections_ == 0; });
}

void BusServer::AcceptLoop() {
  while (running_) {
    auto accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (!running_) return;
      continue;  // Transient accept failure; keep serving.
    }
    auto sock = std::make_shared<Socket>(std::move(accepted).value());
    MutexLock lock(&mu_);
    if (!running_) return;
    const uint64_t conn_id = next_conn_id_++;
    conns_[conn_id] = sock;
    ++live_connections_;
    // Detached: each connection reaps itself on exit (long-running
    // servers see connection churn); Stop() waits for the live count
    // to drain, so no thread outlives the server.
    std::thread([this, conn_id, sock] {
      ServeConnection(conn_id, sock);
    }).detach();
  }
}

void BusServer::ServeConnection(uint64_t conn_id,
                                std::shared_ptr<Socket> sock) {
  std::string encoded;
  while (running_) {
    BufferRef buffer;
    FrameView request;
    // A framing failure (bad length or checksum) means the byte stream
    // itself can't be trusted; drop the connection rather than guess.
    // The body lands in a pooled buffer that recycles when `buffer`
    // drops at the end of the iteration — per-frame heap traffic is
    // zero once the pool is warm.
    if (!ReadFramePooled(sock.get(), &pool_, &buffer, &request).ok()) break;
    const Frame response = HandleRequest(request);
    encoded.clear();
    EncodeFrame(response, &encoded);
    if (!sock->SendAll(encoded.data(), encoded.size()).ok()) break;
  }
  sock->Close();
  MutexLock lock(&mu_);
  conns_.erase(conn_id);
  --live_connections_;
  conns_drained_.NotifyAll();
}

std::shared_ptr<BusServer::RebalanceBuffer> BusServer::BufferFor(
    const std::string& consumer_id) {
  MutexLock lock(&mu_);
  auto& buffer = rebalances_[consumer_id];
  if (buffer == nullptr) buffer = std::make_shared<RebalanceBuffer>();
  return buffer;
}

Frame BusServer::HandleRequest(const Frame& request) {
  FrameView view;
  view.correlation_id = request.correlation_id;
  view.opcode = request.opcode;
  view.payload = Slice(request.payload);
  return HandleRequest(view);
}

Frame BusServer::HandleRequest(const FrameView& request) {
  Frame response;
  response.correlation_id = request.correlation_id;
  response.opcode = request.opcode | kResponseBit;

  Slice in = request.payload;
  Status status;
  std::string result;  // RPC-specific fields, appended after the status.
  // Every case parses its declared fields, then requires `in` to be
  // fully consumed before executing anything.
  bool parsed = true;

  switch (static_cast<OpCode>(request.opcode)) {
    case OpCode::kCreateTopic: {
      Slice topic;
      uint32_t partitions;
      if ((parsed = GetLengthPrefixedSlice(&in, &topic) &&
                    GetVarint32(&in, &partitions) &&
                    partitions <= static_cast<uint32_t>(INT32_MAX) &&
                    in.empty())) {
        status = bus_->CreateTopic(topic.ToString(),
                                   static_cast<int>(partitions));
      }
      break;
    }
    case OpCode::kDeleteTopic: {
      Slice topic;
      if ((parsed = GetLengthPrefixedSlice(&in, &topic) && in.empty())) {
        status = bus_->DeleteTopic(topic.ToString());
      }
      break;
    }
    case OpCode::kNumPartitions: {
      Slice topic;
      if ((parsed = GetLengthPrefixedSlice(&in, &topic) && in.empty())) {
        auto n = bus_->NumPartitions(topic.ToString());
        status = n.status();
        if (n.ok()) PutVarint32(&result, static_cast<uint32_t>(n.value()));
      }
      break;
    }
    case OpCode::kPartitionsOf: {
      Slice topic;
      if ((parsed = GetLengthPrefixedSlice(&in, &topic) && in.empty())) {
        PutTopicPartitionList(&result, bus_->PartitionsOf(topic.ToString()));
      }
      break;
    }
    case OpCode::kProduce: {
      Slice topic, key, payload;
      int64_t partition;
      if ((parsed = GetLengthPrefixedSlice(&in, &topic) &&
                    GetVarsint64(&in, &partition) &&
                    (partition == kPartitionByKey ||
                     (partition >= 0 && partition <= INT32_MAX)) &&
                    GetLengthPrefixedSlice(&in, &key) &&
                    GetLengthPrefixedSlice(&in, &payload) && in.empty())) {
        auto offset =
            partition == kPartitionByKey
                ? bus_->Produce(topic.ToString(), key.ToString(),
                                payload.ToString())
                : bus_->ProduceToPartition(
                      topic.ToString(), static_cast<int>(partition),
                      key.ToString(), payload.ToString());
        status = offset.status();
        if (offset.ok()) PutVarint64(&result, offset.value());
      }
      break;
    }
    case OpCode::kProduceColumnar: {
      std::string topic;
      std::vector<ProduceRecord> records;
      trace::TraceContext trace_ctx;
      parsed = GetColumnarProduceBatch(&in, &topic, &records);
      if (parsed && !in.empty()) {
        // After the records: nothing, or exactly one verified trace
        // trailer, under which the hosted bus's append span links.
        if (in.size() == trace::kTraceTrailerSize) {
          trace_ctx = trace::ParseTraceTrailer(in);
        }
        parsed = trace_ctx.valid();
      }
      if (parsed) {
        const trace::ScopedTraceContext scope(trace_ctx);
        status = bus_->ProduceBatch(topic, std::move(records));
        if (status.ok()) {
          columnar_batches_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      break;
    }
    case OpCode::kSubscribe: {
      Slice consumer, group, metadata;
      uint32_t n = 0;
      std::vector<std::string> topics;
      parsed = GetLengthPrefixedSlice(&in, &consumer) &&
               GetLengthPrefixedSlice(&in, &group) && GetVarint32(&in, &n);
      for (uint32_t i = 0; parsed && i < n; ++i) {
        Slice topic;
        if ((parsed = GetLengthPrefixedSlice(&in, &topic))) {
          topics.push_back(topic.ToString());
        }
      }
      parsed = parsed && GetLengthPrefixedSlice(&in, &metadata) && in.empty();
      if (parsed) {
        // The buffering listener feeds rebalances into this consumer's
        // Poll responses; the client-side strategy cannot cross the
        // wire, so the group runs the server default.
        auto buffer = BufferFor(consumer.ToString());
        RebalanceListener listener;
        listener.on_revoked =
            [buffer](const std::vector<TopicPartition>& revoked) {
              MutexLock lock(&buffer->mu);
              buffer->revoked.insert(buffer->revoked.end(), revoked.begin(),
                                     revoked.end());
            };
        listener.on_assigned =
            [buffer](const std::vector<TopicPartition>& assigned) {
              MutexLock lock(&buffer->mu);
              buffer->assigned.insert(buffer->assigned.end(),
                                      assigned.begin(), assigned.end());
            };
        status = bus_->Subscribe(consumer.ToString(), group.ToString(),
                                 topics, metadata.ToString(), nullptr,
                                 std::move(listener));
      }
      break;
    }
    case OpCode::kUnsubscribe: {
      Slice consumer;
      if ((parsed = GetLengthPrefixedSlice(&in, &consumer) && in.empty())) {
        status = bus_->Unsubscribe(consumer.ToString());
        MutexLock lock(&mu_);
        rebalances_.erase(consumer.ToString());
      }
      break;
    }
    case OpCode::kPollColumnar: {
      Slice consumer;
      uint64_t max_messages;
      int64_t max_wait;
      if ((parsed = GetLengthPrefixedSlice(&in, &consumer) &&
                    GetVarint64(&in, &max_messages) &&
                    GetVarsint64(&in, &max_wait) && in.empty())) {
        std::vector<Message> messages;
        status = bus_->Poll(consumer.ToString(),
                            static_cast<size_t>(max_messages), &messages,
                            max_wait);
        if (status.ok()) {
          std::vector<TopicPartition> revoked, assigned;
          auto buffer = BufferFor(consumer.ToString());
          {
            MutexLock lock(&buffer->mu);
            revoked.swap(buffer->revoked);
            assigned.swap(buffer->assigned);
          }
          PutTopicPartitionList(&result, revoked);
          PutTopicPartitionList(&result, assigned);
          PutColumnarMessageList(&result, messages);
          PutVarint64(&result, bus_->BacklogHint());
          columnar_batches_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      break;
    }
    case OpCode::kFetch: {
      TopicPartition tp;
      uint64_t offset, max_messages;
      if ((parsed = GetTopicPartition(&in, &tp) &&
                    GetVarint64(&in, &offset) &&
                    GetVarint64(&in, &max_messages) && in.empty())) {
        std::vector<Message> messages;
        status = bus_->Fetch(tp, offset, static_cast<size_t>(max_messages),
                             &messages);
        if (status.ok()) PutColumnarMessageList(&result, messages);
      }
      break;
    }
    case OpCode::kCommit:
    case OpCode::kSeek: {
      Slice consumer;
      TopicPartition tp;
      uint64_t offset;
      if ((parsed = GetLengthPrefixedSlice(&in, &consumer) &&
                    GetTopicPartition(&in, &tp) &&
                    GetVarint64(&in, &offset) && in.empty())) {
        status = static_cast<OpCode>(request.opcode) == OpCode::kCommit
                     ? bus_->Commit(consumer.ToString(), tp, offset)
                     : bus_->Seek(consumer.ToString(), tp, offset);
      }
      break;
    }
    case OpCode::kEndOffset:
    case OpCode::kBaseOffset: {
      TopicPartition tp;
      if ((parsed = GetTopicPartition(&in, &tp) && in.empty())) {
        auto offset = static_cast<OpCode>(request.opcode) == OpCode::kEndOffset
                          ? bus_->EndOffset(tp)
                          : bus_->BaseOffset(tp);
        status = offset.status();
        if (offset.ok()) PutVarint64(&result, offset.value());
      }
      break;
    }
    case OpCode::kKillConsumer: {
      Slice consumer;
      if ((parsed = GetLengthPrefixedSlice(&in, &consumer) && in.empty())) {
        status = bus_->KillConsumer(consumer.ToString());
      }
      break;
    }
    case OpCode::kWakeConsumer: {
      Slice consumer;
      if ((parsed = GetLengthPrefixedSlice(&in, &consumer) && in.empty())) {
        status = bus_->WakeConsumer(consumer.ToString());
      }
      break;
    }
    case OpCode::kWake:
      if ((parsed = in.empty())) bus_->Wake();
      break;
    case OpCode::kCheckLiveness:
      if ((parsed = in.empty())) bus_->CheckLiveness();
      break;
    case OpCode::kAssignmentOf: {
      Slice consumer;
      if ((parsed = GetLengthPrefixedSlice(&in, &consumer) && in.empty())) {
        PutTopicPartitionList(&result, bus_->AssignmentOf(consumer.ToString()));
      }
      break;
    }
    case OpCode::kRebalanceCount:
      if ((parsed = in.empty())) {
        PutVarint64(&result, bus_->rebalance_count());
      }
      break;
    case OpCode::kHello: {
      uint32_t version;
      if ((parsed = GetVarint32(&in, &version) && in.empty()) &&
          version != kWireVersion) {
        status = Status::NotSupported(
            "wire version mismatch: peer speaks v" + std::to_string(version) +
            ", server speaks v" + std::to_string(kWireVersion));
      }
      break;
    }
    default:
      if (extension_ == nullptr ||
          !extension_(request.opcode, in, &status, &result)) {
        // The frame passed CRC and framing, so this is a protocol
        // mismatch (e.g. a newer client's RPC), not line corruption.
        status = Status::NotSupported("unknown opcode " +
                                      std::to_string(request.opcode));
      }
      break;
  }
  if (!parsed) status = Status::Corruption("malformed request payload");

  PutStatus(&response.payload, status);
  if (status.ok()) response.payload.append(result);
  return response;
}

}  // namespace railgun::msg::remote
