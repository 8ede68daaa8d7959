#include "ops/sub_wire.h"

#include <algorithm>

#include "common/coding.h"
#include "engine/stream_def.h"

namespace railgun::ops {

namespace {

// Caps a decoded count against the bytes actually available, so a
// corrupt frame cannot make reserve() allocate unbounded memory.
constexpr uint32_t kMaxReasonableCount = 1 << 20;

}  // namespace

void EncodeSubCreateRequest(const SubCreateRequest& req, std::string* out) {
  PutLengthPrefixedSlice(out, req.statement);
}

Status DecodeSubCreateRequest(const Slice& data, SubCreateRequest* req) {
  Slice in = data;
  Slice statement;
  if (!GetLengthPrefixedSlice(&in, &statement) || !in.empty()) {
    return Status::Corruption("bad subscribe request");
  }
  req->statement = statement.ToString();
  return Status::OK();
}

void EncodeSubCreateReply(const SubCreateReply& reply, std::string* out) {
  PutFixed64(out, reply.sub_id);
}

Status DecodeSubCreateReply(const Slice& data, SubCreateReply* reply) {
  Slice in = data;
  if (!GetFixed64(&in, &reply->sub_id)) {
    return Status::Corruption("bad subscribe reply");
  }
  return Status::OK();
}

void EncodeSubFetchRequest(const SubFetchRequest& req, std::string* out) {
  PutFixed64(out, req.sub_id);
  PutVarint64(out, req.acked_seq);
  PutVarint32(out, req.max_records);
  PutVarint64(out, static_cast<uint64_t>(req.max_wait_us));
}

Status DecodeSubFetchRequest(const Slice& data, SubFetchRequest* req) {
  Slice in = data;
  uint64_t max_wait;
  if (!GetFixed64(&in, &req->sub_id) || !GetVarint64(&in, &req->acked_seq) ||
      !GetVarint32(&in, &req->max_records) || !GetVarint64(&in, &max_wait) ||
      !in.empty()) {
    return Status::Corruption("bad subscription fetch request");
  }
  req->max_wait_us = static_cast<Micros>(max_wait);
  return Status::OK();
}

void EncodeSubFetchReply(const SubFetchReply& reply, std::string* out) {
  PutVarint64(out, reply.dropped_total);
  PutVarint64(out, reply.lag);
  PutVarint32(out, static_cast<uint32_t>(reply.records.size()));
  for (const auto& record : reply.records) {
    PutVarint64(out, record.seq);
    PutVarint64(out, static_cast<uint64_t>(record.timestamp));
    PutVarint32(out, static_cast<uint32_t>(record.fields.size()));
    for (const auto& [name, value] : record.fields) {
      PutLengthPrefixedSlice(out, name);
      engine::EncodeFieldValue(value, out);
    }
  }
}

Status DecodeSubFetchReply(const Slice& data, SubFetchReply* reply) {
  Slice in = data;
  uint32_t num_records;
  if (!GetVarint64(&in, &reply->dropped_total) ||
      !GetVarint64(&in, &reply->lag) || !GetVarint32(&in, &num_records) ||
      num_records > kMaxReasonableCount) {
    return Status::Corruption("bad subscription fetch reply");
  }
  reply->records.clear();
  reply->records.reserve(std::min<size_t>(num_records, in.size()));
  for (uint32_t i = 0; i < num_records; ++i) {
    SubRecord record;
    uint64_t timestamp;
    uint32_t num_fields;
    if (!GetVarint64(&in, &record.seq) || !GetVarint64(&in, &timestamp) ||
        !GetVarint32(&in, &num_fields) || num_fields > in.size()) {
      return Status::Corruption("bad subscription record");
    }
    record.timestamp = static_cast<Micros>(timestamp);
    record.fields.reserve(num_fields);
    for (uint32_t f = 0; f < num_fields; ++f) {
      Slice name;
      reservoir::FieldValue value;
      if (!GetLengthPrefixedSlice(&in, &name)) {
        return Status::Corruption("bad subscription record field");
      }
      RAILGUN_RETURN_IF_ERROR(engine::DecodeFieldValue(&in, &value));
      record.fields.emplace_back(name.ToString(), std::move(value));
    }
    reply->records.push_back(std::move(record));
  }
  return Status::OK();
}

void EncodeSubCancelRequest(const SubCancelRequest& req, std::string* out) {
  PutFixed64(out, req.sub_id);
}

Status DecodeSubCancelRequest(const Slice& data, SubCancelRequest* req) {
  Slice in = data;
  if (!GetFixed64(&in, &req->sub_id) || !in.empty()) {
    return Status::Corruption("bad subscription cancel request");
  }
  return Status::OK();
}

}  // namespace railgun::ops
