// Wire messages for live subscriptions (opcodes kSubCreate / kSubFetch
// / kSubCancel in msg/remote/wire.h). The client ships the SUBSCRIBE
// statement verbatim (like DDL: both sides agree with the parser, and
// the text is the only versioned surface); the hub answers with a
// subscription id, then the client long-polls for record batches,
// acknowledging the highest sequence it has consumed. Records are
// self-describing (named, tagged field values) so a subscriber needs no
// schema exchange.
//
// Backpressure contract (see DESIGN.md "Operator pipelines &
// subscriptions"): the hub buffers at most queue_capacity records per
// subscription; when a slow subscriber lets the queue fill, the OLDEST
// records are evicted and counted in `dropped_total` — the tail stays
// live, lag is observable, memory is bounded.
//
// Request decoders require the payload to be exactly the declared
// fields: trailing bytes are Corruption, like every bus opcode.
#ifndef RAILGUN_OPS_SUB_WIRE_H_
#define RAILGUN_OPS_SUB_WIRE_H_

#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/slice.h"
#include "common/status.h"
#include "reservoir/event.h"

namespace railgun::ops {

// One pushed row: a raw tailed event or one metric update.
struct SubRecord {
  uint64_t seq = 0;  // Per-subscription, contiguous from 1. Gaps after
                     // eviction tell the subscriber how much it lost.
  Micros timestamp = 0;
  std::vector<std::pair<std::string, reservoir::FieldValue>> fields;
};

struct SubCreateRequest {
  std::string statement;  // The SUBSCRIBE ... text.
};

struct SubCreateReply {
  uint64_t sub_id = 0;
};

struct SubFetchRequest {
  uint64_t sub_id = 0;
  // Highest seq the subscriber has consumed; the hub trims its queue up
  // to it (records at or below are never redelivered).
  uint64_t acked_seq = 0;
  uint32_t max_records = 0;
  Micros max_wait_us = 0;  // Long-poll budget (server-capped).
};

struct SubFetchReply {
  std::vector<SubRecord> records;
  uint64_t dropped_total = 0;  // Lifetime evictions for this sub.
  uint64_t lag = 0;            // Records still queued after this batch.
};

struct SubCancelRequest {
  uint64_t sub_id = 0;
};

void EncodeSubCreateRequest(const SubCreateRequest& req, std::string* out);
Status DecodeSubCreateRequest(const Slice& data, SubCreateRequest* req);

void EncodeSubCreateReply(const SubCreateReply& reply, std::string* out);
Status DecodeSubCreateReply(const Slice& data, SubCreateReply* reply);

void EncodeSubFetchRequest(const SubFetchRequest& req, std::string* out);
Status DecodeSubFetchRequest(const Slice& data, SubFetchRequest* req);

void EncodeSubFetchReply(const SubFetchReply& reply, std::string* out);
Status DecodeSubFetchReply(const Slice& data, SubFetchReply* reply);

void EncodeSubCancelRequest(const SubCancelRequest& req, std::string* out);
Status DecodeSubCancelRequest(const Slice& data, SubCancelRequest* req);

}  // namespace railgun::ops

#endif  // RAILGUN_OPS_SUB_WIRE_H_
