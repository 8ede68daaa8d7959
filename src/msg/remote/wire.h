// Binary wire protocol of the remote message bus. One RPC = one request
// frame from client to server and one response frame back, matched by
// correlation id (the client may multiplex connections, the server
// answers in request order per connection).
//
// Frame layout (all integers little-endian / LEB128 varints from
// common/coding):
//
//   [fixed32 body_len][fixed32 masked crc32c(body)][body]
//   body = [varint64 correlation_id][u8 opcode][payload]
//
// Response frames reuse the request opcode with kResponseBit set, and
// their payload always starts with an encoded Status; the result fields
// below follow only when that status is OK. Decoders return
// Status::Corruption for truncated frames, oversized bodies, checksum
// mismatches and malformed payloads — never crash, never trust lengths.
//
// There is one encoding per job and no negotiation. Every connection
// opens with kHello carrying kWireVersion; a server speaking another
// version answers NotSupported and the client fails every call on that
// connection with that status. Each bus request payload must be
// consumed exactly: trailing bytes are Corruption (the one declared
// exception is the produce trace trailer).
//
// Opcode table (str = length-prefixed bytes, tp = [str topic][varint32
// partition], tps = [varint32 n][n x tp], cols = columnar message list,
// see PutColumnarMessageList):
//
//   op  name               request                       OK result
//    1  kCreateTopic       str topic, varint32 parts     -
//    2  kDeleteTopic       str topic                     -
//    3  kNumPartitions     str topic                     varint32 n
//    4  kPartitionsOf      str topic                     tps
//    5  kProduce           str topic, varsint64          varint64 offset
//                          partition (kPartitionByKey
//                          = route by key), str key,
//                          str payload
//    8  kSubscribe         str consumer, str group,      -
//                          varint32 n, n x str topic,
//                          str metadata
//    9  kUnsubscribe       str consumer                  -
//   11  kFetch             tp, varint64 offset,          cols
//                          varint64 max_messages
//   12  kCommit            str consumer, tp,             -
//                          varint64 next_offset
//   13  kSeek              str consumer, tp,             -
//                          varint64 offset
//   14  kEndOffset         tp                            varint64 offset
//   15  kBaseOffset        tp                            varint64 offset
//   16  kKillConsumer      str consumer                  -
//   17  kWakeConsumer      str consumer                  -
//   18  kWake              (empty)                       -
//   19  kAssignmentOf      str consumer                  tps
//   20  kCheckLiveness     (empty)                       -
//   21  kRebalanceCount    (empty)                       varint64 count
//   22  kPollColumnar      str consumer, varint64        tps revoked,
//                          max_messages, varsint64       tps assigned,
//                          max_wait_us                   cols, varint64
//                                                        backlog
//   23  kProduceColumnar   columnar produce batch (see   -
//                          PutColumnarProduceBatch),
//                          then nothing or exactly one
//                          trace::kTraceTrailerSize
//                          trailer
//   24  kHello             varint32 kWireVersion         -
//
// Retired numbers (6, 7, 10) are never reused. Services co-hosted with
// the bus answer through BusServer's extension handler, under the same
// exact-consumption rule: kMeta* (payloads in meta/) and kSub* (40-42,
// payloads in ops/sub_wire.h). A server without the handler answers
// those NotSupported.
//
//   32  kMetaAnnounce      node announcement             varsint64 lease,
//                                                        varint64 gen
//   33  kMetaHeartbeat     str node                      varint64 gen
//   34  kMetaLeave         str node                      -
//   35  kMetaGetView       (empty)                       cluster view
//   36  kMetaGetStream     str stream                    stream def
//   37  kMetaListStreams   (empty)                       varint32 n,
//                                                        n x stream def
//   38  kMetaDdl           str statement                 -
//
// kMetaDdl returns once every broker-local unit applied the statement,
// so clients send it on a connection of its own (RemoteBus lanes).
#ifndef RAILGUN_MSG_REMOTE_WIRE_H_
#define RAILGUN_MSG_REMOTE_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "msg/batch.h"
#include "msg/bus.h"
#include "msg/buffer_pool.h"
#include "msg/message.h"
#include "msg/remote/socket.h"

namespace railgun::msg::remote {

// Frames larger than this are rejected as corrupt: nothing the bus
// exchanges legitimately approaches it, and it bounds what a broken (or
// hostile) peer can make the other side allocate.
constexpr uint32_t kMaxFrameBody = 64u << 20;

constexpr size_t kFrameHeaderSize = 8;  // body_len + masked crc.

constexpr uint8_t kResponseBit = 0x80;

// Version announced by kHello. Bump it on any change to the opcode
// table at the top of this file; peers of different versions refuse
// each other.
constexpr uint32_t kWireVersion = 2;

// kProduce's partition field for "route by key" (Bus::Produce).
constexpr int64_t kPartitionByKey = -1;

enum class OpCode : uint8_t {
  kCreateTopic = 1,
  kDeleteTopic = 2,
  kNumPartitions = 3,
  kPartitionsOf = 4,
  kProduce = 5,
  kSubscribe = 8,
  kUnsubscribe = 9,
  kFetch = 11,
  kCommit = 12,
  kSeek = 13,
  kEndOffset = 14,
  kBaseOffset = 15,
  kKillConsumer = 16,
  kWakeConsumer = 17,
  kWake = 18,
  kAssignmentOf = 19,
  kCheckLiveness = 20,
  kRebalanceCount = 21,
  kPollColumnar = 22,
  kProduceColumnar = 23,
  kHello = 24,

  // Metadata-service RPCs (src/meta/). Opcodes stay below kResponseBit
  // so the response-bit convention holds.
  kMetaAnnounce = 32,
  kMetaHeartbeat = 33,
  kMetaLeave = 34,
  kMetaGetView = 35,
  kMetaGetStream = 36,
  kMetaListStreams = 37,
  kMetaDdl = 38,

  // Live subscriptions (src/ops/subscription.h).
  kSubCreate = 40,
  kSubFetch = 41,
  kSubCancel = 42,
};

struct Frame {
  uint64_t correlation_id = 0;
  uint8_t opcode = 0;
  std::string payload;
};

// Zero-copy variant: the payload is a view into storage the caller owns
// (a pooled receive buffer, or the request body an Encode produced).
struct FrameView {
  uint64_t correlation_id = 0;
  uint8_t opcode = 0;
  Slice payload;
};

// Appends the full wire encoding (header + body) of one frame.
void EncodeFrame(const Frame& frame, std::string* out);

// Parses one frame from *in, advancing past it on success.
Status DecodeFrame(Slice* in, Frame* out);

// Validates and parses a frame body whose header was already consumed
// (the socket path reads header and body separately).
Status DecodeBody(const Slice& body, uint32_t masked_crc, Frame* out);

// Reads exactly one frame off a blocking socket: header, bounds check,
// body, checksum. Unavailable for transport failures, Corruption for
// framing violations (after which the stream cannot be trusted).
Status ReadFrame(Socket* sock, Frame* out);

// Like DecodeBody but without copying the payload: *out views into
// `body`, which must stay alive while *out is used.
Status DecodeBodyView(const Slice& body, uint32_t masked_crc,
                      FrameView* out);

// Zero-copy ReadFrame: the body lands in a buffer leased from *pool and
// *out views into it. The caller keeps *buffer alive for as long as any
// view derived from *out is; dropping the last ref recycles the buffer.
Status ReadFramePooled(Socket* sock, BufferPool* pool, BufferRef* buffer,
                       FrameView* out);

// ----- Payload building blocks shared by RemoteBus and BusServer -----

void PutStatus(std::string* out, const Status& status);
bool GetStatus(Slice* in, Status* status);

void PutTopicPartition(std::string* out, const TopicPartition& tp);
bool GetTopicPartition(Slice* in, TopicPartition* tp);

void PutTopicPartitionList(std::string* out,
                           const std::vector<TopicPartition>& tps);
bool GetTopicPartitionList(Slice* in, std::vector<TopicPartition>* tps);

// ----- Columnar batch forms (kPollColumnar, kFetch, kProduceColumnar) -----
//
// A columnar message list groups consecutive messages sharing
// (topic, partition) — preserving global order — and transposes each
// group into per-column arrays:
//
//   varint32 ngroups
//   per group: [len-prefixed topic][varint32 partition][varint32 n]
//     [varint64 offset_0][(n-1) x varsint64 offset delta]
//     [varsint64 publish_0][(n-1) x varsint64 delta]
//     [varsint64 visible_0][(n-1) x varsint64 delta]
//     [n x varint32 key_len][concatenated key bytes]
//     [n x varint32 payload_len][concatenated payload bytes]
//
// Every length is validated against the remaining input before any
// array is walked; mismatched column lengths fail the decode (mapped to
// Corruption by callers), never read out of bounds.
void PutColumnarMessageList(std::string* out,
                            const std::vector<Message>& messages);
// Appends zero-copy views into out (topic shared per group). Storage
// behind *in must outlive the batch's views.
bool GetColumnarMessageList(Slice* in, MessageBatch* out);

// Columnar produce payload: [len-prefixed topic][varint32 n]
//   [n x varint32 key_len][key bytes][n x varint32 payload_len][bytes].
void PutColumnarProduceBatch(std::string* out, const std::string& topic,
                             const std::vector<ProduceRecord>& records);
bool GetColumnarProduceBatch(Slice* in, std::string* topic,
                             std::vector<ProduceRecord>* records);

}  // namespace railgun::msg::remote

#endif  // RAILGUN_MSG_REMOTE_WIRE_H_
