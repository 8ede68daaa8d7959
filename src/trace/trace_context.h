// Trace context: the identity one request carries across every hop —
// a 128-bit trace id minted at api::Client::Submit*, the span id of the
// most recently recorded hop (the parent for the next one), and a
// sampled flag decided once at the root by the head sampler.
//
// The context crosses process and layer boundaries as a fixed-size
// *trailer* appended after a payload's own fields (event envelopes,
// reply envelopes, remote produce request bodies). Every decoder in the
// codebase parses its payload front-to-back and ignores unconsumed
// bytes, so peers predating the trailer interop for free; peers that
// know it parse the tail. A trailer is only trusted when its magic and
// checksum both verify — truncation or bit flips degrade to "no
// context" (unsampled), never to a decode error. The remote produce
// request (msg/remote/wire.h) is stricter: there the trailer is a
// declared field, and anything else after the records is Corruption.
#ifndef RAILGUN_TRACE_TRACE_CONTEXT_H_
#define RAILGUN_TRACE_TRACE_CONTEXT_H_

#include <cstdint>
#include <string>

#include "common/slice.h"

namespace railgun::trace {

struct TraceContext {
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  // Id of the last recorded span of this trace on this path; the next
  // recorded span parents under it. At the root it is the id the
  // client.submit span itself will use.
  uint64_t span_id = 0;
  uint8_t flags = 0;  // Bit 0: sampled.

  static constexpr uint8_t kSampledFlag = 0x01;

  bool valid() const { return (trace_hi | trace_lo) != 0; }
  bool sampled() const { return (flags & kSampledFlag) != 0; }
};

// Trailer layout (27 bytes, all fixed-width so corrupt bytes can never
// desynchronize a varint scan):
//   [u8 magic][fixed64 trace_hi][fixed64 trace_lo][fixed64 span_id]
//   [u8 flags][u8 checksum]
// checksum = xor of the preceding 26 bytes, xor 0x5a (so an all-zero
// tail never verifies).
constexpr uint8_t kTraceTrailerMagic = 0xC7;
constexpr size_t kTraceTrailerSize = 27;

// Appends the trailer for `ctx` to *out. No-op for invalid contexts.
void AppendTraceTrailer(const TraceContext& ctx, std::string* out);

// Parses a trailer from the *unconsumed remainder* of a payload decode.
// The trailer is expected to be the last kTraceTrailerSize bytes of
// `rest` (unknown future fields before it are tolerated). Absent,
// truncated or corrupt trailers yield an invalid context.
TraceContext ParseTraceTrailer(const Slice& rest);

// Thread-local ambient context, for hops that cannot thread a context
// through their signature (the broker recording an append span under a
// produce call). Also stamps the logging layer's thread trace id so
// RAILGUN_LOG lines inside the scope correlate.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

// The innermost ScopedTraceContext's context, or an invalid one.
const TraceContext& CurrentTraceContext();

}  // namespace railgun::trace

#endif  // RAILGUN_TRACE_TRACE_CONTEXT_H_
