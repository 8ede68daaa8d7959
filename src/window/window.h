// Window specifications (paper §3.4): real-time sliding, tumbling and
// infinite time windows, any of which can be delayed; plus count-based
// sliding windows (the extension §3.4 sketches). Hopping windows are
// deliberately absent from Railgun itself — they live in src/baseline.
#ifndef RAILGUN_WINDOW_WINDOW_H_
#define RAILGUN_WINDOW_WINDOW_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/clock.h"

namespace railgun::window {

enum class WindowKind : uint8_t {
  kSliding = 0,
  kTumbling = 1,
  kInfinite = 2,
  kCountSliding = 3,
};

struct WindowSpec {
  WindowKind kind = WindowKind::kSliding;
  Micros size = 0;       // Time extent (sliding/tumbling).
  uint64_t count = 0;    // Event extent (count windows).
  Micros delay = 0;      // `delayed by` offset.

  static WindowSpec Sliding(Micros size, Micros delay = 0) {
    return {WindowKind::kSliding, size, 0, delay};
  }
  static WindowSpec Tumbling(Micros size) {
    return {WindowKind::kTumbling, size, 0, 0};
  }
  static WindowSpec Infinite() {
    return {WindowKind::kInfinite, 0, 0, 0};
  }
  static WindowSpec CountSliding(uint64_t count) {
    return {WindowKind::kCountSliding, 0, count, 0};
  }

  bool operator==(const WindowSpec& other) const {
    return kind == other.kind && size == other.size &&
           count == other.count && delay == other.delay;
  }

  std::string ToString() const;

  // Stable identity used for DAG prefix sharing.
  std::string Key() const;

  // Iterator-sharing identities (paper §4.1.1: aligned windows share
  // iterators). Heads align when the leading edge offset (delay)
  // matches; tails align when the trailing edge offset (delay + size)
  // matches. A count window's head is always the newest event: it
  // ignores `delayed by`.
  Micros HeadOffset() const {
    return kind == WindowKind::kCountSliding ? 0 : delay;
  }
  Micros TailOffset() const { return delay + size; }

  // Whether events ever leave this window (infinite and tumbling
  // windows never expire an event; tumbling ones start a new epoch).
  bool ValuesExpire() const {
    return kind == WindowKind::kSliding || kind == WindowKind::kCountSliding;
  }
};

}  // namespace railgun::window

#endif  // RAILGUN_WINDOW_WINDOW_H_
