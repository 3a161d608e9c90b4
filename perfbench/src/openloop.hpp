// Open-loop load generation for the service workload.
//
// Event i is due at start + i / rate, whatever the system is doing. The
// generator offers every event that is due when it gets to run, so a
// stall (in the generator or in the system under test) is charged to the
// events that waited for it:
//   - lateness of a burst  = time it was offered - due time of its oldest
//     event (how far the generator ran behind its schedule);
//   - latency of a window  = time it was emitted - due time of its last
//     event (not the time that event was offered).
// Both are timed from the schedule, never from the send.
#pragma once

#include <cstdint>

namespace perfbench {

/// One ingested element: a value and the time it was due, stamped by the
/// generator from the schedule.
struct Event {
  double value = 0.0;
  std::int64_t due_ns = 0;
};

/// One window result: the fold of its events, the due time of its last
/// event, and when the collector's finish() emitted it.
struct WindowOut {
  double sum = 0.0;
  std::int64_t last_due_ns = 0;
  std::int64_t emitted_ns = 0;
};

inline std::int64_t window_latency_ns(const WindowOut& w) {
  return w.emitted_ns - w.last_due_ns;
}

class OpenLoopSchedule {
 public:
  OpenLoopSchedule(std::int64_t start_ns, double events_per_s)
      : start_ns_(start_ns), ns_per_event_(1e9 / events_per_s) {}

  std::int64_t due_ns(std::uint64_t i) const {
    return start_ns_ +
           static_cast<std::int64_t>(static_cast<double>(i) * ns_per_event_);
  }

  /// Number of events due at or before `now_ns` (events 0 .. n-1).
  std::uint64_t due_by(std::int64_t now_ns) const {
    if (now_ns < start_ns_) return 0;
    const double elapsed = static_cast<double>(now_ns - start_ns_);
    std::uint64_t n = static_cast<std::uint64_t>(elapsed / ns_per_event_) + 1;
    // Correct the float division at the boundary so due_ns(n-1) <= now.
    while (n > 0 && due_ns(n - 1) > now_ns) --n;
    while (due_ns(n) <= now_ns) ++n;
    return n;
  }

 private:
  std::int64_t start_ns_;
  double ns_per_event_;
};

/// One generator burst: events [next, end) are stamped with their due
/// times and handed to `offer(i, due_ns)` at `now_ns`. Returns how late
/// the burst ran: now minus the due time of its oldest event, the
/// generator's lag behind its schedule at that moment.
template <typename Offer>
std::int64_t offer_due(const OpenLoopSchedule& schedule, std::uint64_t next,
                       std::uint64_t end, std::int64_t now_ns,
                       Offer&& offer) {
  for (std::uint64_t i = next; i < end; ++i) offer(i, schedule.due_ns(i));
  return now_ns - schedule.due_ns(next);
}

}  // namespace perfbench
