// Periodic scrub scheduler, driven by the discrete-event queue.
//
// Real SEU-hardened systems re-walk their configuration memory on a fixed
// period. Two flavours are modelled:
//  - Blind: rewrite every region's resident module each tick (classic
//    flow-through scrubbing; simple, port-hungry).
//  - ReadbackTriggered: readback-verify first, rewrite only regions whose
//    frames actually differ (cheaper on the port, pays the readback).
//
// The scheduler self-reschedules forever; bound a campaign with
// EventQueue::run(horizon).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "rtr/manager.hpp"
#include "sim/event_queue.hpp"
#include "util/units.hpp"

namespace pdr::fault {

struct ScrubStats {
  int ticks = 0;            ///< scheduler wake-ups
  int scrubs = 0;           ///< region rewrites issued
  int frames_repaired = 0;  ///< corrupted frames found before a rewrite
};

class ScrubScheduler {
 public:
  enum class Mode { Blind, ReadbackTriggered };

  /// Called after each completed scrub: `done` is the rewrite's completion
  /// time, `repaired` the corrupted frames it erased.
  using ScrubCallback =
      std::function<void(const std::string& region, TimeNs done, int repaired)>;

  ScrubScheduler(sim::EventQueue& queue, rtr::ReconfigManager& manager,
                 std::vector<std::string> regions, TimeNs period, Mode mode = Mode::Blind);

  /// Schedules the first tick one period from the queue's current time.
  void start();

  void set_on_scrub(ScrubCallback callback) { on_scrub_ = std::move(callback); }

  const ScrubStats& stats() const { return stats_; }

 private:
  void tick(TimeNs now);

  sim::EventQueue& queue_;
  rtr::ReconfigManager& manager_;
  std::vector<std::string> regions_;
  TimeNs period_;
  Mode mode_;
  ScrubStats stats_;
  ScrubCallback on_scrub_;
};

}  // namespace pdr::fault
