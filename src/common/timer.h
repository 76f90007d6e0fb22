#ifndef ALID_COMMON_TIMER_H_
#define ALID_COMMON_TIMER_H_

#include <chrono>

namespace alid {

/// Simple monotonic wall-clock timer used by the benchmark harness.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Restarts the timer.
  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace alid

#endif  // ALID_COMMON_TIMER_H_
