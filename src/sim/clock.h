#ifndef SMARTSSD_SIM_CLOCK_H_
#define SMARTSSD_SIM_CLOCK_H_

#include "common/macros.h"
#include "common/units.h"

namespace smartssd::sim {

// Monotonic virtual clock. All timing in the simulator is virtual: devices
// advance this clock according to their bandwidth/latency models, and real
// bytes move through real buffers while the clock advances. Wall-clock time
// plays no role in any reported measurement.
class Clock {
 public:
  Clock() = default;
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(Clock);

  SimTime now() const { return now_; }

  // Moves the clock forward to `t`. Moving backwards is a programmer error.
  void AdvanceTo(SimTime t) {
    SMARTSSD_CHECK_GE(t, now_);
    now_ = t;
  }

  void Reset() { now_ = 0; }

 private:
  SimTime now_ = 0;
};

}  // namespace smartssd::sim

#endif  // SMARTSSD_SIM_CLOCK_H_
