#include "src/sim/simulator.h"

#include <utility>

#include "src/util/check.h"

namespace hib {

void Simulator::ScheduleIn(Duration delay, EventCallback cb) {
  if (delay < Duration{}) {
    delay = Duration{};
  }
  queue_.Schedule(now_ + delay, std::move(cb));
}

void Simulator::ScheduleAt(SimTime when, EventCallback cb) {
  if (when < now_) {
    when = now_;
  }
  queue_.Schedule(when, std::move(cb));
}

Simulator::PeriodicHandle Simulator::SchedulePeriodic(SimTime start, Duration period,
                                                      EventCallback cb) {
  HIB_CHECK_GT(period, Duration{}) << "periodic events need a positive period";
  std::uint64_t key = next_periodic_key_++;
  periodics_.emplace(key, PeriodicState{period, std::move(cb)});
  ScheduleAt(start, [this, key] { FirePeriodic(key); });
  return PeriodicHandle{key};
}

void Simulator::StopPeriodic(PeriodicHandle handle) {
  auto it = periodics_.find(handle.key);
  if (it != periodics_.end()) {
    it->second.stopped = true;
  }
}

void Simulator::FirePeriodic(std::uint64_t key) {
  auto it = periodics_.find(key);
  if (it == periodics_.end() || it->second.stopped) {
    periodics_.erase(key);
    return;
  }
  // Re-arm first so the callback can StopPeriodic or reschedule safely.
  ScheduleIn(it->second.period, [this, key] { FirePeriodic(key); });
  it->second.callback();
}

std::uint64_t Simulator::RunUntil(SimTime until) {
  std::uint64_t fired = 0;
  while (!queue_.empty()) {
    SimTime next = queue_.NextTime();
    if (next > until) {
      break;
    }
    HIB_DCHECK_GE(next, now_) << "event fired in the simulated past";
#if HIB_VALIDATE
    validator_->OnDispatch(next);
#endif
    queue_.FireNext(&now_);
    ++fired;
    ++events_fired_;
  }
  if (now_ < until && until != std::numeric_limits<SimTime>::max()) {
    now_ = until;
  }
  return fired;
}

bool Simulator::Step() {
  if (queue_.empty()) {
    return false;
  }
  SimTime next = queue_.NextTime();
  HIB_DCHECK_GE(next, now_) << "event fired in the simulated past";
#if HIB_VALIDATE
  validator_->OnDispatch(next);
#endif
  queue_.FireNext(&now_);
  ++events_fired_;
  return true;
}

}  // namespace hib
