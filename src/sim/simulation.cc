#include "sim/simulation.h"

#include "util/logging.h"

namespace besync {

uint32_t Simulation::AddHandler(EventHandler* handler) {
  BESYNC_CHECK(handler != nullptr);
  BESYNC_CHECK_LT(handlers_.size(), size_t{1} << kHandlerBits)
      << "too many event handlers";
  handlers_.push_back(handler);
  return static_cast<uint32_t>(handlers_.size() - 1);
}

void Simulation::ScheduleAt(double time, uint32_t handler, uint64_t key) {
  BESYNC_CHECK_GE(time, now_);
  BESYNC_CHECK_LT(handler, handlers_.size());
  BESYNC_CHECK_LE(key, kMaxKey) << "event key does not fit in " << kKeyBits << " bits";
  calendar_.Push(time, (uint64_t{handler} << kKeyBits) | key);
}

void Simulation::ScheduleAfter(double delay, uint32_t handler, uint64_t key) {
  BESYNC_CHECK_GE(delay, 0.0);
  ScheduleAt(now_ + delay, handler, key);
}

void Simulation::FireNext() {
  double event_time;
  uint64_t payload;
  calendar_.PopInto(&event_time, &payload);
  BESYNC_CHECK_GE(event_time, now_);
  now_ = event_time;
  ++events_fired_;
  handlers_[payload >> kKeyBits]->OnEvent(payload & kMaxKey, event_time);
}

void Simulation::RunUntil(double time) {
  BESYNC_CHECK_GE(time, now_);
  while (!calendar_.empty() && calendar_.NextTime() <= time) FireNext();
  now_ = time;
}

bool Simulation::Step() {
  if (calendar_.empty()) return false;
  FireNext();
  return true;
}

}  // namespace besync
