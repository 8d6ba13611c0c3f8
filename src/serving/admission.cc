#include "serving/admission.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/metrics.h"

namespace toppriv::serving {

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(options),
      capacity_(options.max_in_flight + options.max_queue_depth),
      degraded_at_(static_cast<size_t>(std::ceil(
          options.degraded_watermark *
          static_cast<double>(options.max_in_flight +
                              options.max_queue_depth)))) {
  TOPPRIV_CHECK_GE(capacity_, 1u);
}

bool AdmissionController::DegradedLocked() const {
  return in_system_ >= degraded_at_;
}

size_t AdmissionController::QueueDepthLocked() const {
  return in_system_ > options_.max_in_flight
             ? in_system_ - options_.max_in_flight
             : 0;
}

util::Status AdmissionController::TryAdmit() {
  bool degraded_admission = false;
  {
    util::MutexLock lock(&mu_);
    if (in_system_ >= capacity_) {
      ++shed_;
      TOPPRIV_COUNTER_INC("admission.shed.capacity");
      return util::Status::ResourceExhausted("admission capacity exhausted");
    }
    ++in_system_;
    ++admitted_;
    peak_in_system_ = std::max(peak_in_system_, in_system_);
    peak_queue_depth_ = std::max(peak_queue_depth_, QueueDepthLocked());
    if (DegradedLocked()) {
      ++degraded_admissions_;
      degraded_admission = true;
    }
    TOPPRIV_GAUGE_SET("admission.queue_depth", QueueDepthLocked());
  }
  TOPPRIV_COUNTER_INC("admission.admitted");
  // Added on every admission, 0 or 1, so that a process which never
  // degraded still exports the counter (as 0): a reader dividing it by
  // `admission.admitted` must not lose the ratio.
  TOPPRIV_COUNTER_ADD("admission.degraded_admissions", degraded_admission);
  (void)degraded_admission;  // the macro vanishes under TOPPRIV_METRICS=OFF
  TOPPRIV_GAUGE_ADD("admission.in_system", 1);
  return util::Status::Ok();
}

void AdmissionController::Finish() {
  {
    util::MutexLock lock(&mu_);
    TOPPRIV_CHECK_GE(in_system_, 1u);
    --in_system_;
    TOPPRIV_GAUGE_SET("admission.queue_depth", QueueDepthLocked());
  }
  TOPPRIV_GAUGE_ADD("admission.in_system", -1);
}

bool AdmissionController::degraded() const {
  util::MutexLock lock(&mu_);
  return DegradedLocked();
}

size_t AdmissionController::in_system() const {
  util::MutexLock lock(&mu_);
  return in_system_;
}

size_t AdmissionController::queue_depth() const {
  util::MutexLock lock(&mu_);
  return QueueDepthLocked();
}

size_t AdmissionController::peak_in_system() const {
  util::MutexLock lock(&mu_);
  return peak_in_system_;
}

size_t AdmissionController::peak_queue_depth() const {
  util::MutexLock lock(&mu_);
  return peak_queue_depth_;
}

uint64_t AdmissionController::admitted() const {
  util::MutexLock lock(&mu_);
  return admitted_;
}

uint64_t AdmissionController::shed() const {
  util::MutexLock lock(&mu_);
  return shed_;
}

uint64_t AdmissionController::degraded_admissions() const {
  util::MutexLock lock(&mu_);
  return degraded_admissions_;
}

}  // namespace toppriv::serving
