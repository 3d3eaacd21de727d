#include "src/service/admission.h"

namespace retrust::service {

Status AdmissionController::Admit(double deadline_seconds, size_t queue_depth,
                                  size_t tenant_load,
                                  const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  if (deadline_seconds < 0.0) {
    ++rejected_deadline_;
    return Status::Error(StatusCode::kBudgetExceeded,
                         "deadline already expired at submission");
  }
  if (opts_.quota != nullptr && !opts_.quota->TryAcquire(tenant)) {
    ++rejected_quota_;
    return Status::Error(StatusCode::kOverloaded,
                         "tenant '" + tenant + "' over its rate quota");
  }
  if (opts_.queue_capacity != 0 && queue_depth >= opts_.queue_capacity) {
    ++rejected_queue_full_;
    return Status::Error(StatusCode::kOverloaded,
                         "request queue full (" +
                             std::to_string(queue_depth) + "/" +
                             std::to_string(opts_.queue_capacity) + ")");
  }
  if (opts_.per_tenant_inflight != 0 &&
      tenant_load >= opts_.per_tenant_inflight) {
    ++rejected_tenant_cap_;
    return Status::Error(StatusCode::kOverloaded,
                         "tenant '" + tenant + "' at its in-flight cap (" +
                             std::to_string(opts_.per_tenant_inflight) + ")");
  }
  if (deadline_seconds > 0.0 && have_ewma_) {
    double wait = ewma_seconds_ * static_cast<double>(queue_depth) /
                  static_cast<double>(opts_.workers);
    if (wait > deadline_seconds) {
      ++rejected_deadline_;
      return Status::Error(
          StatusCode::kOverloaded,
          "deadline infeasible at current load (expected wait " +
              std::to_string(wait) + "s > deadline " +
              std::to_string(deadline_seconds) + "s)");
    }
  }
  return Status::Ok();
}

void AdmissionController::ObserveLatency(double seconds) {
  if (seconds < 0.0) return;
  std::lock_guard<std::mutex> lock(mu_);
  // EWMA with alpha = 1/8: smooth enough to ignore one outlier, fresh
  // enough to track a workload shift within ~10 requests.
  ewma_seconds_ =
      have_ewma_ ? ewma_seconds_ + (seconds - ewma_seconds_) / 8.0 : seconds;
  have_ewma_ = true;
}

void AdmissionController::Snapshot(ServerStats* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out->rejected_queue_full = rejected_queue_full_;
  out->rejected_tenant_cap = rejected_tenant_cap_;
  out->rejected_deadline = rejected_deadline_;
  out->rejected_quota = rejected_quota_;
}

double AdmissionController::LatencyEwmaSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return have_ewma_ ? ewma_seconds_ : 0.0;
}

}  // namespace retrust::service
