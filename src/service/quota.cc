#include "src/service/quota.h"

#include <chrono>

namespace retrust::service {

namespace {

double SteadyNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

QuotaManager::QuotaManager(QuotaLimits defaults,
                           std::function<double()> clock)
    : defaults_(defaults),
      clock_(clock ? std::move(clock) : SteadyNow) {}

void QuotaManager::SetLimits(const std::string& tenant, QuotaLimits limits) {
  std::lock_guard<std::mutex> lock(mu_);
  if (limits.unlimited() && defaults_.unlimited()) {
    // No limit from either source: drop the bucket entirely so unlimited
    // tenants cost nothing per request.
    buckets_.erase(tenant);
    return;
  }
  Bucket& bucket = buckets_[tenant];
  bucket.limits = limits;
  bucket.has_override = true;
  bucket.tokens = limits.unlimited() ? 0.0 : limits.effective_burst();
  bucket.last_refill = Now();
}

QuotaLimits QuotaManager::LimitsFor(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = buckets_.find(tenant);
  if (it != buckets_.end() && it->second.has_override) {
    return it->second.limits;
  }
  return defaults_;
}

void QuotaManager::Refill(Bucket* bucket, double now) {
  const double elapsed = now - bucket->last_refill;
  bucket->last_refill = now;
  if (elapsed <= 0.0) return;
  const double cap = bucket->limits.effective_burst();
  bucket->tokens += elapsed * bucket->limits.rate;
  if (bucket->tokens > cap) bucket->tokens = cap;
}

bool QuotaManager::TryAcquire(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = buckets_.find(tenant);
  if (it == buckets_.end()) {
    if (defaults_.unlimited()) return true;
    // First sighting of a default-limited tenant: bucket starts FULL and
    // this request spends the first token.
    Bucket bucket;
    bucket.limits = defaults_;
    bucket.tokens = defaults_.effective_burst() - 1.0;
    bucket.last_refill = Now();
    buckets_.emplace(tenant, bucket);
    return true;
  }
  Bucket& bucket = it->second;
  if (bucket.limits.unlimited()) return true;
  Refill(&bucket, Now());
  if (bucket.tokens < 1.0) return false;
  bucket.tokens -= 1.0;
  return true;
}

double QuotaManager::AvailableTokens(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = buckets_.find(tenant);
  if (it == buckets_.end()) {
    return defaults_.unlimited() ? 0.0 : defaults_.effective_burst();
  }
  if (it->second.limits.unlimited()) return 0.0;
  Refill(&it->second, Now());
  return it->second.tokens;
}

}  // namespace retrust::service
