// Small measurement helpers: quantiles, heap in use, reply normalization.

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>

#include "bench.h"

namespace e2e {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

bool TailReportable(size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0;
}

double HeapInUseMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Window::Error(std::string message) {
  std::lock_guard<std::mutex> lock(mu);
  if (errors.size() < 20) errors.push_back(std::move(message));
}

Json Normalize(const Json& reply) {
  if (!reply.is_object()) return reply;
  Json::Object out;
  for (const auto& [key, value] : reply.AsObject()) {
    if (key == "seconds" || key == "id" || key == "trace") continue;
    if (key == "results" && value.is_array()) {
      Json::Array items;
      for (const Json& item : value.AsArray()) items.push_back(Normalize(item));
      out[key] = Json(std::move(items));
    } else {
      out[key] = value;
    }
  }
  return Json(std::move(out));
}

}  // namespace e2e
