// Shared helpers for the figure-reproduction bench binaries.
//
// Every binary prints the series/rows of one paper figure or table. Sizes
// default to laptop-friendly values; set RETRUST_BENCH_SCALE (a float,
// default 1.0) to scale tuple counts up toward the paper's sizes.

#ifndef RETRUST_BENCH_BENCH_COMMON_H_
#define RETRUST_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <string>

namespace retrust::bench {

/// RETRUST_BENCH_SCALE env var (default 1.0, clamped to [0.05, 100]).
inline double Scale() {
  const char* s = std::getenv("RETRUST_BENCH_SCALE");
  if (s == nullptr) return 1.0;
  double v = std::atof(s);
  if (v < 0.05) v = 0.05;
  if (v > 100) v = 100;
  return v;
}

/// Scaled tuple count.
inline int ScaledN(int base) { return static_cast<int>(base * Scale()); }

/// Prints a banner naming the figure being reproduced.
inline void Banner(const char* figure, const char* what) {
  std::printf("=== %s: %s ===\n", figure, what);
  std::printf("(scale=%.2f via RETRUST_BENCH_SCALE; shapes, not absolute "
              "numbers, are the reproduction target)\n\n",
              Scale());
}

/// `v` as a JSON number with 10 significant digits.
inline std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// Path of the machine-readable output BENCH_<name>.json: the current
/// directory, or $RETRUST_BENCH_JSON_DIR when set. Every bench binary that
/// tracks the perf trajectory (micro_core, fig12_tau) writes one.
inline std::string BenchJsonPath(const char* name) {
  std::string dir = ".";
  if (const char* d = std::getenv("RETRUST_BENCH_JSON_DIR")) dir = d;
  return dir + "/BENCH_" + name + ".json";
}

/// Opens BENCH_<name>.json for writing (nullptr on failure, with a note
/// on `note`); callers fprintf JSON into it. The figure benches pass
/// stderr, so their stdout stays the paper's table alone.
inline FILE* OpenBenchJson(const char* name, FILE* note = stdout) {
  std::string path = BenchJsonPath(name);
  FILE* f = std::fopen(path.c_str(), "w");
  std::fprintf(note, f != nullptr ? "\nwriting %s\n" : "\ncannot write %s\n",
               path.c_str());
  return f;
}

}  // namespace retrust::bench

#endif  // RETRUST_BENCH_BENCH_COMMON_H_
