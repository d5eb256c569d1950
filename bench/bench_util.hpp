// bench/bench_util.hpp — helpers shared by the bench binaries.

#pragma once

#include <cstdio>

#include "eval/experiment.hpp"

namespace benchutil {

inline void print_header(const char* title) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("==============================================================\n");
}

/// Runs bdrmapIT on a scenario with MIDAR-like aliases.
inline core::Result run_bdrmapit(const eval::Scenario& s) {
  return core::Bdrmapit::run(s.corpus, eval::midar_aliases(s), s.ip2as, s.rels);
}

}  // namespace benchutil
