// The four benchmark workloads (see README.md for their make-up).
#pragma once

#include <string>

#include "bench.h"

namespace perfbench {

Report run_zi_exchange(const RunOptions& options);
Report run_attack_cosim(const RunOptions& options);
Report run_false_name_search(const RunOptions& options);
Report run_paper_repro(const RunOptions& options);

using WorkloadFn = Report (*)(const RunOptions&);

inline WorkloadFn find_workload(const std::string& name) {
  if (name == "zi_exchange") return run_zi_exchange;
  if (name == "attack_cosim") return run_attack_cosim;
  if (name == "false_name_search") return run_false_name_search;
  if (name == "paper_repro") return run_paper_repro;
  return nullptr;
}

/// Threads a workload keeps busy at once (the driving thread included).
inline unsigned threads_needed(const std::string& name) {
  if (name == "zi_exchange" || name == "attack_cosim") return 2;
  return 1;
}

}  // namespace perfbench
