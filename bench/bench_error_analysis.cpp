// bench_error_analysis — where the residual errors live (not a paper
// figure; repository-level analysis).
//
// Cross-tabulates inference outcomes by link category over all observed
// interfaces (not only the validation networks), and reports the
// refinement loop's convergence signature: annotation churn per
// iteration dropping to zero (§6.3 "until a repeated state").

#include <iostream>

#include "bench_util.hpp"
#include "eval/error_analysis.hpp"

int main() {
  benchutil::print_header("Error analysis — outcome by link category");

  topo::SimParams params;
  for (const auto& ds : benchutil::itdk_datasets()) {
    eval::Scenario s = eval::make_scenario(params, ds.vps, true, ds.seed);
    const auto aliases = eval::midar_aliases(s);

    const core::Result r = core::Bdrmapit::run(s.corpus, aliases, s.ip2as, s.rels);

    std::printf("\ndataset %s (%zu observed interfaces):\n", ds.label,
                r.interfaces.size());
    const auto breakdown = eval::analyze_errors(s.net, s.gt, s.vis, r.interfaces);
    breakdown.print(std::cout);

    std::printf("convergence: ");
    for (const auto& it : r.iteration_stats)
      std::printf("(%zu IRs, %zu ifaces) ", it.changed_irs, it.changed_ifaces);
    std::printf("-> repeated state after %d iterations\n", r.iterations);
  }
  return 0;
}
