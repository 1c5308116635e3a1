// The three workloads. Each fills a Result with every end-to-end metric
// (trace off) or every per-layer metric (trace on), whether or not its
// layers are exercised, so all workloads print the same metric names.
#pragma once

#include <string>
#include <vector>

#include "report.hpp"
#include "stats.hpp"

namespace perfbench {

/// Per-layer values of one traced run. Layers a workload does not exercise
/// stay zero, with "not exercised" as their base.
struct LayerReport {
  double nnGradeS = 0, nnGradeUsPerGene = 0, nnBatchGenesMean = 0,
         nnProbmapS = 0;
  Ratio nnGradeShare;
  double encodeS = 0, encodeUsPerGene = 0, editS = 0, editUsPerGene = 0;
  Ratio encodeShare, traceMemoHit;
  double taskMsP50 = 0, taskMsP80 = 0, solved = 0, candidatesPerSolve = 0;
  double coreSelfS = 0, generations = 0, nsInvocations = 0, foundByNs = 0,
         immigrants = 0;
  Ratio coreSelfShare, fitnessCacheHit;
  double dslExecUsPerGene = 0;
  Ratio dslPlanHit;
  double trainS = 0, workloadS = 0;
  double jobsPerS = 0, jobMsP50 = 0, jobMsP95 = 0;
  double checkpointsPerTask = 0, submitMsP50 = 0, statusMsP50 = 0,
         tasksExecuted = 0, pingMsP50 = 0;
  Ratio attachHit, servicePlanHit;
  double traceOverheadFrac = 0;

  /// Bases of the ratios above, filled by the workload that measured them.
  std::string nnGradeShareBase, encodeShareBase, traceMemoHitBase,
      coreSelfShareBase, fitnessCacheHitBase, dslPlanHitBase, attachHitBase,
      servicePlanHitBase;

  void emit(Result& r) const;
};

/// The end-to-end metrics every workload reports, in BENCHMARK.json order,
/// as measured (wall clock). `setupSeconds` holds one sample per set-up;
/// `usPerCandidate` one per task: its wall time divided by the candidates it
/// searched.
void reportEndToEnd(Result& r, const std::vector<double>& setupSeconds,
                    double candidatesPerSecond,
                    const std::vector<double>& usPerCandidate,
                    double peakRssMb);

/// netsyn_list and edit_islands (search.cpp).
void runSearchWorkload(const Options& opt, Result& r);

/// service_durable (service.cpp).
void runServiceWorkload(const Options& opt, Result& r);

}  // namespace perfbench
