#include "workloads.hpp"

#include <cstdio>

namespace perfbench {

namespace {

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string baseOr(const std::string& base) {
  return base.empty() ? "layer not exercised by this workload" : base;
}

}  // namespace

void reportEndToEnd(Result& r, const std::vector<double>& setupSamples,
                    double candidatesPerSecond,
                    const std::vector<double>& usPerCandidate,
                    double peakRssMb) {
  std::string samples;
  for (double v : setupSamples) {
    if (!samples.empty()) samples += ' ';
    samples += num(v);
  }
  r.stamp("setup_samples_s", samples);
  r.endToEnd("setup_s", median(setupSamples), "s");
  r.endToEnd("candidates_per_s", candidatesPerSecond, "1/s");
  r.endToEnd("task_us_per_candidate_p50", percentile(usPerCandidate, 50),
             "us");
  r.endToEnd("task_us_per_candidate_p80", percentile(usPerCandidate, 80),
             "us");
  r.percentileNote("task_us_per_candidate_p80", usPerCandidate.size(), 80);
  r.endToEnd("peak_rss_mb", peakRssMb, "MB");
}

void LayerReport::emit(Result& r) const {
  r.layer("nn.grade_s", nnGradeS, "s");
  r.layer("nn.grade_us_per_gene", nnGradeUsPerGene, "us");
  r.layerRatio("nn.grade_share", nnGradeShare, baseOr(nnGradeShareBase));
  r.layer("nn.batch_genes_mean", nnBatchGenesMean, "count");
  r.layer("nn.probmap_s", nnProbmapS, "s");
  r.layer("fitness.encode_s", encodeS, "s");
  r.layer("fitness.encode_us_per_gene", encodeUsPerGene, "us");
  r.layerRatio("fitness.encode_share", encodeShare, baseOr(encodeShareBase));
  r.layerRatio("fitness.trace_memo_hit_frac", traceMemoHit,
               baseOr(traceMemoHitBase));
  r.layer("fitness.edit_s", editS, "s");
  r.layer("fitness.edit_us_per_gene", editUsPerGene, "us");
  r.layer("core.self_s", coreSelfS, "s");
  r.layerRatio("core.self_share", coreSelfShare, baseOr(coreSelfShareBase));
  r.layerRatio("core.fitness_cache_hit_frac", fitnessCacheHit,
               baseOr(fitnessCacheHitBase));
  r.layer("core.task_ms_p50", taskMsP50, "ms");
  r.layer("core.task_ms_p80", taskMsP80, "ms");
  r.layer("core.solved", solved, "count");
  r.layer("core.candidates_per_solve", candidatesPerSolve, "count");
  r.layer("core.generations", generations, "count");
  r.layer("core.ns_invocations", nsInvocations, "count");
  r.layer("core.found_by_ns", foundByNs, "count");
  r.layer("core.islands.immigrants", immigrants, "count");
  r.layer("dsl.exec_us_per_gene", dslExecUsPerGene, "us");
  r.layerRatio("dsl.plan_hit_frac", dslPlanHit, baseOr(dslPlanHitBase));
  r.layer("harness.train_s", trainS, "s");
  r.layer("harness.workload_s", workloadS, "s");
  r.layer("service.jobs_per_s", jobsPerS, "1/s");
  r.layer("service.job_ms_p50", jobMsP50, "ms");
  r.layer("service.job_ms_p95", jobMsP95, "ms");
  r.layer("service.checkpoints_per_task", checkpointsPerTask, "count");
  r.layer("service.submit_ms_p50", submitMsP50, "ms");
  r.layer("service.status_ms_p50", statusMsP50, "ms");
  r.layerRatio("service.attach_hit_frac", attachHit, baseOr(attachHitBase));
  r.layerRatio("service.plan_hit_frac", servicePlanHit,
               baseOr(servicePlanHitBase));
  r.layer("service.tasks_executed", tasksExecuted, "count");
  r.layer("transport.ping_ms_p50", pingMsP50, "ms");
  r.layer("bench.trace_overhead_frac", traceOverheadFrac, "fraction");
  r.layerRatio("bench.failed_frac",
               {static_cast<double>(r.failed()),
                static_cast<double>(r.attempted())},
               "failed operations / attempted operations");
}

}  // namespace perfbench
