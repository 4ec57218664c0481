package main

// layerMetric is one per-layer metric reported by a traced run.
type layerMetric struct{ name, unit string }

// layerMetrics lists the per-layer metrics, named by module. Times are the
// self time of the layer's spans summed over one pass (see README.md).
// trace.overhead_s is added by perLayerMetrics.
var layerMetrics = []layerMetric{
	{"aig.opt_s", "s"},
	{"aig.ands_after", "count"},
	{"mig.resyn_s", "s"},
	{"mig.majs_after", "count"},
	{"rqfp.convert_s", "s"},
	{"rqfp.buffer_s", "s"},
	{"rqfp.init_gates", "count"},
	{"rqfp.init_jj", "count"},
	{"core.search_s", "s"},
	{"core.evals", "count"},
	{"core.evals_per_s", "1/s"},
	{"core.dedup_skips", "count"},
	{"core.incremental_evals", "count"},
	{"core.full_evals", "count"},
	{"core.cone_gates_mean", "count"},
	{"core.improvements", "count"},
	{"core.neutral_adoptions", "count"},
	{"core.adopt_ratio", "ratio"},
	{"core.mut_accept_rate", "ratio"},
	{"core.allocs_per_eval", "count"},
	{"cec.checks", "count"},
	{"cec.sim_refuted", "count"},
	{"cec.sim_refuted_ratio", "ratio"},
	{"cec.exhaustive_proved", "count"},
	{"cec.sat_proved", "count"},
	{"cec.sat_refuted", "count"},
	{"cec.sat_unknown", "count"},
	{"cec.counterexamples", "count"},
	{"cec.sat_s", "s"},
	{"cec.verify_s", "s"},
	{"sat.conflicts", "count"},
	{"sat.decisions", "count"},
	{"sat.propagations", "count"},
	{"sat.restarts", "count"},
	{"template.rewrite_s", "s"},
	{"template.windows", "count"},
	{"template.hits", "count"},
	{"template.misses", "count"},
	{"template.rewrites", "count"},
	{"template.rewrite_per_hit", "ratio"},
	{"template.gates_saved", "count"},
	{"template.learned", "count"},
	{"template.library_entries", "count"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.stores", "count"},
	{"cache.hit_rate", "ratio"},
	{"cache.bad_entries", "count"},
	{"cache.hit_job_ms", "ms"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.queue_wait_p90_ms", "ms"},
	{"serve.run_p50_ms", "ms"},
	{"serve.http_p50_ms", "ms"},
	{"serve.rejected", "count"},
	{"pass.self_s", "s"},
	{"trace.unattributed_s", "s"},
}

// spanLayer maps the span names of a traced pass — and the stage names of a
// service job record, which are the same pass names — to the per-layer
// time metric they are reported under.
var spanLayer = map[string]string{
	"flow.aig_opt":   "aig.opt_s",
	"flow.mig_resyn": "mig.resyn_s",
	"flow.convert":   "rqfp.convert_s",
	"flow.buffer":    "rqfp.buffer_s",
	"flow.cgp":       "core.search_s",
	"flow.template":  "template.rewrite_s",
	"flow":           "pass.self_s",
	"verify":         "cec.verify_s",
	"job":            "trace.unattributed_s",
}

// layerValues accumulates one traced pass's per-layer values.
type layerValues map[string]float64

// addSpanTimes folds the recorder's self times into the values.
func (v layerValues) addSpanTimes(rec *recorder) {
	for name, d := range rec.selfTimes() {
		if m, ok := spanLayer[name]; ok {
			v[m] += seconds(d)
		}
	}
}

// finish derives the ratio metrics from the summed counters. The cgp.*
// entries are the search counters that have no metric of their own, named
// as the program's metric registry names them; core.search_mallocs is the
// allocation count taken around the search pass (absent on service).
func (v layerValues) finish() {
	v["core.evals_per_s"] = ratio(v["core.evals"], v["core.search_s"])
	v["core.cone_gates_mean"] = ratio(v["cgp.cone_gates"], v["core.incremental_evals"])
	v["core.adopt_ratio"] = ratio(v["cgp.adoptions"], v["core.evals"])
	v["core.mut_accept_rate"] = ratio(v["cgp.mutations_applied"], v["cgp.mutations_attempted"])
	v["core.allocs_per_eval"] = ratio(v["core.search_mallocs"], v["core.evals"])
	v["cec.sim_refuted_ratio"] = ratio(v["cec.sim_refuted"], v["cec.checks"])
	v["template.rewrite_per_hit"] = ratio(v["template.rewrites"], v["template.hits"])
}
