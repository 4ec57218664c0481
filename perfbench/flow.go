package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"time"

	"github.com/reversible-eda/rcgp"
	"github.com/reversible-eda/rcgp/internal/aig"
	"github.com/reversible-eda/rcgp/internal/bench"
	"github.com/reversible-eda/rcgp/internal/blif"
	"github.com/reversible-eda/rcgp/internal/core"
	"github.com/reversible-eda/rcgp/internal/flow"
	"github.com/reversible-eda/rcgp/internal/obs"
	"github.com/reversible-eda/rcgp/internal/pass"
	"github.com/reversible-eda/rcgp/internal/rqfp"
	"github.com/reversible-eda/rcgp/internal/template"
)

// Generation budgets. tables runs the Fig. 2 flow on every Table 1 and
// Table 2 circuit; templates uses a short search so the template pass
// dominates; wide runs the SAT-backed equivalence path.
const (
	tablesGenerations    = 1000
	templatesGenerations = 300
	wideGenerations      = 2000
)

// flowItem is one circuit of a flow workload: the public design, plus the
// specification network the traced pipeline is built on.
type flowItem struct {
	name   string
	design *rcgp.Design
	spec   *aig.AIG
}

// flowWorkload runs the default flow over a fixed list of circuits, one
// caller, sequentially: tables, templates and wide.
type flowWorkload struct {
	seed        int64
	generations int
	templates   bool
	// load generates the circuits; traced also builds their specification
	// networks.
	load func(traced bool) ([]flowItem, error)

	items []flowItem
	lib   *rcgp.TemplateLibrary // untraced passes
	ilib  *template.Library     // traced passes
	// want holds each circuit's counters from the first untraced pass,
	// which every traced pass must reproduce.
	want []counters
	// mallocs counts the allocations inside the search passes of a traced
	// pass.
	mallocs uint64
}

func newTablesWorkload(seed int64, templates bool) *flowWorkload {
	w := &flowWorkload{seed: seed, generations: tablesGenerations, templates: templates}
	if templates {
		w.generations = templatesGenerations
	}
	w.load = func(traced bool) ([]flowItem, error) {
		var items []flowItem
		for _, c := range bench.All() {
			hexes := make([]string, len(c.Tables))
			for i, f := range c.Tables {
				hexes[i] = f.Hex()
			}
			d, err := rcgp.FromTruthTablesHex(c.NumPI, hexes)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.Name, err)
			}
			it := flowItem{name: c.Name, design: d}
			if traced {
				it.spec = aig.FromTruthTables(c.Tables)
			}
			items = append(items, it)
		}
		return items, nil
	}
	return w
}

func newWideWorkload(seed int64) *flowWorkload {
	w := &flowWorkload{seed: seed, generations: wideGenerations}
	w.load = func(traced bool) ([]flowItem, error) {
		var items []flowItem
		for _, wd := range wideDesigns(seed) {
			d, err := rcgp.FromBLIF(strings.NewReader(wd.BLIF))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", wd.Name, err)
			}
			it := flowItem{name: wd.Name, design: d}
			if traced {
				if it.spec, err = blif.Parse(strings.NewReader(wd.BLIF)); err != nil {
					return nil, fmt.Errorf("%s: %w", wd.Name, err)
				}
			}
			items = append(items, it)
		}
		return items, nil
	}
	return w
}

func (w *flowWorkload) params() runParams {
	return runParams{Generations: w.generations, Lambda: defaultLambda, MutationRate: defaultMutationRate, BusyThreads: 1}
}

// setup generates the circuits and, on templates, loads a fresh copy of the
// starter library, so every pass starts from the same library state.
func (w *flowWorkload) setup(traced bool) error {
	items, err := w.load(traced)
	if err != nil {
		return err
	}
	w.items = items
	w.lib, w.ilib = nil, nil
	if !w.templates {
		return nil
	}
	if traced {
		w.ilib, err = template.Starter()
	} else {
		w.lib, err = rcgp.StarterTemplates()
	}
	return err
}

func (w *flowWorkload) teardown() { w.items, w.lib, w.ilib = nil, nil, nil }

// finalCircuit is what a pass keeps of one synthesized circuit for the
// checks after the timed region: the untraced pass's result, or the traced
// pass's pipeline state.
type finalCircuit struct {
	result *rcgp.Result
	state  *pass.State
	err    error
}

func (w *flowWorkload) pass(ctx context.Context, rec *recorder) (*passResult, error) {
	res := &passResult{attempted: len(w.items)}
	finals := make([]finalCircuit, len(w.items))
	w.mallocs = 0
	for i, it := range w.items {
		var d time.Duration
		c0 := cpuTime()
		if rec == nil {
			t0 := time.Now()
			finals[i].result, finals[i].err = it.design.SynthesizeContext(ctx, rcgp.Options{Generations: w.generations, Seed: w.seed, Templates: w.lib})
			d = time.Since(t0)
		} else {
			job := rec.begin("job", i, -1)
			finals[i].state, finals[i].err = w.runTraced(ctx, it, rec, i, job)
			d = rec.end(job)
		}
		res.cpu += cpuTime() - c0
		res.wall += d
		res.jobs = append(res.jobs, d)
	}

	// Checks, outside the timed region.
	lv := layerValues{}
	h := sha256.New()
	for i, it := range w.items {
		circ, stop, err := w.finish(rec, i, finals[i], lv)
		if err != nil {
			res.failures = append(res.failures, fmt.Sprintf("%s: %v", it.name, err))
			continue
		}
		v := rec.begin("verify", i, -1)
		ok, err := it.design.Verify(circ)
		rec.end(v)
		switch {
		case err != nil:
			res.failures = append(res.failures, fmt.Sprintf("%s: verify: %v", it.name, err))
		case !ok:
			res.failures = append(res.failures, it.name+": final circuit is not equivalent to the specification")
		case stop != "generations":
			res.failures = append(res.failures, fmt.Sprintf("%s: search stopped for %q, not \"generations\"", it.name, stop))
		}
		st := circ.Stats()
		res.quality.add(st.Gates, st.Buffers, st.JJs, st.Depth, st.Garbage)
		fmt.Fprintf(h, "%s\n%s\n", it.name, circ.Chromosome())
	}
	res.digest = hex.EncodeToString(h.Sum(nil))
	if rec == nil && w.want == nil && len(res.failures) == 0 {
		w.want = make([]counters, len(finals))
		for i, f := range finals {
			w.want[i] = countersOf(f.result.Telemetry)
		}
	}
	if rec != nil {
		lv.addSpanTimes(rec)
		lv["core.search_mallocs"] = float64(w.mallocs)
		if w.ilib != nil {
			lv["template.library_entries"] = float64(w.ilib.Len())
		}
		lv.finish()
		res.layer = lv
	}
	return res, nil
}

// finish turns one circuit's outcome into the final circuit and its stop
// reason. For a traced circuit it also folds the pipeline's counters into
// lv and checks them against what SynthesizeContext reported for the same
// circuit in an untraced pass.
func (w *flowWorkload) finish(rec *recorder, i int, f finalCircuit, lv layerValues) (*rcgp.Circuit, string, error) {
	if f.err != nil {
		return nil, "", f.err
	}
	if rec == nil {
		return f.result.Circuit(), f.result.Telemetry.StopReason, nil
	}
	st := f.state
	lv.addState(st)
	if w.want != nil {
		if got := stateCounters(st); !reflect.DeepEqual(got, w.want[i]) {
			return nil, "", fmt.Errorf("traced pipeline diverged from SynthesizeContext:\n  traced   %+v\n  untraced %+v", got, w.want[i])
		}
	}
	stop := ""
	if st.Search != nil {
		stop = string(st.Search.Telemetry.StopReason)
	}
	circ, err := rcgp.ReadCircuit(strings.NewReader(netlistText(st.Net)))
	return circ, stop, err
}

// counters are the deterministic counters one circuit's synthesis reports:
// which passes ran, the search's evaluation split, the oracle's verdicts
// and the template pass's report. Timing-dependent fields are left out.
type counters struct {
	Stages, Skipped                                   []string
	Evals, Dedup, Incremental, Full                   int64
	Adoptions, Improvements, Neutral                  int64
	Checks, SimRefuted, Exhaustive                    int64
	SATProved, SATRefuted, SATUnknown, Counterexample int64
	Template                                          [5]int64
}

func countersOf(t rcgp.Telemetry) counters {
	c := counters{
		Evals: t.Evaluations, Dedup: t.DedupSkips, Incremental: t.IncrementalEvals, Full: t.FullEvals,
		Adoptions: t.Adoptions, Improvements: t.Improvements, Neutral: t.NeutralAdoptions,
		Checks: t.CEC.Checks, SimRefuted: t.CEC.SimRefuted, Exhaustive: t.CEC.ExhaustiveProved,
		SATProved: t.CEC.SATProved, SATRefuted: t.CEC.SATRefuted, SATUnknown: t.CEC.SATUnknown,
		Counterexample: t.CEC.Counterexamples,
	}
	for _, s := range t.Stages {
		c.Stages = append(c.Stages, s.Name)
	}
	for _, s := range t.Skipped {
		c.Skipped = append(c.Skipped, s.Name)
	}
	if r := t.Template; r != nil {
		c.Template = [5]int64{int64(r.Windows), r.Hits, r.Misses, int64(r.Rewrites), int64(r.Learned)}
	}
	return c
}

func stateCounters(st *pass.State) counters {
	var c counters
	for _, s := range st.StageTimes {
		c.Stages = append(c.Stages, s.Name)
	}
	for _, s := range st.Skipped {
		c.Skipped = append(c.Skipped, s.Name)
	}
	if s := st.Search; s != nil {
		t := s.Telemetry
		c.Evals, c.Dedup, c.Incremental, c.Full = t.Evaluations, t.DedupSkips, t.IncrementalEvals, t.FullEvals
		c.Adoptions, c.Improvements, c.Neutral = t.Adoptions, t.Improvements, t.NeutralAdoptions
	}
	if st.Oracle != nil {
		o := st.Oracle.Stats()
		c.Checks, c.SimRefuted, c.Exhaustive = o.Checks, o.SimRefuted, o.ExhaustiveProved
		c.SATProved, c.SATRefuted, c.SATUnknown, c.Counterexample = o.SATProved, o.SATRefuted, o.SATUnknown, o.Counterexamples
	}
	if r := st.Template; r != nil {
		c.Template = [5]int64{int64(r.Windows), int64(r.Hits), int64(r.Misses), int64(r.Rewrites), int64(r.Learned)}
	}
	return c
}

func netlistText(n *rqfp.Netlist) string {
	var sb strings.Builder
	_ = n.WriteText(&sb) // a strings.Builder never fails
	return sb.String()
}

// runTraced is one SynthesizeContext call taken apart: the pipeline state
// is built as flow.RunContext builds it for the options the untraced pass
// passes to rcgp, and every pass of flow.DefaultScript runs inside a span
// under one "flow" span. Building the pass manager, as RunContext also
// does, happens before the flow span opens.
func (w *flowWorkload) runTraced(ctx context.Context, it flowItem, rec *recorder, id, parent int) (*pass.State, error) {
	invs, err := flow.DefaultScript(flow.Options{Templates: w.ilib})
	if err != nil {
		return nil, err
	}
	mgr, err := pass.NewManager(invs)
	if err != nil {
		return nil, err
	}
	fs := rec.begin("flow", id, parent)
	defer rec.end(fs)
	for i, p := range mgr.Passes {
		mgr.Passes[i] = &tracedPass{Pass: p, rec: rec, id: id, parent: fs, mallocs: &w.mallocs}
	}
	reg := obs.NewRegistry()
	scope := obs.ScopeFrom(ctx).With(reg)
	st := &pass.State{
		Spec:        it.spec,
		SynthEffort: aig.EffortStd,
		CGP:         core.Options{Generations: w.generations, Seed: w.seed, Metrics: scope},
		Templates:   w.ilib,
		Reg:         reg,
		Scope:       scope,
	}
	if err := mgr.Run(ctx, st); err != nil {
		return nil, err
	}
	if st.Net == nil {
		return nil, fmt.Errorf("pipeline built no netlist")
	}
	return st, nil
}

// tracedPass wraps one pipeline pass in a span. Around the search pass it
// also takes the allocation count, so allocations per evaluation cover the
// search alone, not the front end.
type tracedPass struct {
	pass.Pass
	rec        *recorder
	id, parent int
	mallocs    *uint64
}

func (p *tracedPass) Run(ctx context.Context, st *pass.State) error {
	search := p.Name() == "flow.cgp"
	var ms runtime.MemStats
	var before uint64
	if search {
		runtime.ReadMemStats(&ms)
		before = ms.Mallocs
	}
	s := p.rec.begin(p.Name(), p.id, p.parent)
	err := p.Pass.Run(ctx, st)
	p.rec.end(s)
	if search {
		runtime.ReadMemStats(&ms)
		*p.mallocs += ms.Mallocs - before
	}
	return err
}

// SkipReason keeps the wrapped pass's skip rule visible to the manager.
func (p *tracedPass) SkipReason(st *pass.State) string {
	if sk, ok := p.Pass.(pass.Skipper); ok {
		return sk.SkipReason(st)
	}
	return ""
}

// addState sums the counters the program exposes on its pipeline state.
func (v layerValues) addState(st *pass.State) {
	v["aig.ands_after"] += float64(st.AIGAnds)
	v["mig.majs_after"] += float64(st.MIGMajs)
	v["rqfp.init_gates"] += float64(st.InitialStats.Gates)
	v["rqfp.init_jj"] += float64(st.InitialStats.JJs)
	if s := st.Search; s != nil {
		t := s.Telemetry
		v["core.evals"] += float64(t.Evaluations)
		v["core.dedup_skips"] += float64(t.DedupSkips)
		v["core.incremental_evals"] += float64(t.IncrementalEvals)
		v["core.full_evals"] += float64(t.FullEvals)
		v["core.improvements"] += float64(t.Improvements)
		v["core.neutral_adoptions"] += float64(t.NeutralAdoptions)
		v["cgp.adoptions"] += float64(t.Adoptions)
		v["cgp.cone_gates"] += float64(t.ConeGates)
		v["cgp.mutations_attempted"] += float64(t.Mutations.TotalAttempts())
		v["cgp.mutations_applied"] += float64(t.Mutations.TotalApplied())
	}
	if st.Oracle != nil {
		c := st.Oracle.Stats()
		v["cec.checks"] += float64(c.Checks)
		v["cec.sim_refuted"] += float64(c.SimRefuted)
		v["cec.exhaustive_proved"] += float64(c.ExhaustiveProved)
		v["cec.sat_proved"] += float64(c.SATProved)
		v["cec.sat_refuted"] += float64(c.SATRefuted)
		v["cec.sat_unknown"] += float64(c.SATUnknown)
		v["cec.counterexamples"] += float64(c.Counterexamples)
		v["cec.sat_s"] += seconds(c.SATTime)
		v["sat.conflicts"] += float64(c.SAT.Conflicts)
		v["sat.decisions"] += float64(c.SAT.Decisions)
		v["sat.propagations"] += float64(c.SAT.Propagations)
		v["sat.restarts"] += float64(c.SAT.Restarts)
	}
	if r := st.Template; r != nil {
		v["template.windows"] += float64(r.Windows)
		v["template.hits"] += float64(r.Hits)
		v["template.misses"] += float64(r.Misses)
		v["template.rewrites"] += float64(r.Rewrites)
		v["template.gates_saved"] += float64(r.GatesSaved)
		v["template.learned"] += float64(r.Learned)
	}
}
