// Command perfbench is the repository benchmark: the paper's circuit-quality
// totals and the CPU and wall-clock time to get them at a fixed generation
// budget, over four workloads (tables, templates, service, wide), with a
// per-layer breakdown from a separately traced run. See README.md for every
// metric.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload tables --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/reversible-eda/rcgp/internal/buildinfo"
	"github.com/reversible-eda/rcgp/internal/cache"
	"github.com/reversible-eda/rcgp/internal/tt"
)

// minPasses is the least number of passes a run makes, whatever --seconds
// says, so every reported median has at least three samples (in a traced
// run: untraced, traced, untraced).
const minPasses = 3

// setupsPerPass is how many times each pass sets its inputs up (keeping the
// last): set-up takes milliseconds, so one sample per pass would leave
// setup_s at the mercy of a single hiccup.
const setupsPerPass = 10

// workload is one benchmark workload. setup prepares a fresh copy of the
// pass's inputs (its duration is setup_s); pass runs them once, traced when
// rec is non-nil, and checks every output outside its timed region.
type workload interface {
	setup(traced bool) error
	pass(ctx context.Context, rec *recorder) (*passResult, error)
	teardown()
	params() runParams
}

// runParams are the search settings a workload runs at, for the run record.
type runParams struct {
	Generations  int     `json:"generations"`
	Lambda       int     `json:"lambda"`
	MutationRate float64 `json:"mutation_rate"`
	// BusyThreads is how many threads the workload keeps busy at once.
	BusyThreads int `json:"busy_threads"`
}

// The library defaults the benchmark leaves unset (rcgp.Options zero
// values): λ = 4 offspring per generation, mutation rate μ = 0.05.
const (
	defaultLambda       = 4
	defaultMutationRate = 0.05
)

// passResult is one pass over a workload's inputs.
type passResult struct {
	wall time.Duration
	// cpu is the process CPU time over the same timed region as wall.
	cpu time.Duration
	// slowdown is how much slower than the reference speed the host ran
	// the probe while the pass ran (see probe.go).
	slowdown float64
	// jobs holds one latency per circuit (flow workloads) or request.
	jobs []time.Duration
	// quality sums the paper's cost columns over the final circuits.
	quality qualityTotals
	// digest is a sha256 over every final chromosome, in input order.
	digest    string
	attempted int
	failures  []string
	// layer holds the per-layer values of a traced pass.
	layer map[string]float64
	// retained is the live heap in MB once the pass is done, with its
	// state — designs, library, server, cache — still held.
	retained float64
}

type qualityTotals struct {
	Gates, Buffers, JJs, Depth, Garbage int
}

func (q *qualityTotals) add(gates, buffers, jjs, depth, garbage int) {
	q.Gates += gates
	q.Buffers += buffers
	q.JJs += jjs
	q.Depth += depth
	q.Garbage += garbage
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the run's identity and summary, printed before the result.
type record struct {
	Workload       string    `json:"workload"`
	Seed           int64     `json:"seed"`
	Traced         bool      `json:"traced"`
	Revision       string    `json:"revision"`
	GoVersion      string    `json:"go_version"`
	NumCPU         int       `json:"numcpu"`
	GOMAXPROCS     int       `json:"gomaxprocs"`
	Oversubscribed bool      `json:"oversubscribed"`
	Params         runParams `json:"params"`
	Passes         int       `json:"passes"`
	TracedPasses   int       `json:"traced_passes"`
	PassWall       []float64 `json:"pass_wall_s"`
	PassCPU        []float64 `json:"pass_cpu_s"`
	// PassSlowdown is each pass's probe reading: its CPU time divided by
	// this is its CPU time at the reference speed.
	PassSlowdown []float64 `json:"pass_slowdown"`
	// Ungated holds the untraced passes' wall-clock figures and their CPU
	// times as measured, before scaling. They are reported but not among
	// the gated metrics: see README.md.
	Ungated    map[string]float64 `json:"ungated"`
	Digest     string             `json:"digest"`
	FailedFrac float64            `json:"failed_frac"`
	PeakRSSMB  float64            `json:"peak_rss_mb"`
	Failures   []string           `json:"failures,omitempty"`
	TraceFile  string             `json:"trace_file,omitempty"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name  = flag.String("workload", "", "workload: tables, templates, service or wide")
		seed  = flag.Int64("seed", 1, "workload seed")
		secs  = flag.Float64("seconds", 20, "measurement time; at least three passes run regardless")
		trace = flag.Int("trace", 0, "1: also run traced passes and report the per-layer metrics")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	traced := *trace == 1
	// The flow workloads search on one thread, so they run on one P. With a
	// second P the collector marks on another core and the heap crosses
	// between cores through the shared cache: on a shared host that made
	// the same pass's CPU time a third higher and far more variable.
	if _, ok := w.(*flowWorkload); ok {
		runtime.GOMAXPROCS(1)
	}
	m, err := measure(w, time.Duration(*secs*float64(time.Second)), traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	p := w.params()
	rec := record{
		Workload: *name, Seed: *seed, Traced: traced,
		Revision: buildinfo.Revision(), GoVersion: buildinfo.GoVersion(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Oversubscribed: p.BusyThreads > runtime.NumCPU(),
		Params:         p,
		Passes:         m.passes, TracedPasses: m.tracedPasses,
		PassWall:     m.passWall,
		PassCPU:      m.passCPU,
		PassSlowdown: m.passSlowdown,
		Ungated:      m.ungated,
		Digest:       m.digest,
		FailedFrac:   ratio(float64(len(m.failures)), float64(m.attempted)),
		PeakRSSMB:    peakRSSMB(),
		Failures:     m.failures,
	}
	if rec.Revision == "" {
		rec.Revision = "unknown"
	}
	if traced {
		path, err := writeTrace(*name, *seed, m.rec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		rec.TraceFile = path
	}
	metrics := m.endToEnd
	if traced {
		metrics = m.perLayer
	}
	printTable(rec, metrics)
	line, _ := json.Marshal(map[string]record{"record": rec})
	fmt.Println(string(line))
	out, _ := json.Marshal(output{
		Correct:   len(m.failures) == 0,
		Attempted: m.attempted,
		Failed:    len(m.failures),
		Metrics:   metrics,
	})
	fmt.Println(string(out))
	return 0
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "tables":
		return newTablesWorkload(seed, false), nil
	case "templates":
		return newTablesWorkload(seed, true), nil
	case "wide":
		return newWideWorkload(seed), nil
	case "service":
		return newServiceWorkload(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (tables, templates, service, wide)", name)
}

// measurement is everything a run reports.
type measurement struct {
	endToEnd, perLayer   map[string]metric
	ungated              map[string]float64
	passes, tracedPasses int
	passWall             []float64 // in run order, traced passes included
	passCPU              []float64
	passSlowdown         []float64
	attempted            int
	failures             []string
	digest               string
	rec                  *recorder
}

// measure runs passes while another one still fits in the time left (and
// at least minPasses). A traced run alternates untraced and traced passes,
// starting untraced, so the tracing overhead is measured under the same
// conditions. The probe runs alongside every pass; the pass's reading
// scales its CPU time and the CPU times of the set-ups just before it.
func measure(w workload, budget time.Duration, traced bool) (*measurement, error) {
	ctx := context.Background()
	m := &measurement{}
	var untraced, tracedRes []*passResult
	var setupCPU, setupWall, setupNorm []float64
	start := time.Now()
	var last time.Duration // the previous pass, set-up and checks included
	for i := 0; i < minPasses || time.Since(start)+last < budget; i++ {
		p0 := time.Now()
		var rec *recorder
		if traced && i%2 == 1 {
			rec = newRecorder()
		}
		var setups []float64
		for k := 0; k < setupsPerPass; k++ {
			if k > 0 {
				w.teardown()
			}
			t0, c0 := time.Now(), cpuTime()
			if i == 0 && k == 0 {
				warmUp()
			}
			if err := w.setup(rec != nil); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			if rec == nil {
				setups = append(setups, seconds(cpuTime()-c0))
				setupWall = append(setupWall, seconds(time.Since(t0)))
			}
		}
		stop := startProbe()
		res, err := w.pass(ctx, rec)
		slowdown := stop()
		if err == nil {
			res.slowdown = slowdown
			res.retained = retainedHeapMB()
			for _, s := range setups {
				setupCPU = append(setupCPU, s)
				setupNorm = append(setupNorm, s/res.slowdown)
			}
		}
		w.teardown()
		if err != nil {
			return nil, err
		}
		m.attempted += res.attempted
		m.passWall = append(m.passWall, seconds(res.wall))
		m.passCPU = append(m.passCPU, seconds(res.cpu))
		m.passSlowdown = append(m.passSlowdown, res.slowdown)
		m.failures = append(m.failures, res.failures...)
		if m.digest == "" {
			m.digest = res.digest
		} else if res.digest != m.digest {
			m.failures = append(m.failures, fmt.Sprintf("pass %d: result digest %s differs from the first pass's %s", i, res.digest, m.digest))
		}
		if rec != nil {
			if err := rec.check(); err != nil {
				m.failures = append(m.failures, "trace: "+err.Error())
			}
			m.rec = rec // the last traced pass's spans are written out
			tracedRes = append(tracedRes, res)
		} else {
			untraced = append(untraced, res)
		}
		last = time.Since(p0)
	}
	m.passes = len(untraced) + len(tracedRes)
	m.tracedPasses = len(tracedRes)
	m.endToEnd, m.ungated = endToEndMetrics(untraced, setupNorm, setupCPU, setupWall)
	if traced {
		m.perLayer = perLayerMetrics(untraced, tracedRes)
	}
	return m, nil
}

// endToEndMetrics returns the gated metrics and the ungated figures. Every
// gated time is process CPU time scaled to the reference speed (see
// README.md).
func endToEndMetrics(passes []*passResult, setupNorm, setupCPU, setupWall []float64) (map[string]metric, map[string]float64) {
	var wall, cpu, norm, rate, p50, p90, retained []float64
	for _, p := range passes {
		wall = append(wall, seconds(p.wall))
		cpu = append(cpu, seconds(p.cpu))
		norm = append(norm, seconds(p.cpu)/p.slowdown)
		retained = append(retained, p.retained)
		rate = append(rate, ratio(float64(len(p.jobs)), seconds(p.wall)))
		lat := make([]float64, len(p.jobs))
		for i, d := range p.jobs {
			lat[i] = millis(d)
		}
		p50 = append(p50, percentile(lat, 50))
		p90 = append(p90, percentile(lat, 90))
	}
	q := passes[0].quality
	gated := map[string]metric{
		"setup_s":          {median(setupNorm), "s"},
		"ref_cpu_s":        {median(norm), "s"},
		"gates_total":      {float64(q.Gates), "count"},
		"buffers_total":    {float64(q.Buffers), "count"},
		"jj_total":         {float64(q.JJs), "count"},
		"depth_total":      {float64(q.Depth), "count"},
		"garbage_total":    {float64(q.Garbage), "count"},
		"heap_retained_mb": {median(retained), "MB"},
	}
	return gated, map[string]float64{
		"cpu_s":        median(cpu),
		"setup_cpu_s":  median(setupCPU),
		"setup_wall_s": median(setupWall),
		"wall_s":       median(wall),
		"jobs_per_s":   median(rate),
		"job_p50_ms":   median(p50),
		"job_p90_ms":   median(p90),
	}
}

// perLayerMetrics takes, per metric, the median over the traced passes.
func perLayerMetrics(untraced, traced []*passResult) map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		var vals []float64
		for _, p := range traced {
			vals = append(vals, p.layer[lm.name])
		}
		out[lm.name] = metric{median(vals), lm.unit}
	}
	var uw, tw []float64
	for _, p := range untraced {
		uw = append(uw, seconds(p.wall))
	}
	for _, p := range traced {
		tw = append(tw, seconds(p.wall))
	}
	out["trace.overhead_s"] = metric{median(tw) - median(uw), "s"}
	return out
}

// warmUp pays the program's one-time lazy initialisation — the NPN
// transform tables behind cache.Signature, built once per input count — in
// the first set-up, so that no timed pass pays it.
func warmUp() {
	for n := 1; n <= tt.NPNMaxVars; n++ {
		_, _, _ = cache.Signature([]tt.TT{tt.Var(n, 0)}) // cannot fail: 1 ≤ n ≤ 5
	}
}

// retainedHeapMB is the live heap after a full collection. Unlike the
// process's peak resident size, which swings with how far allocation
// outruns a concurrent collection, it is a function of what the program
// keeps, so it is steady from run to run.
func retainedHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// traceDir is where traced runs write their spans, relative to the
// directory the benchmark runs in (the repository root).
const traceDir = ".bench_build/traces"

func writeTrace(name string, seed int64, rec *recorder) (string, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := rec.writeJSONL(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// printTable writes every metric by name, with its unit, to stderr.
func printTable(rec record, metrics map[string]metric) {
	fmt.Fprintf(os.Stderr, "workload %s seed %d: %d passes (%d traced), digest %s, failed %.3f\n",
		rec.Workload, rec.Seed, rec.Passes, rec.TracedPasses, rec.Digest, rec.FailedFrac)
	for _, f := range rec.Failures {
		fmt.Fprintln(os.Stderr, "  FAILED:", f)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	if len(rec.Ungated) == 0 {
		return
	}
	fmt.Fprintln(os.Stderr, "  not gated (cpu_s and setup_cpu_s as measured, before scaling):")
	names = names[:0]
	for n := range rec.Ungated {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %s\n", n, rec.Ungated[n], ungatedUnits[n])
	}
}

var ungatedUnits = map[string]string{
	"cpu_s": "s", "setup_cpu_s": "s", "setup_wall_s": "s", "wall_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms", "job_p90_ms": "ms",
}
