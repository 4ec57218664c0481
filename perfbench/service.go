package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/reversible-eda/rcgp"
	"github.com/reversible-eda/rcgp/client"
	"github.com/reversible-eda/rcgp/internal/flow"
	"github.com/reversible-eda/rcgp/internal/obs"
	"github.com/reversible-eda/rcgp/internal/pass"
	"github.com/reversible-eda/rcgp/internal/serve"
	"github.com/reversible-eda/rcgp/internal/template"
)

// The service workload: a closed loop of serviceCallers callers, each with
// one connection, sending servicePerCaller requests per pass, of which
// serviceHits are NPN variants of functions that caller already got back.
const (
	serviceCallers     = 2
	servicePerCaller   = 100
	serviceHits        = 25
	serviceGenerations = 500
	// The rcgp-serve defaults the in-process server is configured with.
	serveMaxConcurrent = 2
	serveFlightEvery   = 500
)

// serviceScript is the flow the server runs by default with templates on,
// flow.DefaultScript, with template learning turned off. With learning on,
// two concurrent jobs writing the shared library would make each result
// depend on thread timing; matching still reads the starter library on
// every job. Learning is measured on the templates workload.
func serviceScript() (string, error) {
	invs, err := flow.DefaultScript(flow.Options{Templates: new(template.Library)})
	if err != nil {
		return "", err
	}
	found := false
	for i := range invs {
		if invs[i].Name == "template" {
			invs[i].Args = pass.Args{"learn": "false"}
			found = true
		}
	}
	if !found {
		return "", errors.New("the default flow has no template pass")
	}
	return pass.FormatScript(invs), nil
}

type serviceWorkload struct {
	seed    int64
	script  string
	streams [][]serviceRequest

	cache *rcgp.Cache
	lib   *rcgp.TemplateLibrary
	srv   *serve.Server
	hs    *http.Server
	ln    net.Listener
	done  chan struct{}
}

func newServiceWorkload(seed int64) *serviceWorkload { return &serviceWorkload{seed: seed} }

func (w *serviceWorkload) params() runParams {
	// Each admitted job gets an equal share of the worker budget.
	return runParams{
		Generations: serviceGenerations, Lambda: defaultLambda, MutationRate: defaultMutationRate,
		BusyThreads: serveMaxConcurrent * max(1, runtime.GOMAXPROCS(0)/serveMaxConcurrent),
	}
}

// setup draws the request streams and boots a fresh server — in-memory
// cache, starter templates, rcgp-serve's defaults — on a loopback listener,
// returning once it answers its health check.
func (w *serviceWorkload) setup(bool) error {
	streams, err := serviceStreams(w.seed, serviceCallers, servicePerCaller, serviceHits)
	if err != nil {
		return err
	}
	w.streams = streams
	if w.script, err = serviceScript(); err != nil {
		return err
	}
	w.cache = rcgp.NewMemoryCache(0)
	w.cache.SetProver(1, 0)
	if w.lib, err = rcgp.StarterTemplates(); err != nil {
		return err
	}
	w.srv = serve.New(serve.Config{
		MaxConcurrent:      serveMaxConcurrent,
		DefaultGenerations: 20000,
		Cache:              w.cache,
		Templates:          w.lib,
		FlightEvery:        serveFlightEvery,
		CECPortfolio:       1,
		Registry:           obs.NewRegistry(),
	})
	if w.ln, err = serve.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.done = make(chan struct{})
	go func() {
		defer close(w.done)
		_ = w.hs.Serve(w.ln) // returns ErrServerClosed on teardown
	}()
	_, err = w.client().Health(context.Background())
	return err
}

func (w *serviceWorkload) client() *client.Client {
	return client.New("http://" + w.ln.Addr().String())
}

func (w *serviceWorkload) teardown() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = w.srv.Close(ctx) // every job has finished: nothing to drain
	_ = w.hs.Shutdown(ctx)
	<-w.done
	_ = w.cache.Close() // memory-only: nothing to flush
}

// call is one request's outcome as its caller saw it.
type call struct {
	req     serviceRequest
	submit  time.Duration // the Submit call
	latency time.Duration // Submit to observed completion
	job     client.Job
	err     error
}

func (w *serviceWorkload) pass(ctx context.Context, rec *recorder) (*passResult, error) {
	calls := make([][]call, len(w.streams))
	var wg sync.WaitGroup
	start, c0 := time.Now(), cpuTime()
	for c := range w.streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := w.client()
			for i, req := range w.streams[c] {
				calls[c] = append(calls[c], w.call(ctx, cl, rec, c, i, req))
			}
		}(c)
	}
	wg.Wait()
	res := &passResult{wall: time.Since(start), cpu: cpuTime() - c0}

	// Checks, outside the timed region.
	lv := layerValues{}
	var queue, runs, https, hitMS []float64
	var rejected int
	h := sha256.New()
	for c := range calls {
		for i, k := range calls[c] {
			res.attempted++
			id := fmt.Sprintf("caller %d request %d", c, i)
			if k.err != nil {
				var api *client.APIError
				if errors.As(k.err, &api) && api.StatusCode == http.StatusTooManyRequests {
					rejected++
				}
				res.failures = append(res.failures, fmt.Sprintf("%s: %v", id, k.err))
				continue
			}
			res.jobs = append(res.jobs, k.latency)
			https = append(https, millis(k.submit))
			j := k.job
			if j.StartedAt != nil && j.FinishedAt != nil {
				queue = append(queue, millis(j.StartedAt.Sub(j.SubmittedAt)))
				runs = append(runs, millis(j.FinishedAt.Sub(*j.StartedAt)))
			}
			if msg := w.check(rec, c*servicePerCaller+i, k); msg != "" {
				res.failures = append(res.failures, id+": "+msg)
				continue
			}
			r := j.Result
			res.quality.add(r.Stats.Gates, r.Stats.Buffers, r.Stats.JJs, r.Stats.Depth, r.Stats.Garbage)
			fmt.Fprintf(h, "%d/%d\n%s\n", c, i, r.Netlist)
			if r.FromCache {
				hitMS = append(hitMS, millis(k.latency))
			}
			if rec != nil {
				addJobTelemetry(lv, j.Telemetry)
			}
		}
	}
	res.digest = hex.EncodeToString(h.Sum(nil))
	if rec != nil {
		lv.addSpanTimes(rec)
		cs := w.cache.Stats()
		lv["cache.hits"] = float64(cs.Hits)
		lv["cache.misses"] = float64(cs.Misses)
		lv["cache.stores"] = float64(cs.Stores)
		lv["cache.bad_entries"] = float64(cs.BadEntries)
		lv["cache.hit_rate"] = ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses))
		lv["cache.hit_job_ms"] = median(hitMS)
		lv["template.library_entries"] = float64(w.lib.Len())
		lv["serve.queue_wait_p50_ms"] = percentile(queue, 50)
		lv["serve.queue_wait_p90_ms"] = percentile(queue, 90)
		lv["serve.run_p50_ms"] = percentile(runs, 50)
		lv["serve.http_p50_ms"] = percentile(https, 50)
		lv["serve.rejected"] = float64(rejected)
		lv.finish()
		res.layer = lv
	}
	return res, nil
}

// call submits one request and waits for the job on its progress stream.
func (w *serviceWorkload) call(ctx context.Context, cl *client.Client, rec *recorder, c, i int, req serviceRequest) call {
	k := call{req: req}
	id := c*servicePerCaller + i
	job := rec.begin("job", id, -1)
	defer rec.end(job)
	t0 := time.Now()
	sp := rec.begin("client.submit", id, job)
	// Every request searches with its own seed: with one seed shared by
	// all searches of a pass, the buffer total's quartile spread over ten
	// workload seeds was 15 % instead of 10 % (at 120 requests a pass).
	j, err := cl.Submit(ctx, client.Request{
		NumInputs: req.NumInputs, TruthTables: req.Hex(),
		Generations: serviceGenerations, Seed: w.seed*1000 + int64(id), Script: w.script,
	})
	k.submit = time.Since(t0)
	rec.end(sp)
	if err != nil {
		k.err = err
		return k
	}
	sp = rec.begin("client.wait", id, job)
	k.job, k.err = cl.Watch(ctx, j.ID, nil)
	k.latency = time.Since(t0)
	rec.end(sp)
	return k
}

// check verifies one finished job: done, verified by the server, stopped
// for the expected reason, and its netlist proved against the request by
// the benchmark's own Design.Verify. It returns "" when all hold.
func (w *serviceWorkload) check(rec *recorder, id int, k call) string {
	j := k.job
	if j.Status != client.StatusDone || j.Result == nil {
		return fmt.Sprintf("job %s ended %q: %s", j.ID, j.Status, j.Error)
	}
	r := j.Result
	if !r.Verified {
		return "the server did not verify the result"
	}
	switch {
	case k.req.Variant && !r.FromCache:
		return "an NPN variant of an answered request missed the cache"
	case !k.req.Variant && r.FromCache:
		return "a fresh function was served from the cache"
	case !k.req.Variant && r.StopReason != "generations":
		return fmt.Sprintf("search stopped for %q, not \"generations\"", r.StopReason)
	}
	d, err := rcgp.FromTruthTablesHex(k.req.NumInputs, k.req.Hex())
	if err != nil {
		return err.Error()
	}
	circ, err := rcgp.ReadCircuit(strings.NewReader(r.Netlist))
	if err != nil {
		return "reading the returned netlist: " + err.Error()
	}
	v := rec.begin("verify", id, -1)
	ok, err := d.Verify(circ)
	rec.end(v)
	if err != nil || !ok {
		return fmt.Sprintf("the returned netlist is not equivalent to the request (%v)", err)
	}
	return ""
}

// serviceRenames maps the job record's counters onto the per-layer metrics
// that name them differently; every other counter keeps its name (the
// cgp.* ones feed the ratios layerValues.finish derives).
var serviceRenames = map[string]string{
	"cgp.evaluations":       "core.evals",
	"cgp.dedup_skips":       "core.dedup_skips",
	"cgp.incremental_evals": "core.incremental_evals",
	"cgp.full_evals":        "core.full_evals",
	"cgp.improvements":      "core.improvements",
	"cgp.neutral_adoptions": "core.neutral_adoptions",
}

// addJobTelemetry folds one job record's counters and stage times in.
func addJobTelemetry(lv layerValues, t *client.JobTelemetry) {
	if t == nil {
		return
	}
	for name, v := range t.Counters {
		if m, ok := serviceRenames[name]; ok {
			name = m
		}
		lv[name] += float64(v)
	}
	for _, s := range t.Stages {
		if m, ok := spanLayer[s.Name]; ok && s.Skipped == "" {
			lv[m] += float64(s.DurationNS) / 1e9
		}
	}
}
