package core

import (
	"time"

	"github.com/reversible-eda/rcgp/internal/rqfp"
)

// FlightSample is one point of the search flight recorder: a snapshot of
// the (1+λ) trajectory taken on the coordinator goroutine every
// Options.FlightEvery generations. Sampling reads only coordinator-owned
// state and consumes no RNG draws, so a recorded run is bit-identical per
// seed to an unrecorded one.
type FlightSample struct {
	// Gen is the generation the sample was taken at.
	Gen int `json:"gen"`
	// Evaluations is the cumulative offspring evaluation count.
	Evaluations int64 `json:"evals"`
	// Gates, Garbage, Buffers, Depth, and JJs describe the current parent:
	// active RQFP gate count, garbage outputs, path-balancing buffers,
	// circuit depth, and the resulting Josephson junction count.
	Gates   int `json:"gates"`
	Garbage int `json:"garbage"`
	Buffers int `json:"buffers"`
	Depth   int `json:"depth"`
	JJs     int `json:"jjs"`
	// FullEvals, IncrementalEvals, and DedupSkips split Evaluations by how
	// each candidate was scored: full simulation (the initial evaluation
	// and stale-parent fallbacks), dirty-cone incremental re-simulation, or
	// phenotype-dedup fitness inheritance.
	FullEvals        int64 `json:"full_evals"`
	IncrementalEvals int64 `json:"incremental_evals"`
	DedupSkips       int64 `json:"dedup_skips"`
	// Improvements is the cumulative count of strictly better adoptions.
	Improvements int64 `json:"improvements"`
	// ElapsedMS is wall-clock milliseconds since the engine started;
	// EvalsPerSec is the cumulative evaluation throughput.
	ElapsedMS   int64   `json:"elapsed_ms"`
	EvalsPerSec float64 `json:"evals_per_sec"`
}

// flightRing is a bounded ring buffer of flight samples: pushes past the
// capacity overwrite the oldest entries, so a long run keeps its most
// recent window at a fixed memory cost.
type flightRing struct {
	buf   []FlightSample
	next  int // index the next push writes to
	total int // lifetime pushes
}

func newFlightRing(capacity int) *flightRing {
	if capacity <= 0 {
		capacity = 1024
	}
	return &flightRing{buf: make([]FlightSample, 0, capacity)}
}

func (r *flightRing) push(s FlightSample) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, s)
	} else {
		r.buf[r.next] = s
		r.next = (r.next + 1) % len(r.buf)
	}
	r.total++
}

// last returns the most recent sample, if any. Nil-safe.
func (r *flightRing) last() (FlightSample, bool) {
	if r == nil || r.total == 0 {
		return FlightSample{}, false
	}
	return r.buf[(r.next+len(r.buf)-1)%len(r.buf)], true
}

// samples returns the retained window in chronological order. Nil-safe.
func (r *flightRing) samples() []FlightSample {
	if r == nil || len(r.buf) == 0 {
		return nil
	}
	out := make([]FlightSample, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// recordFlight takes one flight sample of the current parent, pushes it to
// the ring, forwards it to the FlightSink, and refreshes the live search
// gauges. Runs on the coordinator goroutine only.
func (e *engine) recordFlight() {
	if last, ok := e.flight.last(); ok && last.Gen == e.gen && last.Evaluations == e.tel.Evaluations {
		return // result() after a sampled final generation: nothing moved
	}
	depth, buffers := e.parent.net.DepthAndBuffers()
	gates := e.parentFit.Gates
	s := FlightSample{
		Gen:              e.gen,
		Evaluations:      e.tel.Evaluations,
		Gates:            gates,
		Garbage:          e.parentFit.Garbage,
		Buffers:          buffers,
		Depth:            depth,
		JJs:              rqfp.JJsPerGate*gates + rqfp.JJsPerBuffer*buffers,
		FullEvals:        e.tel.FullEvals,
		IncrementalEvals: e.tel.IncrementalEvals,
		DedupSkips:       e.tel.DedupSkips,
		Improvements:     e.tel.Improvements,
	}
	elapsed := time.Since(e.startTime)
	s.ElapsedMS = elapsed.Milliseconds()
	if sec := elapsed.Seconds(); sec > 0 {
		s.EvalsPerSec = float64(e.tel.Evaluations) / sec
	}
	e.flight.push(s)
	if e.opt.FlightSink != nil {
		e.opt.FlightSink(s)
	}
	e.updateGauges()
}

// updateGauges refreshes the live search-progress gauges (no-ops when no
// metrics scope is attached).
func (e *engine) updateGauges() {
	e.genGauge.Set(int64(e.gen))
	e.gatesGauge.Set(int64(e.parentFit.Gates))
	e.garbageGauge.Set(int64(e.parentFit.Garbage))
}
