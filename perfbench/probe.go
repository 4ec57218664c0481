package main

import (
	"math/bits"
	"sort"
	"time"
)

// The probe measures how fast the host runs the benchmark while a pass
// runs, so that the gated CPU times can be scaled to one reference speed.
// On a shared host the CPU time of one and the same pass changes by half
// from one minute to the next, with the load other guests put on the cores,
// caches and memory the run shares. The probe is the benchmark's own loop,
// not the program's: a change to the program cannot change what it
// measures.

// probeRef is the reference chunk time. The 2-vCPU x86-64 VM the benchmark
// was built on took 180–190 µs per chunk when lightly loaded, and up to
// half as long again when not.
const probeRef = 200 * time.Microsecond

// probeEvery is how often the probe asks to time a chunk. On the flow
// workloads, which run on one P, the scheduler gets to it at the next
// preemption of the pass, about every 10 ms, on the core the pass runs on.
const probeEvery = 5 * time.Millisecond

// The probe's working sets are globals, not heap objects, so they do not
// count in heap_retained_mb or in the collector's work.
var (
	probeWords  [1 << 12]uint64 // 32 KiB: compute, inside L1
	probeStream [1 << 19]uint64 // 4 MiB: memory traffic, beyond L2
	probePos    int
	probeSink   uint64
)

// startProbe starts timing one probe chunk every probeEvery until the
// returned function is called. That returns the host's slowdown over the
// period: the median chunk time divided by probeRef. Chunks are short and
// the median leaves out those an interrupt or a preemption hit.
func startProbe() (stop func() float64) {
	done := make(chan struct{})
	out := make(chan float64)
	go func() {
		var ds []time.Duration
		t := time.NewTicker(probeEvery)
		defer t.Stop()
		for {
			ds = append(ds, probeChunk())
			select {
			case <-t.C:
			case <-done:
				sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
				out <- float64(ds[len(ds)/2]) / float64(probeRef)
				return
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-out
	}
}

// probeChunk times the two kinds of work the program's passes mix, in
// about equal parts: a bit-parallel majority and popcount loop, as the
// search runs, and clearing and summing 256 KiB of memory the last chunks
// did not touch, as allocating and collecting do.
func probeChunk() time.Duration {
	w := probeWords[:]
	seg := probeStream[probePos : probePos+1<<15]
	probePos = (probePos + 1<<15) % len(probeStream)
	t0 := time.Now()
	for r := uint64(0); r < 4; r++ {
		for i := 2; i < len(w); i++ {
			a, b, c := w[i-2], w[i-1], w[i]
			m := a&b | a&c | b&c
			w[i] = m ^ bits.RotateLeft64(a, 7) ^ r
			probeSink += uint64(bits.OnesCount64(m ^ c))
		}
	}
	clear(seg)
	for i := range seg {
		seg[i] += uint64(i)
		probeSink += seg[i]
	}
	return time.Since(t0)
}
