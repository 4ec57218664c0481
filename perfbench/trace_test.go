package main

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	rec := &recorder{spans: []span{
		{Name: "job", ID: 0, Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", ID: 0, Parent: 0, Start: 10 * ms, End: 40 * ms},
		{Name: "b", ID: 0, Parent: 0, Start: 30 * ms, End: 60 * ms}, // overlaps a
		{Name: "c", ID: 0, Parent: 1, Start: 15 * ms, End: 20 * ms},
		{Name: "job", ID: 1, Parent: -1, Start: 100 * ms, End: 110 * ms},
	}}
	if err := rec.check(); err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"job": 100*ms - 50*ms + 10*ms, // children cover 10..60
		"a":   30*ms - 5*ms,
		"b":   30 * ms,
		"c":   5 * ms,
	}
	got := rec.selfTimes()
	for name, d := range want {
		if got[name] != d {
			t.Errorf("self time of %s = %v, want %v", name, got[name], d)
		}
	}
}

func TestCheckRejectsMalformedSpans(t *testing.T) {
	for name, spans := range map[string][]span{
		"open":         {{Name: "job", Parent: -1, Start: 5, End: -1}},
		"no parent":    {{Name: "a", Parent: 3, Start: 0, End: 1}},
		"foreign job":  {{Name: "job", ID: 0, Parent: -1, Start: 0, End: 9}, {Name: "a", ID: 1, Parent: 0, Start: 1, End: 2}},
		"outside span": {{Name: "job", Parent: -1, Start: 0, End: 9}, {Name: "a", Parent: 0, Start: 5, End: 12}},
	} {
		if err := (&recorder{spans: spans}).check(); err == nil {
			t.Errorf("%s: check accepted malformed spans", name)
		}
	}
}

// TestTracedPassMatchesUntraced runs a few Table 1 circuits untraced and
// traced: the digests and counters must agree, the spans must pair up under
// their parents, and the per-layer counters must be filled in. A traced
// pipeline whose counters diverge from SynthesizeContext's must fail.
func TestTracedPassMatchesUntraced(t *testing.T) {
	w := newTablesWorkload(3, true)
	w.generations = 50
	load := w.load
	w.load = func(traced bool) ([]flowItem, error) {
		items, err := load(traced)
		return items[:3], err
	}
	ctx := context.Background()
	run := func(rec *recorder) *passResult {
		if err := w.setup(rec != nil); err != nil {
			t.Fatal(err)
		}
		defer w.teardown()
		res, err := w.pass(ctx, rec)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.failures) > 0 {
			t.Fatalf("failures: %v", res.failures)
		}
		return res
	}
	plain := run(nil)
	rec := newRecorder()
	traced := run(rec)
	if plain.digest != traced.digest {
		t.Errorf("traced digest %s differs from untraced %s", traced.digest, plain.digest)
	}
	if err := rec.check(); err != nil {
		t.Fatal(err)
	}
	parents := map[string]string{
		"flow": "job", "flow.aig_opt": "flow", "flow.mig_resyn": "flow", "flow.convert": "flow",
		"flow.cgp": "flow", "flow.template": "flow", "flow.buffer": "flow",
	}
	count := make(map[string]int)
	for _, s := range rec.spans {
		count[s.Name]++
		want, nested := parents[s.Name]
		switch {
		case nested && (s.Parent < 0 || rec.spans[s.Parent].Name != want):
			t.Errorf("span %s is not nested in %s", s.Name, want)
		case !nested && s.Parent != -1:
			t.Errorf("span %s should be a root", s.Name)
		}
	}
	for _, name := range []string{"job", "verify", "flow", "flow.cgp", "flow.template"} {
		if count[name] != 3 {
			t.Errorf("%d %s spans, want 3", count[name], name)
		}
	}
	for _, m := range []string{"core.evals", "cec.checks", "template.windows", "aig.ands_after", "rqfp.init_jj", "core.search_s"} {
		if traced.layer[m] <= 0 {
			t.Errorf("per-layer %s = %g, want > 0", m, traced.layer[m])
		}
	}

	if len(w.want) != 3 {
		t.Fatalf("the untraced pass kept counters for %d circuits, want 3", len(w.want))
	}
	w.want[1].Evals++
	if err := w.setup(true); err != nil {
		t.Fatal(err)
	}
	res, err := w.pass(ctx, newRecorder())
	w.teardown()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.failures) != 1 || !strings.Contains(res.failures[0], "diverged") {
		t.Errorf("failures %q, want one divergence", res.failures)
	}
}
