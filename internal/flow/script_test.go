package flow

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/reversible-eda/rcgp/internal/aig"
	"github.com/reversible-eda/rcgp/internal/bench"
	"github.com/reversible-eda/rcgp/internal/core"
)

// TestScriptMatchesDefaultFlow: spelling the default pipeline out as an
// explicit script must reproduce the default run bit-for-bit — same final
// netlist, stats, and stage list.
func TestScriptMatchesDefaultFlow(t *testing.T) {
	c := bench.Decoder(2)
	opt := Options{CGP: core.Options{Generations: 1200, Seed: 7}, Resub: true}
	def, err := RunTables(c.Tables, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Script = "aig.resyn2;mig.resyn;convert;cgp;resub;buffer"
	scr, err := RunTables(c.Tables, opt)
	if err != nil {
		t.Fatal(err)
	}
	if def.Final.String() != scr.Final.String() {
		t.Fatal("scripted default pipeline diverged from the default flow")
	}
	if def.FinalStats != scr.FinalStats {
		t.Fatalf("stats diverged: %+v vs %+v", def.FinalStats, scr.FinalStats)
	}
	if len(def.StageTimes) != len(scr.StageTimes) {
		t.Fatalf("stage counts diverged: %d vs %d", len(def.StageTimes), len(scr.StageTimes))
	}
	for i := range def.StageTimes {
		if def.StageTimes[i].Name != scr.StageTimes[i].Name {
			t.Fatalf("stage %d: %q vs %q", i, def.StageTimes[i].Name, scr.StageTimes[i].Name)
		}
	}
}

// TestScriptCustomOrder runs a non-default flow — resubstitution before
// the evolution, no mig.resyn — and checks the result is still correct
// and fully verified.
func TestScriptCustomOrder(t *testing.T) {
	c := bench.Decoder(2)
	res, err := RunTables(c.Tables, Options{
		CGP:    core.Options{Seed: 3},
		Script: "aig.resyn2;convert;resub;cgp(gens=800);buffer",
	})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Final.TruthTables()
	for i := range c.Tables {
		if !got[i].Equal(c.Tables[i]) {
			t.Fatalf("output %d wrong", i)
		}
	}
	want := []string{"flow.aig_opt", "flow.convert", "flow.resub", "flow.cgp", "flow.buffer"}
	if len(res.StageTimes) != len(want) {
		t.Fatalf("stages = %+v, want %v", res.StageTimes, want)
	}
	for i, st := range res.StageTimes {
		if st.Name != want[i] {
			t.Fatalf("stage %d = %q, want %q", i, st.Name, want[i])
		}
	}
	if res.Resub == nil {
		t.Fatal("resub report missing")
	}
}

// TestScriptOptionOverrides: script options must beat the Options baseline.
func TestScriptOptionOverrides(t *testing.T) {
	c := bench.Decoder(2)
	res, err := RunTables(c.Tables, Options{
		CGP:    core.Options{Generations: 1 << 30, Seed: 5},
		Script: "aig.resyn2;mig.resyn;convert;cgp(gens=250,seed=9);buffer",
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunTables(c.Tables, Options{
		CGP: core.Options{Generations: 250, Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.String() != ref.Final.String() {
		t.Fatal("cgp(gens=250,seed=9) differs from baseline Generations=250/Seed=9")
	}
}

func TestScriptErrors(t *testing.T) {
	c := bench.Decoder(2)
	cases := []struct {
		script string
		want   string
	}{
		{"aig.resyn2;buffer", "convert"},          // search-free but netlist-free
		{"cgp;buffer", "flow.cgp"},                // search before convert
		{"convert;nonesuch", "unknown pass"},      // unknown pass name
		{"convert;cgp(gens=oops)", "gens"},        // bad option value
		{"convert;cgp(bogus=1)", "bogus"},         // unknown option
		{"convert;cgp(gens=5", "missing closing"}, // parse error
	}
	for _, tc := range cases {
		_, err := RunTables(c.Tables, Options{Script: tc.script})
		if err == nil {
			t.Errorf("script %q accepted", tc.script)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("script %q: error %q does not mention %q", tc.script, err, tc.want)
		}
	}
}

// TestWideCircuitRecordsResubSkip: on a 16-input circuit the oracle is not
// exhaustive, so the resub pass must be recorded as skipped with a reason —
// not silently dropped (and not listed among the executed stages).
func TestWideCircuitRecordsResubSkip(t *testing.T) {
	a := aig.New(16)
	var po aig.Lit = aig.Const0
	for i := 0; i < 16; i += 2 {
		po = a.Xor(po, a.And(a.PI(i), a.PI(i+1)))
	}
	a.AddPO(po)
	res, err := Run(a, Options{CGP: core.Options{Generations: 200, Seed: 2}, Resub: true})
	if err != nil {
		t.Fatal(err)
	}
	var skip string
	for _, sk := range res.Skipped {
		if sk.Name == "flow.resub" {
			skip = sk.Skipped
		}
	}
	if skip == "" {
		t.Fatalf("no skip record for flow.resub: %+v", res.Skipped)
	}
	if !strings.Contains(skip, "16 inputs") {
		t.Fatalf("skip reason %q does not explain the input count", skip)
	}
	for _, st := range res.StageTimes {
		if st.Name == "flow.resub" {
			t.Fatal("skipped resub pass still listed in StageTimes")
		}
	}
	if res.Resub != nil {
		t.Fatal("resub report present despite skip")
	}
}

// TestScriptCancellationReturnsBestSoFar: cancelling mid-script must
// return the validated best-so-far result with StopReason set and the
// passes behind the cancellation recorded as skipped.
func TestScriptCancellationReturnsBestSoFar(t *testing.T) {
	c := bench.Decoder(2)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	res, err := RunContext(ctx, aig.FromTruthTables(c.Tables), Options{
		CGP:    core.Options{Seed: 11},
		Script: "aig.resyn2;mig.resyn;convert;cgp(gens=1073741824);window(rounds=2);resub;buffer",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final == nil {
		t.Fatal("no best-so-far netlist")
	}
	got := res.Final.TruthTables()
	for i := range c.Tables {
		if !got[i].Equal(c.Tables[i]) {
			t.Fatalf("best-so-far output %d wrong", i)
		}
	}
	if res.CGP == nil {
		t.Fatal("search report missing")
	}
	switch res.CGP.Telemetry.StopReason {
	case core.StopCanceled, core.StopDeadline:
	default:
		t.Fatalf("stop reason = %q, want canceled or deadline", res.CGP.Telemetry.StopReason)
	}
	skipped := map[string]string{}
	for _, sk := range res.Skipped {
		skipped[sk.Name] = sk.Skipped
	}
	for _, name := range []string{"flow.window", "flow.resub", "flow.buffer"} {
		if skipped[name] != "canceled" {
			t.Fatalf("pass %s not recorded as canceled: %+v", name, res.Skipped)
		}
	}
}

// TestCancelBeforeInitializationStillConverts: a context dead on arrival
// still runs the front end through convert, skips every later pass as
// canceled, and returns the converted circuit.
func TestCancelBeforeInitializationStillConverts(t *testing.T) {
	c := bench.Decoder(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, aig.FromTruthTables(c.Tables), Options{Resub: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final == nil {
		t.Fatal("no circuit from a run canceled before it started")
	}
	if err := res.Spec.VerifyEquivalent(res.Final); err != nil {
		t.Fatalf("circuit from a run canceled before it started: %v", err)
	}
	skipped := map[string]string{}
	for _, sk := range res.Skipped {
		skipped[sk.Name] = sk.Skipped
	}
	for _, name := range []string{"flow.cgp", "flow.resub", "flow.buffer"} {
		if skipped[name] != "canceled" {
			t.Fatalf("pass %s not recorded as canceled: %+v", name, res.Skipped)
		}
	}
}

// TestDefaultScriptRendering pins the Options→script mapping.
func TestDefaultScriptRendering(t *testing.T) {
	invs, err := DefaultScript(Options{WindowRounds: 3, Resub: true, Optimizer: "anneal"})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(invs))
	for i, inv := range invs {
		names[i] = inv.Name
	}
	want := []string{"aig.resyn2", "mig.resyn", "convert", "anneal", "window", "resub", "buffer"}
	if len(names) != len(want) {
		t.Fatalf("got %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("got %v, want %v", names, want)
		}
	}
	if invs[4].Args["rounds"] != "3" {
		t.Fatalf("window args = %v", invs[4].Args)
	}
	if _, err := DefaultScript(Options{Optimizer: "bogus"}); err == nil {
		t.Fatal("bad optimizer accepted")
	}
}
