package flow

import (
	"context"
	"testing"

	"github.com/reversible-eda/rcgp/internal/aig"
	"github.com/reversible-eda/rcgp/internal/bench"
	"github.com/reversible-eda/rcgp/internal/core"
	"github.com/reversible-eda/rcgp/internal/pass"
	"github.com/reversible-eda/rcgp/internal/template"
)

// cancelPass cancels the run's context when the manager reaches it.
type cancelPass struct{ cancel context.CancelFunc }

func (cancelPass) Name() string { return "test.cancel" }

func (p cancelPass) Run(context.Context, *pass.State) error {
	p.cancel()
	return nil
}

// TestCancelAtEveryPassBoundary is the cancellation-injection harness: the
// default pipeline with every optional pass enabled is canceled at each
// pass boundary in turn, from before the first pass to after the last.
// Every run must return a circuit that implements the specification; the
// front end through convert must run whatever the boundary, and every
// later pass past the boundary must be recorded as canceled.
func TestCancelAtEveryPassBoundary(t *testing.T) {
	c := bench.FullAdder()
	spec := aig.FromTruthTables(c.Tables)
	lib, err := template.Starter()
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{
		CGP:          core.Options{Generations: 200, Seed: 3},
		WindowRounds: 1,
		Resub:        true,
		Templates:    lib,
	}
	invs, err := DefaultScript(opt)
	if err != nil {
		t.Fatal(err)
	}
	frontEnd := map[string]bool{"flow.aig_opt": true, "flow.mig_resyn": true, "flow.convert": true}
	for b := 0; b <= len(invs); b++ {
		m, err := pass.NewManager(invs)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		passes := append([]pass.Pass{}, m.Passes[:b]...)
		passes = append(passes, cancelPass{cancel})
		m.Passes = append(passes, m.Passes[b:]...)
		st := &pass.State{Spec: spec, CGP: opt.CGP, RandomWords: 16, Templates: lib}
		err = m.Run(ctx, st)
		cancel()
		if err != nil {
			t.Fatalf("canceled at boundary %d: %v", b, err)
		}
		if st.Net == nil {
			t.Fatalf("canceled at boundary %d: no circuit", b)
		}
		if err := st.Oracle.VerifyEquivalent(st.Net); err != nil {
			t.Fatalf("canceled at boundary %d: %v", b, err)
		}
		ran := map[string]bool{}
		for _, s := range st.StageTimes {
			ran[s.Name] = true
		}
		skipped := map[string]string{}
		for _, sk := range st.Skipped {
			skipped[sk.Name] = sk.Skipped
		}
		for i, p := range m.Passes {
			name := p.Name()
			switch {
			case name == "test.cancel":
			case i < b || frontEnd[name]:
				if !ran[name] {
					t.Fatalf("canceled at boundary %d: pass %s did not run (skipped %q)", b, name, skipped[name])
				}
			case skipped[name] != "canceled":
				t.Fatalf("canceled at boundary %d: pass %s not recorded as canceled: %+v", b, name, st.Skipped)
			}
		}
	}
}
