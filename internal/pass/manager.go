package pass

import (
	"context"
	"errors"
	"fmt"

	"github.com/reversible-eda/rcgp/internal/obs"
)

// Manager executes a pass list over a shared State with uniform
// cross-cutting policy: one telemetry span and StageTimes entry per
// executed pass, skipped-pass records with reasons, cancellation between
// passes, and equivalence verification against the specification oracle
// after every pass that mutated the netlist.
type Manager struct {
	// Passes is the pipeline in execution order. NewManager fills it from
	// script invocations; tests and embedders may append custom passes.
	Passes []Pass
}

// NewManager resolves an invocation list against the registry.
func NewManager(invs []Invocation) (*Manager, error) {
	if len(invs) == 0 {
		return nil, errors.New("empty pipeline")
	}
	m := &Manager{Passes: make([]Pass, 0, len(invs))}
	for _, inv := range invs {
		p, err := Build(inv)
		if err != nil {
			return nil, err
		}
		m.Passes = append(m.Passes, p)
	}
	return m, nil
}

// Run executes the pipeline. Once ctx is cancelled the current pass winds
// down (every built-in pass threads ctx into its engine) and the remaining
// passes are recorded as skipped rather than run — Run still returns nil
// so the caller can hand back the validated best-so-far state. There is
// no such state until a pass has built the netlist, so cancellation skips
// nothing before that: the front end through convert is cheap and always
// runs. A pass error, or a failed post-pass equivalence check, aborts the
// pipeline with the pass's name wrapped into the error.
func (m *Manager) Run(ctx context.Context, st *State) error {
	if st.Reg == nil {
		st.Reg = obs.NewRegistry()
	}
	// Normalize the write scope: it always spans the run registry, plus any
	// caller-supplied registries (per-job, process-global). Spans recorded
	// through it land in every member, so per-job stage times come for free.
	st.Scope = st.Scope.With(st.Reg)
	root := st.Scope.Span("flow.synth")
	defer root.End()
	for i, p := range m.Passes {
		if ctx.Err() != nil && st.Net != nil {
			for _, rest := range m.Passes[i:] {
				st.recordSkip(rest.Name(), "canceled")
			}
			return nil
		}
		if sk, ok := p.(Skipper); ok {
			if reason := sk.SkipReason(st); reason != "" {
				st.recordSkip(p.Name(), reason)
				continue
			}
		}
		before := st.netFingerprint()
		sp := root.Child(p.Name())
		err := p.Run(ctx, st)
		var skip *SkipError
		if errors.As(err, &skip) {
			sp.End()
			st.recordSkip(p.Name(), skip.Reason)
			continue
		}
		// The verification hook: any pass that changed the netlist —
		// pointer swap or in-place edit, the fingerprint catches both —
		// must still implement the untouched specification.
		if err == nil && st.Oracle != nil && st.Net != nil && st.netFingerprint() != before {
			err = st.Oracle.VerifyEquivalent(st.Net)
		}
		st.StageTimes = append(st.StageTimes, obs.StageTime{Name: p.Name(), Duration: sp.End()})
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name(), err)
		}
	}
	return nil
}
