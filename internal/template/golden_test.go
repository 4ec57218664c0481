package template

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"github.com/reversible-eda/rcgp/internal/aig"
	"github.com/reversible-eda/rcgp/internal/bench"
	"github.com/reversible-eda/rcgp/internal/mig"
	"github.com/reversible-eda/rcgp/internal/rqfp"
)

// Recorded from the brute-force canonicalization and the materialize-every-
// hit rewrite loop that preceded the bit-parallel search, the gate-count
// pre-check and the per-call signature memo. Any change to either value
// means the template pass no longer produces byte-identical netlists or
// learns a byte-identical library.
const (
	goldenNetlistsSHA = "4bfe3971e010700cc9d38aaca97e51cfc0fb6ad51566a67dc62baef60d4198fa"
	goldenLibrarySHA  = "99f6cacbd39b47ed8839e1fe740f093b8aff627a99fb1c5ff4d5893078071658"
)

// goldenSweep converts every Table 1 and Table 2 circuit with the default
// front end, rewrites the circuits in order against one shared starter
// library with learning on, and hashes the final netlist texts and the
// saved library.
func goldenSweep(t *testing.T) (nets, lib string) {
	t.Helper()
	l, err := Starter()
	if err != nil {
		t.Fatal(err)
	}
	nh := sha256.New()
	for _, c := range bench.All() {
		spec := aig.FromTruthTables(c.Tables).Optimize(aig.EffortStd)
		net, err := rqfp.FromMIG(mig.ResynthesizeAIG(spec))
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		out, rep, err := Rewrite(net, l, RewriteOptions{Learn: true})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		fmt.Fprintf(nh, "%s %d %d %d %d\n", c.Name, rep.Windows, rep.Hits, rep.Rewrites, rep.Learned)
		if err := out.WriteText(nh); err != nil {
			t.Fatal(err)
		}
	}
	var saved bytes.Buffer
	if err := l.Save(&saved); err != nil {
		t.Fatal(err)
	}
	lh := sha256.Sum256(saved.Bytes())
	return hex.EncodeToString(nh.Sum(nil)), hex.EncodeToString(lh[:])
}

// TestRewriteGolden pins the template pass's output byte for byte: the
// rewritten netlists (with each circuit's window, hit, rewrite and learn
// counts) and the learned library must hash to the recorded values, with
// the scheduler on one and on four threads.
func TestRewriteGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite sweep")
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			nets, lib := goldenSweep(t)
			if nets != goldenNetlistsSHA {
				t.Errorf("netlists sha256 = %s, want %s", nets, goldenNetlistsSHA)
			}
			if lib != goldenLibrarySHA {
				t.Errorf("library sha256 = %s, want %s", lib, goldenLibrarySHA)
			}
		})
	}
}
