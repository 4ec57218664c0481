package main

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/reversible-eda/rcgp/internal/bits"
	"github.com/reversible-eda/rcgp/internal/blif"
	"github.com/reversible-eda/rcgp/internal/cache"
)

func wideBLIFs(seed int64) []string {
	var out []string
	for _, d := range wideDesigns(seed) {
		out = append(out, d.BLIF)
	}
	return out
}

func streamHexes(t *testing.T, seed int64) [][]string {
	t.Helper()
	streams, err := serviceStreams(seed, serviceCallers, servicePerCaller, serviceHits)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]string
	for _, s := range streams {
		for _, r := range s {
			out = append(out, r.Hex())
		}
	}
	return out
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	if a, b := wideBLIFs(7), wideBLIFs(7); !reflect.DeepEqual(a, b) {
		t.Error("wide designs differ between two draws of seed 7")
	}
	if a, b := wideBLIFs(7), wideBLIFs(8); reflect.DeepEqual(a, b) {
		t.Error("wide designs are identical for seeds 7 and 8")
	}
	if a, b := streamHexes(t, 7), streamHexes(t, 7); !reflect.DeepEqual(a, b) {
		t.Error("service streams differ between two draws of seed 7")
	}
	if a, b := streamHexes(t, 7), streamHexes(t, 8); reflect.DeepEqual(a, b) {
		t.Error("service streams are identical for seeds 7 and 8")
	}
}

// TestWideDesignsMatchReference simulates each parsed BLIF design on random
// assignments and compares every output with the design's reference model.
func TestWideDesignsMatchReference(t *testing.T) {
	const words = 4
	for _, seed := range []int64{1, 2, 3} {
		for _, d := range wideDesigns(seed) {
			a, err := blif.Parse(strings.NewReader(d.BLIF))
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, d.Name, err)
			}
			if a.NumPIs() != d.Inputs || a.NumPIs() <= 14 || a.NumPOs() != d.Outputs {
				t.Fatalf("seed %d %s: %d inputs / %d outputs, want %d (> 14) / %d",
					seed, d.Name, a.NumPIs(), a.NumPOs(), d.Inputs, d.Outputs)
			}
			rng := rand.New(rand.NewSource(seed))
			in := make([]bits.Vec, d.Inputs)
			for i := range in {
				in[i] = bits.NewWords(words)
				in[i].Randomize(rng)
			}
			out := a.Simulate(in)
			for s := 0; s < 64*words; s++ {
				pi := make([]bool, d.Inputs)
				for i := range pi {
					pi[i] = in[i].Get(s)
				}
				want := d.Eval(pi)
				for o := range want {
					if out[o].Get(s) != want[o] {
						t.Fatalf("seed %d %s: output %d differs from the reference on sample %d", seed, d.Name, o, s)
					}
				}
			}
		}
	}
}

// TestServiceStreamCacheStructure checks what makes the hit count a
// function of the seed: variants share the NPN signature of an earlier
// fresh request of the same caller, and fresh requests never share one.
func TestServiceStreamCacheStructure(t *testing.T) {
	streams, err := serviceStreams(5, serviceCallers, servicePerCaller, serviceHits)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for c, s := range streams {
		if len(s) != servicePerCaller {
			t.Fatalf("caller %d has %d requests, want %d", c, len(s), servicePerCaller)
		}
		variants := 0
		for i, r := range s {
			key, _, err := cache.Signature(r.Tables)
			if err != nil {
				t.Fatal(err)
			}
			if r.NumInputs < 3 || r.NumInputs > 5 {
				t.Errorf("caller %d request %d has %d inputs", c, i, r.NumInputs)
			}
			if !r.Variant {
				if seen[key] {
					t.Errorf("caller %d request %d repeats an earlier NPN class", c, i)
				}
				seen[key] = true
				continue
			}
			variants++
			if r.Of >= i || s[r.Of].Variant {
				t.Fatalf("caller %d request %d is a variant of request %d, not of an earlier fresh one", c, i, r.Of)
			}
			orig, _, _ := cache.Signature(s[r.Of].Tables)
			if key != orig {
				t.Errorf("caller %d request %d: variant signature %s, original %s", c, i, key, orig)
			}
		}
		if variants != serviceHits {
			t.Errorf("caller %d has %d variants, want %d", c, variants, serviceHits)
		}
	}
}
