package cache

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/reversible-eda/rcgp/internal/tt"
)

// ttFromBits builds an n-variable table from a packed bit vector.
func ttFromBits(n int, w uint64) tt.TT {
	f := tt.New(n)
	for s := uint(0); s < 1<<uint(n); s++ {
		if w>>s&1 == 1 {
			f.Set(s, true)
		}
	}
	return f
}

// The cache-key satellite: exhaustively canonicalize ALL 65536 4-input
// functions and check that (a) the signatures partition them into exactly
// the 222 known NPN equivalence classes, (b) the recorded transform
// round-trips (Apply reaches the canonical table, Unapply recovers the
// original), and (c) random NPN-equivalent variants of a function map to
// the same signature. Runs under -race in CI like every other test.
func TestSignatureExhaustive4Input(t *testing.T) {
	classes := make(map[string][]uint64)
	for w := uint64(0); w < 1<<16; w++ {
		f := ttFromBits(4, w)
		key, tr, err := Signature([]tt.TT{f})
		if err != nil {
			t.Fatalf("function %04x: %v", w, err)
		}
		if tr == nil {
			t.Fatalf("function %04x: no transform for an NPN-range design", w)
		}
		classes[key] = append(classes[key], w)

		// Transform round trip at the truth-table level.
		canon := tr.Apply([]tt.TT{f})
		if got := pack(canon[0]); got != packFromKeyCheck(t, key) {
			t.Fatalf("function %04x: Apply produced %04x, key says %04x", w, got, packFromKeyCheck(t, key))
		}
		back := tr.Unapply(canon)
		if !back[0].Equal(f) {
			t.Fatalf("function %04x: Unapply(Apply(f)) != f", w)
		}
	}
	if len(classes) != 222 {
		t.Fatalf("4-input functions partition into %d signatures, want 222 NPN classes", len(classes))
	}

	// NPN-equivalent variants share the signature: spot-check with random
	// transforms of a deterministic sample of functions.
	rng := rand.New(rand.NewSource(4))
	for w := uint64(0); w < 1<<16; w += 97 {
		f := ttFromBits(4, w)
		key, _, _ := Signature([]tt.TT{f})
		for trial := 0; trial < 3; trial++ {
			g := randomNPNVariant(rng, f)
			gkey, _, err := Signature([]tt.TT{g})
			if err != nil {
				t.Fatal(err)
			}
			if gkey != key {
				t.Fatalf("function %04x: NPN variant got signature %q, want %q", w, gkey, key)
			}
		}
	}
}

// packFromKeyCheck parses the canonical table back out of an "npn:" key.
func packFromKeyCheck(t *testing.T, key string) uint64 {
	t.Helper()
	var n, m int
	var w uint64
	if _, err := fmt.Sscanf(key, "npn:%d:%d:%x", &n, &m, &w); err != nil {
		t.Fatalf("unparseable key %q: %v", key, err)
	}
	return w
}

// randomNPNVariant applies a uniformly random input permutation, input
// negation, and output polarity to f.
func randomNPNVariant(rng *rand.Rand, f tt.TT) tt.TT {
	n := f.N
	perm := rng.Perm(n)
	neg := uint(rng.Intn(1 << uint(n)))
	outNeg := rng.Intn(2) == 1
	g := tt.New(n)
	for x := uint(0); x < 1<<uint(n); x++ {
		var y uint
		for i := 0; i < n; i++ {
			bit := x >> uint(i) & 1
			if neg>>uint(i)&1 == 1 {
				bit ^= 1
			}
			if bit == 1 {
				y |= 1 << uint(perm[i])
			}
		}
		v := f.Get(y)
		if outNeg {
			v = !v
		}
		g.Set(x, v)
	}
	return g
}

// Three-input functions fall into the 14 classical NPN classes.
func TestSignatureExhaustive3Input(t *testing.T) {
	classes := make(map[string]bool)
	for w := uint64(0); w < 1<<8; w++ {
		key, _, err := Signature([]tt.TT{ttFromBits(3, w)})
		if err != nil {
			t.Fatal(err)
		}
		classes[key] = true
	}
	if len(classes) != 14 {
		t.Fatalf("3-input functions partition into %d signatures, want 14 NPN classes", len(classes))
	}
}

// Single-output canonicalization must agree with tt.NPNCanonical — the
// cache key is the same canonical representative internal/mig's majority
// matching uses.
func TestSignatureMatchesTTNPNCanonical(t *testing.T) {
	for w := uint64(0); w < 1<<16; w += 31 {
		f := ttFromBits(4, w)
		canonJoint, _ := canonicalize([]tt.TT{f})
		canonTT, _ := tt.NPNCanonical(f)
		if canonJoint[0] != pack(canonTT) {
			t.Fatalf("function %04x: joint canonical %04x != tt.NPNCanonical %04x", w, canonJoint[0], pack(canonTT))
		}
	}
}

// Multi-output designs must canonicalize under one shared input transform:
// swapping inputs or complementing outputs of a 2→4 decoder lands on the
// same signature, while a genuinely different function pair does not.
func TestSignatureMultiOutput(t *testing.T) {
	decoder := func(swap bool, flip uint) []tt.TT {
		tables := make([]tt.TT, 4)
		for o := range tables {
			o := o
			tables[o] = tt.FromFunc(2, func(s uint) bool {
				if swap {
					s = s>>1&1 | s&1<<1
				}
				return (s ^ flip) == uint(o)
			})
		}
		return tables
	}
	base, trBase, err := Signature(decoder(false, 0))
	if err != nil {
		t.Fatal(err)
	}
	if trBase == nil {
		t.Fatal("2-input design should be NPN-canonicalized")
	}
	if k, _, _ := Signature(decoder(true, 0)); k != base {
		t.Fatalf("input-swapped decoder got a different signature")
	}
	if k, _, _ := Signature(decoder(false, 3)); k != base {
		t.Fatalf("input-negated decoder got a different signature")
	}
	// Complement every output: per-output polarity freedom must absorb it.
	inv := decoder(false, 0)
	for i := range inv {
		inv[i] = inv[i].Not()
	}
	if k, _, _ := Signature(inv); k != base {
		t.Fatalf("output-complemented decoder got a different signature")
	}
	// A different function (constant outputs) must not collide.
	other := []tt.TT{tt.Const(2, true), tt.Const(2, false), tt.Const(2, true), tt.Const(2, false)}
	if k, _, _ := Signature(other); k == base {
		t.Fatalf("distinct functions share a signature")
	}
}

func TestSignatureRanges(t *testing.T) {
	if _, _, err := Signature(nil); err == nil {
		t.Fatal("empty table list accepted")
	}
	wide := []tt.TT{tt.New(MaxInputs + 1)}
	if _, _, err := Signature(wide); err == nil {
		t.Fatal("too-wide design accepted")
	}
	// A 6-input design is cacheable but exact-keyed (no transform).
	key, tr, err := Signature([]tt.TT{tt.Var(6, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		t.Fatal("6-input design unexpectedly NPN-canonicalized")
	}
	if key == "" {
		t.Fatal("empty exact key")
	}
	// Exact keys still distinguish functions and recognise identity.
	key2, _, _ := Signature([]tt.TT{tt.Var(6, 0)})
	key3, _, _ := Signature([]tt.TT{tt.Var(6, 1)})
	if key != key2 || key == key3 {
		t.Fatalf("exact keys broken: %q %q %q", key, key2, key3)
	}
}

// canonicalizeRef is the brute-force canonicalization the bit-parallel
// search replaced, kept verbatim as its oracle: for every (permutation,
// input-negation) pair in permutation-major order it remaps every output
// bit by bit, normalizes each output's polarity, and keeps the first
// lexicographically smallest vector.
func canonicalizeRef(tables []tt.TT) ([]uint64, Transform) {
	n := tables[0].N
	size := uint(1) << uint(n)
	mask := uint64(1)<<size - 1
	packed := make([]uint64, len(tables))
	for k, f := range tables {
		for s := uint(0); s < size; s++ {
			if f.Get(s) {
				packed[k] |= 1 << s
			}
		}
	}

	ts := refTransformsFor(n)
	cand := make([]uint64, len(tables))
	candNeg := make([]bool, len(tables))
	best := make([]uint64, len(tables))
	var bestTr Transform
	first := true

	for t, remap := range ts.remaps {
		for k, w := range packed {
			var b uint64
			for s := uint(0); s < size; s++ {
				b |= (w >> remap[s] & 1) << s
			}
			if nb := ^b & mask; nb < b {
				cand[k], candNeg[k] = nb, true
			} else {
				cand[k], candNeg[k] = b, false
			}
		}
		if first || lexLessRef(cand, best) {
			first = false
			copy(best, cand)
			bestTr = Transform{
				N:         n,
				Perm:      append([]uint8(nil), ts.perms[t/int(ts.negs)]...),
				InputNeg:  uint32(t) % ts.negs,
				OutputNeg: append([]bool(nil), candNeg...),
			}
		}
	}
	return best, bestTr
}

// refTransformSet enumerates every (permutation, input-negation) pair of
// one arity with the original assignment each canonical assignment reads.
type refTransformSet struct {
	perms  [][]uint8
	negs   uint32
	remaps [][]uint8 // [perm*negs+neg][canonical s] = original assignment
}

var (
	refTransformSets [tt.NPNMaxVars + 1]*refTransformSet
	refTransformOnce [tt.NPNMaxVars + 1]sync.Once
)

func refTransformsFor(n int) *refTransformSet {
	refTransformOnce[n].Do(func() {
		size := uint(1) << uint(n)
		negs := uint32(1) << uint(n)
		ts := &refTransformSet{perms: permutations(n), negs: negs}
		for _, perm := range ts.perms {
			for neg := uint32(0); neg < negs; neg++ {
				remap := make([]uint8, size)
				for s := uint(0); s < size; s++ {
					var o uint8
					for i := 0; i < n; i++ {
						bit := s >> uint(i) & 1
						if neg>>uint(i)&1 == 1 {
							bit ^= 1
						}
						if bit == 1 {
							o |= 1 << uint(perm[i])
						}
					}
					remap[s] = o
				}
				ts.remaps = append(ts.remaps, remap)
			}
		}
		refTransformSets[n] = ts
	})
	return refTransformSets[n]
}

func lexLessRef(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// checkAgainstRef fails unless canonicalize returns exactly the reference's
// canonical words and transform.
func checkAgainstRef(t *testing.T, tables []tt.TT) {
	t.Helper()
	got, gotTr := canonicalize(tables)
	want, wantTr := canonicalizeRef(tables)
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotTr, wantTr) {
		words := make([]uint64, len(tables))
		for k, f := range tables {
			words[k] = pack(f)
		}
		t.Fatalf("n=%d tables %x: canonicalize = %x %+v, reference = %x %+v",
			tables[0].N, words, got, gotTr, want, wantTr)
	}
}

// The bit-parallel search must agree with the brute-force reference on
// the canonical words and on the transform (permutation, input negation,
// output polarity), so cache keys, stored netlists and learned libraries
// are unchanged: exhaustively for every 1–3-input function with one or
// two outputs and every 4-input single-output function.
func TestCanonicalizeMatchesReferenceExhaustive(t *testing.T) {
	for n := 1; n <= 3; n++ {
		size := uint64(1) << (uint64(1) << uint(n))
		for a := uint64(0); a < size; a++ {
			checkAgainstRef(t, []tt.TT{ttFromBits(n, a)})
			for b := uint64(0); b < size; b++ {
				checkAgainstRef(t, []tt.TT{ttFromBits(n, a), ttFromBits(n, b)})
			}
		}
	}
	for w := uint64(0); w < 1<<16; w++ {
		checkAgainstRef(t, []tt.TT{ttFromBits(4, w)})
	}
}

// Seeded 5-input multi-output cases, biased towards ties between
// transforms: symmetric functions (every permutation reaches the same
// vector), duplicated and complemented outputs, constants and projections
// alongside random tables.
func TestCanonicalizeMatchesReferenceRandom5(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	symmetric := func() uint64 {
		// A function of the input weight only.
		byWeight := rng.Uint32()
		var w uint64
		for s := uint(0); s < 32; s++ {
			if byWeight>>uint(bits.OnesCount(s))&1 == 1 {
				w |= 1 << s
			}
		}
		return w
	}
	cases := 2000
	if testing.Short() {
		cases = 200
	}
	for c := 0; c < cases; c++ {
		m := 1 + rng.Intn(6)
		words := make([]uint64, m)
		for k := range words {
			switch rng.Intn(6) {
			case 0:
				words[k] = symmetric()
			case 1:
				if k > 0 {
					words[k] = words[rng.Intn(k)]
				} else {
					words[k] = symmetric()
				}
			case 2:
				if k > 0 {
					words[k] = ^words[rng.Intn(k)] & 0xffffffff
				} else {
					words[k] = uint64(rng.Uint32())
				}
			case 3:
				words[k] = []uint64{0, 0xffffffff, 0xaaaaaaaa, 0xcccccccc}[rng.Intn(4)]
			default:
				words[k] = uint64(rng.Uint32())
			}
		}
		tables := make([]tt.TT, m)
		for k, w := range words {
			tables[k] = ttFromBits(5, w)
		}
		checkAgainstRef(t, tables)
	}
}

// FuzzCanonicalize compares the bit-parallel search with the reference on
// arbitrary 1–5-input functions with up to four outputs.
func FuzzCanonicalize(f *testing.F) {
	f.Add(uint8(5), uint8(2), uint64(0x6996966996696996), uint64(0xfee8e880))
	f.Add(uint8(3), uint8(4), uint64(0x96e8), uint64(0x8001))
	f.Add(uint8(4), uint8(1), uint64(0x0000), uint64(0))
	f.Fuzz(func(t *testing.T, nIn, mOut uint8, a, b uint64) {
		n := 1 + int(nIn)%tt.NPNMaxVars
		m := 1 + int(mOut)%4
		words := []uint64{a, b, a ^ b, a >> 32}
		tables := make([]tt.TT, m)
		for k := range tables {
			tables[k] = ttFromBits(n, words[k])
		}
		checkAgainstRef(t, tables)
	})
}

// canonSink keeps the benchmarked calls from being optimized away.
var canonSink []uint64

// BenchmarkCanonicalize times the bit-parallel search against the
// brute-force reference on a 5-input, 6-output function.
func BenchmarkCanonicalize(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	tables := make([]tt.TT, 6)
	for k := range tables {
		tables[k] = ttFromBits(5, uint64(rng.Uint32()))
	}
	b.Run("bitparallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			canonSink, _ = canonicalize(tables)
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			canonSink, _ = canonicalizeRef(tables)
		}
	})
}
