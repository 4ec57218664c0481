// Package cache is the NPN-canonical synthesis result cache behind the
// serving subsystem: synthesized RQFP netlists are stored under a signature
// of the specification's function class, so a re-submitted function — or
// any function in the same NPN class — is answered with a stored netlist
// instead of minutes of CGP search (the paper's §3.2 runtime is dominated
// by fitness evaluation, which a cache hit skips entirely).
//
// Designs with at most tt.NPNMaxVars inputs are canonicalized jointly over
// all outputs: one input permutation and negation vector shared by every
// output plus a per-output polarity, i.e. the multi-output generalization
// of single-output NPN classes. Because RQFP majority gates absorb any
// input/output inversion into their free inverter configurations
// (rqfp.TransformIO), a stored netlist converts to any member of its class
// without adding gates in the common case. Wider designs (up to MaxInputs)
// fall back to an exact truth-table signature. Either way, a hit is
// re-verified against the requesting specification by the caller before it
// is served, so a cache corruption can cost a redundant search but never a
// wrong circuit.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/bits"
	"strconv"
	"sync"

	"github.com/reversible-eda/rcgp/internal/rqfp"
	"github.com/reversible-eda/rcgp/internal/tt"
)

// MaxInputs bounds cacheable designs: signatures are computed from full
// truth tables, which stay cheap up to the same 14-input limit the
// resubstitution pass uses for its exhaustive oracle.
const MaxInputs = 14

// MaxOutputs bounds cacheable designs on the output side.
const MaxOutputs = 64

// ErrUncacheable is returned for designs outside the cacheable range.
var ErrUncacheable = errors.New("cache: design outside the cacheable range")

// Transform records how a specification maps onto its canonical class
// representative: canonical input i reads original input Perm[i],
// complemented when bit i of InputNeg is set, and canonical output k is
// original output k complemented when OutputNeg[k] — the multi-output
// generalization of tt.NPNTransform. The zero-value/nil Transform is the
// identity (exact-signature designs).
type Transform struct {
	N         int     `json:"n"`
	Perm      []uint8 `json:"perm"`
	InputNeg  uint32  `json:"input_neg"`
	OutputNeg []bool  `json:"output_neg"`
}

// Signature returns the cache key of a specification, plus the transform
// onto the canonical representative for NPN-canonicalized designs (nil for
// exact-signature designs). Functions in the same class share the key.
func Signature(tables []tt.TT) (string, *Transform, error) {
	if len(tables) == 0 || len(tables) > MaxOutputs {
		return "", nil, ErrUncacheable
	}
	n := tables[0].N
	if n < 1 || n > MaxInputs {
		return "", nil, ErrUncacheable
	}
	for _, f := range tables {
		if f.N != n {
			return "", nil, fmt.Errorf("cache: mixed input counts (%d vs %d)", f.N, n)
		}
	}
	if n <= tt.NPNMaxVars {
		canon, tr := canonicalize(tables)
		key := make([]byte, 0, 16+9*len(canon))
		key = append(key, "npn:"...)
		key = strconv.AppendInt(key, int64(n), 10)
		key = append(key, ':')
		key = strconv.AppendInt(key, int64(len(tables)), 10)
		for _, w := range canon {
			key = append(key, ':')
			key = strconv.AppendUint(key, w, 16)
		}
		return string(key), &tr, nil
	}
	h := sha256.New()
	fmt.Fprintf(h, "%d:%d", n, len(tables))
	for _, f := range tables {
		h.Write([]byte{':'})
		h.Write([]byte(f.Hex()))
	}
	return fmt.Sprintf("xct:%d:%d:%s", n, len(tables), hex.EncodeToString(h.Sum(nil))), nil, nil
}

// pack flattens a ≤5-input truth table into one uint64.
func pack(f tt.TT) uint64 {
	return f.Bits[0] & (uint64(1)<<uint(f.Size()) - 1)
}

// permSet is the precomputed enumeration of the input permutations of one
// arity, in the order canonicalize walks them, with each permutation's
// assignment remap under no input negation: remaps[p][s] is the original
// assignment canonical assignment s reads. Shared across all
// canonicalizations of that arity.
type permSet struct {
	perms  [][]uint8
	remaps [][]uint8
}

var (
	permSets [tt.NPNMaxVars + 1]*permSet
	permOnce [tt.NPNMaxVars + 1]sync.Once
)

func permsFor(n int) *permSet {
	permOnce[n].Do(func() {
		size := uint(1) << uint(n)
		ps := &permSet{perms: permutations(n)}
		ps.remaps = make([][]uint8, len(ps.perms))
		for p, perm := range ps.perms {
			remap := make([]uint8, size)
			for s := uint(0); s < size; s++ {
				var o uint8
				for i := 0; i < n; i++ {
					if s>>uint(i)&1 == 1 {
						o |= 1 << perm[i]
					}
				}
				remap[s] = o
			}
			ps.remaps[p] = remap
		}
		permSets[n] = ps
	})
	return permSets[n]
}

// flipMasks[i] selects the table positions whose variable i is 0.
var flipMasks = [tt.NPNMaxVars]uint64{
	0x5555555555555555,
	0x3333333333333333,
	0x0f0f0f0f0f0f0f0f,
	0x00ff00ff00ff00ff,
	0x0000ffff0000ffff,
}

// permute reorders the variables of a packed table: bit s of the result is
// bit remap[s] of w.
func permute(w uint64, remap []uint8) uint64 {
	var b uint64
	for s, o := range remap {
		b |= (w >> o & 1) << uint(s)
	}
	return b
}

// negateInput complements variable i of a packed table by swapping its
// variable-i halves.
func negateInput(b uint64, i int) uint64 {
	sh, m := uint(1)<<uint(i), flipMasks[i]
	return (b&m)<<sh | (b>>sh)&m
}

// negateInputs complements the variables set in neg of a packed table.
func negateInputs(b uint64, neg uint32) uint64 {
	for i := 0; neg != 0; i, neg = i+1, neg>>1 {
		if neg&1 == 1 {
			b = negateInput(b, i)
		}
	}
	return b
}

// canonicalize finds the lexicographically smallest output-table vector
// over all shared input permutations/negations with per-output polarity
// freedom, and the transform producing it from the input. Transforms are
// numbered permutation-major (index p·2ⁿ + neg); of several transforms
// reaching the smallest vector the lowest-numbered one is returned.
//
// The search is bit-parallel. Each output is permuted at most once per
// permutation, and the 2ⁿ input negations of a permuted table are masked
// half-swaps, since negation neg reads assignment s⊕neg of the table with
// no negation. Output 0, which every candidate reads, is negated all 2ⁿ
// ways up front at one half-swap each. A candidate is abandoned at the
// first output whose polarity-normalized table is greater than the best
// vector's under an equal prefix, so later outputs are rarely permuted at
// all.
func canonicalize(tables []tt.TT) ([]uint64, Transform) {
	n := tables[0].N
	size := uint(1) << uint(n)
	mask := uint64(1)<<size - 1
	negs := uint32(1) << uint(n)
	m := len(tables)
	packed := make([]uint64, m)
	for k, f := range tables {
		packed[k] = pack(f)
	}

	ps := permsFor(n)
	best := make([]uint64, m)
	bestP, bestIn := -1, uint32(0)
	var bestNeg uint64 // bit k: canonical output k is complemented
	cand := make([]uint64, m)
	permuted := make([]uint64, m)
	var first [1 << tt.NPNMaxVars]uint64 // output 0 under perm p, by negation
	for p, remap := range ps.remaps {
		first[0] = permute(packed[0], remap)
		for neg := uint32(1); neg < negs; neg++ {
			first[neg] = negateInput(first[neg&(neg-1)], bits.TrailingZeros32(neg))
		}
		var have uint64 // bit k: permuted[k] holds output k ≥ 1 under perm p
		for neg := uint32(0); neg < negs; neg++ {
			less := bestP < 0
			var candNeg uint64
			k := 0
			for ; k < m; k++ {
				c := first[neg]
				if k > 0 {
					if have>>uint(k)&1 == 0 {
						permuted[k] = permute(packed[k], remap)
						have |= 1 << uint(k)
					}
					c = negateInputs(permuted[k], neg)
				}
				if nc := ^c & mask; nc < c {
					c = nc
					candNeg |= 1 << uint(k)
				}
				if !less {
					if c > best[k] {
						break
					}
					less = c < best[k]
				}
				cand[k] = c
			}
			if k == m && less {
				copy(best, cand)
				bestP, bestIn, bestNeg = p, neg, candNeg
			}
		}
	}
	tr := Transform{
		N:         n,
		Perm:      append([]uint8(nil), ps.perms[bestP]...),
		InputNeg:  bestIn,
		OutputNeg: make([]bool, m),
	}
	for k := range tr.OutputNeg {
		tr.OutputNeg[k] = bestNeg>>uint(k)&1 == 1
	}
	return best, tr
}

// permutations enumerates all permutations of 0..n-1 in a deterministic
// order.
func permutations(n int) [][]uint8 {
	base := make([]uint8, n)
	for i := range base {
		base[i] = uint8(i)
	}
	var out [][]uint8
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			p := make([]uint8, n)
			copy(p, base)
			out = append(out, p)
			return
		}
		for i := k; i < n; i++ {
			base[k], base[i] = base[i], base[k]
			rec(k + 1)
			base[k], base[i] = base[i], base[k]
		}
	}
	rec(0)
	return out
}

// Apply transforms original truth tables into the canonical representative:
// g_k(s) = f_k(x) ⊕ OutputNeg[k] with x[Perm[i]] = s_i ⊕ neg_i.
func (tr *Transform) Apply(tables []tt.TT) []tt.TT {
	if tr == nil {
		return tables
	}
	out := make([]tt.TT, len(tables))
	for k, f := range tables {
		g := tt.New(f.N)
		for s := uint(0); s < uint(f.Size()); s++ {
			var o uint
			for i := 0; i < f.N; i++ {
				bit := s >> uint(i) & 1
				if tr.InputNeg>>uint(i)&1 == 1 {
					bit ^= 1
				}
				if bit == 1 {
					o |= 1 << uint(tr.Perm[i])
				}
			}
			v := f.Get(o)
			if tr.OutputNeg[k] {
				v = !v
			}
			g.Set(s, v)
		}
		out[k] = g
	}
	return out
}

// Unapply inverts Apply, recovering the original tables from canonical
// ones: f_k(x) = g_k(s) ⊕ OutputNeg[k] with s_i = x[Perm[i]] ⊕ neg_i.
func (tr *Transform) Unapply(canon []tt.TT) []tt.TT {
	if tr == nil {
		return canon
	}
	out := make([]tt.TT, len(canon))
	for k, g := range canon {
		f := tt.New(g.N)
		for x := uint(0); x < uint(g.Size()); x++ {
			var s uint
			for i := 0; i < g.N; i++ {
				bit := x >> uint(tr.Perm[i]) & 1
				if tr.InputNeg>>uint(i)&1 == 1 {
					bit ^= 1
				}
				if bit == 1 {
					s |= 1 << uint(i)
				}
			}
			v := g.Get(s)
			if tr.OutputNeg[k] {
				v = !v
			}
			f.Set(x, v)
		}
		out[k] = f
	}
	return out
}

// CanonicalNetlist rewrites a netlist implementing the original function
// into one implementing the canonical representative (the store direction).
func (tr *Transform) CanonicalNetlist(n *rqfp.Netlist) (*rqfp.Netlist, error) {
	if tr == nil {
		return n, nil
	}
	if n.NumPI != tr.N || len(n.POs) != len(tr.OutputNeg) {
		return nil, fmt.Errorf("cache: netlist interface %d/%d does not match transform %d/%d",
			n.NumPI, len(n.POs), tr.N, len(tr.OutputNeg))
	}
	piMap := make([]int, tr.N)
	piNeg := make([]bool, tr.N)
	for i := 0; i < tr.N; i++ {
		piMap[tr.Perm[i]] = i
		piNeg[tr.Perm[i]] = tr.InputNeg>>uint(i)&1 == 1
	}
	return n.TransformIO(piMap, piNeg, tr.OutputNeg)
}

// OriginalNetlist rewrites a netlist implementing the canonical
// representative into one implementing the original function (the lookup
// direction — "the NPN transform un-applied").
func (tr *Transform) OriginalNetlist(n *rqfp.Netlist) (*rqfp.Netlist, error) {
	if tr == nil {
		return n, nil
	}
	if n.NumPI != tr.N || len(n.POs) != len(tr.OutputNeg) {
		return nil, fmt.Errorf("cache: netlist interface %d/%d does not match transform %d/%d",
			n.NumPI, len(n.POs), tr.N, len(tr.OutputNeg))
	}
	piMap := make([]int, tr.N)
	piNeg := make([]bool, tr.N)
	for i := 0; i < tr.N; i++ {
		piMap[i] = int(tr.Perm[i])
		piNeg[i] = tr.InputNeg>>uint(i)&1 == 1
	}
	return n.TransformIO(piMap, piNeg, tr.OutputNeg)
}
