package main

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/reversible-eda/rcgp/internal/cache"
	"github.com/reversible-eda/rcgp/internal/tt"
)

// This file holds the workload generators. Every generator is a pure
// function of the workload seed: the same seed yields byte-identical
// inputs, and the program under test only ever sees the generated inputs.

// wideDesign is one seeded structural design with more than 14 inputs,
// emitted as BLIF text. The seed fixes the order in which the design's
// logical inputs and outputs appear as primary inputs and outputs. The
// function family, its size and its polarity are fixed: a permutation does
// not change what the initial netlist costs, while complementing inputs or
// outputs would (by up to 90 % in buffers on the adder), and the workload
// must cost about the same for every seed.
type wideDesign struct {
	Name    string
	Inputs  int
	Outputs int
	BLIF    string

	// piRole[j] is the logical input primary input j carries; poRole[j] the
	// logical output primary output j carries.
	piRole []int
	poRole []int
	logic  func(in []bool) []bool
}

// Eval is the reference model of the design: the outputs for one primary
// input assignment, computed directly from the family's definition.
func (d *wideDesign) Eval(pi []bool) []bool {
	in := make([]bool, d.Inputs)
	for j, v := range pi {
		in[d.piRole[j]] = v
	}
	out := d.logic(in)
	po := make([]bool, d.Outputs)
	for j := range po {
		po[j] = out[d.poRole[j]]
	}
	return po
}

// wideCopies is how many independently wired copies of each family the
// wide workload synthesizes. The search's final buffer and depth counts
// vary from run to run; summing over several copies steadies the totals.
const wideCopies = 3

// wideDesigns returns the wide workload: wideCopies copies each of an
// 8-bit adder (16 inputs), an 8-bit magnitude comparator (16 inputs) and a
// 16:1 multiplexer tree (20 inputs).
func wideDesigns(seed int64) []*wideDesign {
	rng := rand.New(rand.NewSource(seed))
	var out []*wideDesign
	for k := 0; k < wideCopies; k++ {
		out = append(out,
			newWide(rng, fmt.Sprintf("adder8_%d", k), 16, 9, adderLogic, adderNodes),
			newWide(rng, fmt.Sprintf("compare8_%d", k), 16, 3, compareLogic, compareNodes),
			newWide(rng, fmt.Sprintf("mux16_%d", k), 20, 1, muxLogic, muxNodes))
	}
	return out
}

// newWide draws the design's wiring from rng and renders its BLIF. body
// writes the .names tables over the logical signals r<i> (inputs) and
// y<k> (outputs).
func newWide(rng *rand.Rand, name string, nIn, nOut int, logic func([]bool) []bool, body func(*strings.Builder)) *wideDesign {
	d := &wideDesign{
		Name: name, Inputs: nIn, Outputs: nOut,
		piRole: rng.Perm(nIn), poRole: rng.Perm(nOut),
		logic: logic,
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, ".model %s\n.inputs", name)
	for j := 0; j < nIn; j++ {
		fmt.Fprintf(&sb, " x%d", j)
	}
	sb.WriteString("\n.outputs")
	for j := 0; j < nOut; j++ {
		fmt.Fprintf(&sb, " z%d", j)
	}
	sb.WriteString("\n")
	for j := 0; j < nIn; j++ {
		fmt.Fprintf(&sb, ".names x%d r%d\n1 1\n", j, d.piRole[j])
	}
	body(&sb)
	for j := 0; j < nOut; j++ {
		fmt.Fprintf(&sb, ".names y%d z%d\n1 1\n", d.poRole[j], j)
	}
	sb.WriteString(".end\n")
	d.BLIF = sb.String()
	return d
}

func randBools(rng *rand.Rand, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = rng.Intn(2) == 1
	}
	return out
}

// adderLogic: inputs a = r0..r7, b = r8..r15 (LSB first); outputs the
// 9-bit sum y0..y8.
func adderLogic(in []bool) []bool {
	var a, b uint
	for i := 0; i < 8; i++ {
		if in[i] {
			a |= 1 << uint(i)
		}
		if in[8+i] {
			b |= 1 << uint(i)
		}
	}
	s := a + b
	out := make([]bool, 9)
	for i := range out {
		out[i] = s>>uint(i)&1 == 1
	}
	return out
}

// adderNodes is a ripple-carry adder; c<i> is the carry into bit i.
func adderNodes(sb *strings.Builder) {
	sb.WriteString(".names r0 r8 y0\n10 1\n01 1\n.names r0 r8 c1\n11 1\n")
	for i := 1; i < 8; i++ {
		fmt.Fprintf(sb, ".names r%d r%d c%d y%d\n100 1\n010 1\n001 1\n111 1\n", i, 8+i, i, i)
		fmt.Fprintf(sb, ".names r%d r%d c%d c%d\n11- 1\n1-1 1\n-11 1\n", i, 8+i, i, i+1)
	}
	sb.WriteString(".names c8 y8\n1 1\n")
}

// compareLogic: inputs a = r0..r7, b = r8..r15; outputs y0 = a>b,
// y1 = a==b, y2 = a<b.
func compareLogic(in []bool) []bool {
	var a, b uint
	for i := 0; i < 8; i++ {
		if in[i] {
			a |= 1 << uint(i)
		}
		if in[8+i] {
			b |= 1 << uint(i)
		}
	}
	return []bool{a > b, a == b, a < b}
}

// compareNodes scans from the most significant bit: g<i>/e<i> are
// "greater"/"equal so far" over bits 7..i.
func compareNodes(sb *strings.Builder) {
	sb.WriteString(".names r7 r15 g7\n10 1\n.names r7 r15 e7\n11 1\n00 1\n")
	for i := 6; i >= 0; i-- {
		fmt.Fprintf(sb, ".names g%d e%d r%d r%d g%d\n1--- 1\n-110 1\n", i+1, i+1, i, 8+i, i)
		fmt.Fprintf(sb, ".names e%d r%d r%d e%d\n111 1\n100 1\n", i+1, i, 8+i, i)
	}
	sb.WriteString(".names g0 y0\n1 1\n.names e0 y1\n1 1\n.names g0 e0 y2\n00 1\n")
}

// muxLogic: inputs select = r0..r3, data = r4..r19; output y0 = data[select].
func muxLogic(in []bool) []bool {
	var sel int
	for i := 0; i < 4; i++ {
		if in[i] {
			sel |= 1 << uint(i)
		}
	}
	return []bool{in[4+sel]}
}

// muxNodes is a balanced tree of 2:1 multiplexers; m<l>_<k> is node k of
// level l, level 0 being the data inputs.
func muxNodes(sb *strings.Builder) {
	name := func(level, k int) string {
		if level == 0 {
			return fmt.Sprintf("r%d", 4+k)
		}
		return fmt.Sprintf("m%d_%d", level, k)
	}
	for level := 1; level <= 4; level++ {
		for k := 0; k < 16>>uint(level); k++ {
			fmt.Fprintf(sb, ".names r%d %s %s %s\n01- 1\n1-1 1\n", level-1, name(level-1, 2*k), name(level-1, 2*k+1), name(level, k))
		}
	}
	sb.WriteString(".names m4_0 y0\n1 1\n")
}

// serviceRequest is one request of a service caller's stream.
type serviceRequest struct {
	NumInputs int
	Tables    []tt.TT
	// Variant marks an NPN variant (input permutation/negation, output
	// complement) of the caller's earlier request Of, which that caller
	// has already got back; the service answers it from its cache.
	Variant bool
	Of      int
}

// Hex renders the request's truth tables in the wire format.
func (r serviceRequest) Hex() []string {
	out := make([]string, len(r.Tables))
	for i, f := range r.Tables {
		out[i] = f.Hex()
	}
	return out
}

// serviceShapes are the (inputs, outputs) shapes of the service function
// pool, in the order the pool cycles through them.
var serviceShapes = [][2]int{{3, 3}, {4, 2}, {4, 3}, {5, 2}, {5, 3}}

// servicePoolSeed fixes the service function pool. The workload seed draws
// everything else — which pool function each request carries, under which
// input permutation, and which requests are variants under which NPN
// transform — so every seed asks for functions of the same classes and
// costs about the same to serve.
const servicePoolSeed = 7919

// serviceStreams draws one request stream per caller. Each stream has
// exactly hits NPN variants of the caller's own earlier fresh functions, at
// seeded positions after the first request. Each fresh function is a pool
// function under a random input permutation; no two pool functions share
// an NPN class, so a request hits the cache exactly when it is a variant.
func serviceStreams(seed int64, callers, perCaller, hits int) ([][]serviceRequest, error) {
	if hits >= perCaller {
		return nil, fmt.Errorf("%d cache hits need more than %d requests per caller", hits, perCaller)
	}
	pool, err := functionPool(callers * (perCaller - hits))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	// Deal the pool shape by shape, so every caller's k-th fresh function
	// has the same shape and the callers carry equal loads.
	byShape := make([][][]tt.TT, len(serviceShapes))
	for i, f := range pool {
		byShape[i%len(serviceShapes)] = append(byShape[i%len(serviceShapes)], f)
	}
	for _, g := range byShape {
		rng.Shuffle(len(g), func(i, k int) { g[i], g[k] = g[k], g[i] })
	}
	streams := make([][]serviceRequest, callers)
	for c := range streams {
		variant := make([]bool, perCaller)
		for _, i := range rng.Perm(perCaller - 1)[:hits] {
			variant[i+1] = true
		}
		var fresh []int
		variants := 0
		for i := 0; i < perCaller; i++ {
			req := serviceRequest{}
			if variant[i] {
				// Variants repeat the caller's fresh functions in turn, so
				// every seed repeats the same mix of shapes.
				req.Variant, req.Of = true, fresh[variants%len(fresh)]
				variants++
				req.Tables = npnVariant(rng, streams[c][req.Of].Tables)
			} else {
				g := len(fresh) % len(serviceShapes)
				req.Tables = permuted(rng, byShape[g][0])
				byShape[g] = byShape[g][1:]
				fresh = append(fresh, i)
			}
			req.NumInputs = req.Tables[0].N
			streams[c] = append(streams[c], req)
		}
	}
	return streams, nil
}

// functionPool draws n random functions, cycling through serviceShapes, no
// two of them in one NPN class.
func functionPool(n int) ([][]tt.TT, error) {
	rng := rand.New(rand.NewSource(servicePoolSeed))
	classes := make(map[string]bool)
	pool := make([][]tt.TT, n)
	for i := range pool {
		shape := serviceShapes[i%len(serviceShapes)]
		f, err := freshFunction(rng, classes, shape[0], shape[1])
		if err != nil {
			return nil, err
		}
		pool[i] = f
	}
	return pool, nil
}

// freshFunction draws a random n-input, m-output function whose NPN class
// is not yet in classes (and records it). Constant outputs are redrawn.
func freshFunction(rng *rand.Rand, classes map[string]bool, n, m int) ([]tt.TT, error) {
	for {
		tables := make([]tt.TT, m)
		for k := range tables {
			for {
				f := tt.New(n)
				for s := uint(0); s < uint(f.Size()); s++ {
					f.Set(s, rng.Intn(2) == 1)
				}
				if !f.IsConst0() && !f.IsConst1() {
					tables[k] = f
					break
				}
			}
		}
		key, _, err := cache.Signature(tables)
		if err != nil {
			return nil, err
		}
		if !classes[key] {
			classes[key] = true
			return tables, nil
		}
	}
}

// npnVariant applies a random joint NPN transform — one input permutation
// and negation shared by every output, plus per-output complements.
func npnVariant(rng *rand.Rand, tables []tt.TT) []tt.TT {
	tr := randomPermutation(rng, tables)
	tr.InputNeg = uint32(rng.Intn(1 << uint(tr.N)))
	tr.OutputNeg = randBools(rng, len(tables))
	return tr.Apply(tables)
}

// permuted applies a random input permutation. Unlike negations, a
// permutation leaves what the synthesized circuit costs about the same, so
// fresh requests use it to vary the functions without varying the work.
func permuted(rng *rand.Rand, tables []tt.TT) []tt.TT {
	return randomPermutation(rng, tables).Apply(tables)
}

func randomPermutation(rng *rand.Rand, tables []tt.TT) *cache.Transform {
	n := tables[0].N
	tr := &cache.Transform{N: n, Perm: make([]uint8, n), OutputNeg: make([]bool, len(tables))}
	for i, p := range rng.Perm(n) {
		tr.Perm[i] = uint8(p)
	}
	return tr
}
