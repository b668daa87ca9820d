package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/fec"
	"repro/internal/itemset"
	"repro/internal/mining/moment"
	"repro/internal/rng"
)

// classesWith builds FECs with the given supports (ascending) and sizes 1.
func classesWith(supports ...int) []fec.Class {
	out := make([]fec.Class, len(supports))
	for i, s := range supports {
		out[i] = fec.Class{Support: s, Members: []itemset.Itemset{itemset.New(itemset.Item(i))}}
	}
	return out
}

func testParams() Params {
	return Params{Epsilon: 0.016, Delta: 0.4, MinSupport: 25, VulnSupport: 5}
}

func checkWithinMaxBias(t *testing.T, name string, classes []fec.Class, p Params, biases []int) {
	t.Helper()
	if len(biases) != len(classes) {
		t.Fatalf("%s: %d biases for %d classes", name, len(biases), len(classes))
	}
	for i, b := range biases {
		m := p.MaxBias(classes[i].Support)
		if b > m || b < -m {
			t.Errorf("%s: class %d (t=%d) bias %d outside ±%d",
				name, i, classes[i].Support, b, m)
		}
	}
}

func TestBasicBiasesAllZero(t *testing.T) {
	classes := classesWith(25, 30, 50)
	b := Basic{}.Biases(classes, testParams())
	for i, v := range b {
		if v != 0 {
			t.Errorf("basic bias[%d] = %d", i, v)
		}
	}
	if (Basic{}).SharedDraws() {
		t.Error("basic must draw per itemset")
	}
	if (Basic{}).Name() != "basic" {
		t.Error("name wrong")
	}
}

func TestRatioPreservingProportional(t *testing.T) {
	p := testParams()
	classes := classesWith(25, 50, 100, 200)
	b := RatioPreserving{}.Biases(classes, p)
	checkWithinMaxBias(t, "rp", classes, p, b)
	if b[0] != p.MaxBias(25) {
		t.Errorf("β1 = %d, want max adjustable bias %d", b[0], p.MaxBias(25))
	}
	// β_i/t_i should be (nearly) constant.
	r0 := float64(b[0]) / 25
	for i, c := range classes {
		r := float64(b[i]) / float64(c.Support)
		if math.Abs(r-r0) > 0.05*r0+0.05 {
			t.Errorf("ratio β/t at class %d = %v, want ≈ %v", i, r, r0)
		}
	}
}

func TestRatioPreservingEmptyAndSingle(t *testing.T) {
	p := testParams()
	if got := (RatioPreserving{}).Biases(nil, p); len(got) != 0 {
		t.Error("empty classes should give empty biases")
	}
	b := RatioPreserving{}.Biases(classesWith(30), p)
	if len(b) != 1 || b[0] != p.MaxBias(30) {
		t.Errorf("single class bias = %v", b)
	}
}

// Lemma 3 as a property: the proportional bias never exceeds the class's own
// maximum adjustable bias, across random support ladders.
func TestRatioPreservingLemma3(t *testing.T) {
	src := rng.New(606)
	p := testParams()
	for trial := 0; trial < 200; trial++ {
		n := 2 + src.Intn(20)
		sup := 25
		var sups []int
		for i := 0; i < n; i++ {
			sup += 1 + src.Intn(40)
			sups = append(sups, sup)
		}
		classes := classesWith(sups...)
		b := RatioPreserving{}.Biases(classes, p)
		for i := range classes {
			m := p.MaxBias(classes[i].Support)
			if b[i] > m {
				t.Fatalf("trial %d: bias %d exceeds βm %d at t=%d",
					trial, b[i], m, classes[i].Support)
			}
		}
	}
}

func TestOrderPreservingKeepsEstimatorOrder(t *testing.T) {
	p := testParams()
	src := rng.New(707)
	for trial := 0; trial < 50; trial++ {
		n := 2 + src.Intn(15)
		sup := 25
		var sups []int
		for i := 0; i < n; i++ {
			sup += 1 + src.Intn(6) // dense ladder: overlaps likely
			sups = append(sups, sup)
		}
		classes := classesWith(sups...)
		for _, gamma := range []int{1, 2, 3} {
			b := OrderPreserving{Gamma: gamma}.Biases(classes, p)
			checkWithinMaxBias(t, "op", classes, p, b)
			for i := 1; i < n; i++ {
				ei := classes[i].Support + b[i]
				ep := classes[i-1].Support + b[i-1]
				if ei <= ep {
					t.Fatalf("trial %d γ=%d: estimator order violated at %d: %d <= %d",
						trial, gamma, i, ei, ep)
				}
			}
		}
	}
}

// On a dense ladder the DP should spread estimators further apart than the
// zero-bias assignment, reducing the overlap cost.
func TestOrderPreservingReducesOverlapCost(t *testing.T) {
	p := testParams()
	classes := classesWith(25, 26, 27, 28, 29, 30)
	alpha := p.Alpha()
	cost := func(b []int) float64 {
		total := 0.0
		for i := 0; i < len(classes); i++ {
			for j := 0; j < i; j++ {
				d := (classes[i].Support + b[i]) - (classes[j].Support + b[j])
				if d < alpha+1 {
					w := float64(classes[i].Size() + classes[j].Size())
					total += w * float64(alpha+1-d) * float64(alpha+1-d)
				}
			}
		}
		return total
	}
	zero := make([]int, len(classes))
	op := OrderPreserving{Gamma: 2}.Biases(classes, p)
	if cost(op) > cost(zero) {
		t.Errorf("DP cost %v exceeds zero-bias cost %v (biases %v)", cost(op), cost(zero), op)
	}
}

// Larger γ can only improve (or tie) the exhaustive pairwise cost on a small
// instance where the full DP is exact.
func TestOrderPreservingGammaMonotone(t *testing.T) {
	p := testParams()
	classes := classesWith(25, 26, 28, 29, 31)
	alpha := p.Alpha()
	cost := func(b []int) float64 {
		total := 0.0
		for i := 0; i < len(classes); i++ {
			for j := 0; j < i; j++ {
				d := (classes[i].Support + b[i]) - (classes[j].Support + b[j])
				if d < alpha+1 {
					w := float64(classes[i].Size() + classes[j].Size())
					total += w * float64(alpha+1-d) * float64(alpha+1-d)
				}
			}
		}
		return total
	}
	c1 := cost(OrderPreserving{Gamma: 1}.Biases(classes, p))
	c4 := cost(OrderPreserving{Gamma: 4}.Biases(classes, p))
	if c4 > c1+1e-9 {
		t.Errorf("γ=4 cost %v worse than γ=1 cost %v", c4, c1)
	}
}

func TestOrderPreservingEdgeCases(t *testing.T) {
	p := testParams()
	if got := (OrderPreserving{}).Biases(nil, p); len(got) != 0 {
		t.Error("empty classes")
	}
	b := OrderPreserving{}.Biases(classesWith(40), p)
	if len(b) != 1 {
		t.Fatalf("single class: %v", b)
	}
	checkWithinMaxBias(t, "op-single", classesWith(40), p, b)
}

func TestOrderPreservingCandidatesIncludeAnchors(t *testing.T) {
	p := Params{Epsilon: 0.05, Delta: 0.2, MinSupport: 25, VulnSupport: 5}
	s := OrderPreserving{GridSize: 7}
	c := s.appendCandidates(nil, p, 500) // βm large, grid sampled
	bm := p.MaxBias(500)
	has := func(v int) bool {
		for _, x := range c {
			if x == v {
				return true
			}
		}
		return false
	}
	if !has(0) || !has(bm) || !has(-bm) {
		t.Errorf("candidates %v missing anchors 0/±%d", c, bm)
	}
	for i := 1; i < len(c); i++ {
		if c[i] <= c[i-1] {
			t.Errorf("candidates not sorted: %v", c)
		}
	}
}

func TestHybridInterpolates(t *testing.T) {
	p := testParams()
	classes := classesWith(25, 40, 80, 160)
	op := OrderPreserving{Gamma: 2}.Biases(classes, p)
	rp := RatioPreserving{}.Biases(classes, p)
	h0 := Hybrid{Lambda: 0}.Biases(classes, p)
	h1 := Hybrid{Lambda: 1}.Biases(classes, p)
	for i := range classes {
		if h0[i] != rp[i] {
			t.Errorf("λ=0 class %d: %d != rp %d", i, h0[i], rp[i])
		}
		if h1[i] != op[i] {
			t.Errorf("λ=1 class %d: %d != op %d", i, h1[i], op[i])
		}
	}
	h := Hybrid{Lambda: 0.4}.Biases(classes, p)
	checkWithinMaxBias(t, "hybrid", classes, p, h)
	for i := range classes {
		lo, hi := min(op[i], rp[i]), max(op[i], rp[i])
		if h[i] < lo || h[i] > hi {
			t.Errorf("hybrid bias %d outside [%d,%d]", h[i], lo, hi)
		}
	}
}

func TestHybridPanicsOnBadLambda(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("λ=2 did not panic")
		}
	}()
	Hybrid{Lambda: 2}.Biases(classesWith(25, 30), testParams())
}

func TestSchemeNames(t *testing.T) {
	if (OrderPreserving{Gamma: 3}).Name() != "order-preserving(γ=3)" {
		t.Error("op name")
	}
	if (RatioPreserving{}).Name() != "ratio-preserving" {
		t.Error("rp name")
	}
	if (Hybrid{Lambda: 0.4}).Name() != "hybrid(λ=0.4)" {
		t.Error("hybrid name")
	}
}

// TestOrderPreservingKernelMatchesReference pins the production kernel to
// the map-keyed beam DP in scheme_ref_test.go (biasesSparse): both must
// choose the identical bias assignment at every γ, beam and grid —
// including cost ties, which both must resolve toward the smallest
// predecessor key, and beam cuts, which both must make by (cost, key). This
// is what keeps published bytes stable across rewrites of the kernel.
// Inputs cover tight ladders (uncertainty regions overlap several
// neighbours, so the kernel's overlap windows are wide), spread ones, a
// grid wider than 4,096 points, and the real Moment ladders of the
// optimizer-heavy stream configuration and of a POS-like stream.
func TestOrderPreservingKernelMatchesReference(t *testing.T) {
	agree := func(t *testing.T, what string, s OrderPreserving, classes []fec.Class, p Params) {
		t.Helper()
		cands, maxGrid := s.grids(classes, p)
		want := s.biasesSparse(classes, p, cands, maxGrid, make([]int, len(classes)))
		if got := s.Biases(classes, p); !slices.Equal(got, want) {
			t.Fatalf("%s (%+v): kernel %v != reference %v", what, s, got, want)
		}
	}
	beams := []int{0, 3, 20, 100}

	t.Run("random", func(t *testing.T) {
		src := rng.New(20260808)
		for gamma := 1; gamma <= maxGamma; gamma++ {
			for _, beam := range beams {
				for _, grid := range []int{0, 3, 5, 7} {
					s := OrderPreserving{Gamma: gamma, GridSize: grid, MaxStates: beam}
					trials := 12
					if gamma >= 4 && beam == 0 {
						trials = 2 // the reference's 4,096-state beam costs ~0.1 s a ladder
					}
					for trial := 0; trial < trials; trial++ {
						maxGap := 40
						if trial%2 == 0 {
							maxGap = 3 // tight: supports 1–3 apart
						}
						classes := randomLadder(src, 16, maxGap)
						p := Params{Epsilon: 0.01 + src.Float64()*0.1, Delta: 0.4, MinSupport: 10, VulnSupport: 5}
						agree(t, fmt.Sprintf("trial %d n=%d gap≤%d", trial, len(classes), maxGap), s, classes, p)
					}
				}
			}
		}
	})

	t.Run("ties", func(t *testing.T) {
		// With K = 0 the overlap margin α is 0, so every chain costs
		// nothing and the choices fall to the tie rules: the smallest
		// predecessor key and the beam's smallest state keys.
		src := rng.New(20261019)
		p := Params{Epsilon: 0.05, Delta: 0.4, MinSupport: 10, VulnSupport: 0}
		if p.Alpha() != 0 {
			t.Fatalf("α = %d, want 0", p.Alpha())
		}
		for gamma := 1; gamma <= maxGamma; gamma++ {
			for _, beam := range []int{3, 20, 100} {
				for trial := 0; trial < 4; trial++ {
					classes := randomLadder(src, 10, 3)
					s := OrderPreserving{Gamma: gamma, GridSize: 7, MaxStates: beam}
					agree(t, fmt.Sprintf("trial %d n=%d", trial, len(classes)), s, classes, p)
				}
			}
		}
	})

	t.Run("wide-grid", func(t *testing.T) {
		// A small class ahead of large ones whose grids exceed 4,096
		// points: one digit per state, so only γ = 1 keeps this cheap.
		p := Params{Epsilon: 0.5, Delta: 0.4, MinSupport: 10, VulnSupport: 5}
		classes := classesWith(20, 3000, 3004, 3011)
		s := OrderPreserving{Gamma: 1, GridSize: 5000}
		if _, maxGrid := s.grids(classes, p); maxGrid <= 4096 {
			t.Fatalf("grid of %d points, want more than 4,096", maxGrid)
		}
		for _, beam := range []int{3, 20} {
			s.MaxStates = beam
			agree(t, fmt.Sprintf("beam %d", beam), s, classes, p)
		}
	})

	t.Run("optimizer-heavy", func(t *testing.T) {
		p := Params{Epsilon: 0.1, Delta: 0.4, MinSupport: 15, VulnSupport: 5}
		for w, classes := range momentLadders(2000, 15, 20, 30) {
			for gamma := 1; gamma <= 3; gamma++ {
				for _, beam := range beams {
					what := fmt.Sprintf("window %d (%d classes) γ=%d", w, len(classes), gamma)
					agree(t, what, OrderPreserving{Gamma: gamma, MaxStates: beam}, classes, p)
				}
			}
		}
		// The map DP costs 0.1–0.4 s a call from γ = 4 on, so one ladder
		// runs there, at the default beam.
		for w, classes := range momentLadders(2000, 15, 20, 1) {
			for gamma := 4; gamma <= maxGamma; gamma++ {
				what := fmt.Sprintf("window %d (%d classes) γ=%d", w, len(classes), gamma)
				agree(t, what, OrderPreserving{Gamma: gamma}, classes, p)
			}
		}
	})

	t.Run("pos", func(t *testing.T) {
		p := Params{Epsilon: 0.1, Delta: 0.4, MinSupport: 25, VulnSupport: 5}
		for w, classes := range slideLadders(data.POSLike(2008), 800, 25, 250, 2) {
			for _, gamma := range []int{1, 2, 3, 4, 8} {
				for _, beam := range beams {
					what := fmt.Sprintf("window %d (%d classes) γ=%d", w, len(classes), gamma)
					agree(t, what, OrderPreserving{Gamma: gamma, MaxStates: beam}, classes, p)
				}
			}
		}
	})
}

// TestKernelSizedFromLadder: bound sizes the tier buffers and the links for
// everything a call stores, so no call grows them — at every γ, beam and
// grid, on random and real ladders — and where the beam cannot bite (a tier
// holds at most g^γ states) it sizes the links exactly.
func TestKernelSizedFromLadder(t *testing.T) {
	check := func(what string, s OrderPreserving, classes []fec.Class, p Params) {
		t.Helper()
		cands, g := s.grids(classes, p)
		k := newKernel(classes, cands, g, s.gamma(), s.maxStates(), p)
		tierCap, linkCap := k.bound()
		k.run(make([]int, len(classes)))
		if cap(k.bufs[0]) != tierCap || cap(k.bufs[1]) != tierCap || cap(k.hist) != linkCap {
			t.Fatalf("%s (%+v): buffers grew to %d and %d states and %d links; bound %d states and %d links",
				what, s, cap(k.bufs[0]), cap(k.bufs[1]), cap(k.hist), tierCap, linkCap)
		}
		if k.space <= k.beam && len(k.hist) != linkCap {
			t.Fatalf("%s (%+v): %d links stored, bound %d", what, s, len(k.hist), linkCap)
		}
	}
	src := rng.New(20261020)
	for gamma := 1; gamma <= maxGamma; gamma++ {
		for _, beam := range []int{0, 3, 20, 100} {
			for _, grid := range []int{0, 3, 5, 7} {
				s := OrderPreserving{Gamma: gamma, GridSize: grid, MaxStates: beam}
				for trial := 0; trial < 12; trial++ {
					maxGap := 40
					if trial%2 == 0 {
						maxGap = 3
					}
					classes := randomLadder(src, 16, maxGap)
					p := Params{Epsilon: 0.01 + src.Float64()*0.1, Delta: 0.4, MinSupport: 10, VulnSupport: 5}
					check(fmt.Sprintf("trial %d n=%d gap≤%d", trial, len(classes), maxGap), s, classes, p)
				}
			}
		}
	}
	p := Params{Epsilon: 0.1, Delta: 0.4, MinSupport: 15, VulnSupport: 5}
	for w, classes := range momentLadders(2000, 15, 20, 10) {
		for gamma := 1; gamma <= maxGamma; gamma++ {
			check(fmt.Sprintf("window %d γ=%d", w, gamma), OrderPreserving{Gamma: gamma}, classes, p)
		}
	}
}

// randomLadder draws 1..maxN classes of 1–6 members whose supports start at
// 20–29 and climb by 1..maxGap.
func randomLadder(src *rng.Source, maxN, maxGap int) []fec.Class {
	classes := make([]fec.Class, 1+src.Intn(maxN))
	sup := 20 + src.Intn(10)
	for i := range classes {
		members := make([]itemset.Itemset, 1+src.Intn(6))
		for j := range members {
			members[j] = itemset.New(itemset.Item(i*10 + j))
		}
		classes[i] = fec.Class{Support: sup, Members: members}
		sup += 1 + src.Intn(maxGap)
	}
	return classes
}

// momentLadders slides a Moment miner over the WebView-like stream (pattern
// seed 2008) and returns the FEC ladders of `windows` consecutive
// publications, one every `every` records after the first full window.
func momentLadders(window, support, every, windows int) [][]fec.Class {
	return slideLadders(data.WebViewLike(2008), window, support, every, windows)
}

// slideLadders is momentLadders over any generator.
func slideLadders(gen *data.Generator, window, support, every, windows int) [][]fec.Class {
	m := moment.New(window, support)
	var out [][]fec.Class
	for pos := 1; len(out) < windows; pos++ {
		m.Push(gen.Next())
		if pos >= window && (pos-window)%every == 0 {
			out = append(out, fec.Partition(m.Frequent()))
		}
	}
	return out
}

// TestSchemeByNameBoundsGamma pins the lookback bound at the one parser
// behind -gamma and the create request's "gamma" field. Unbounded, γ=18 on
// a real ladder panicked (the map-keyed DP's uint64 state key wrapped), and
// the kernel's cost grows with γ: every γ the parser accepts must run
// cleanly on that ladder, and none above maxGamma may be accepted.
func TestSchemeByNameBoundsGamma(t *testing.T) {
	classes := momentLadders(2000, 15, 20, 1)[0]
	p := Params{Epsilon: 0.1, Delta: 0.4, MinSupport: 15, VulnSupport: 5}
	for _, gamma := range []int{-1, 1, 2, 3, 6, maxGamma, maxGamma + 1, 17, 18} {
		for _, name := range []string{"order", "hybrid"} {
			s, err := SchemeByName(name, 0.4, gamma)
			if err != nil {
				if gamma <= maxGamma {
					t.Errorf("%s γ=%d rejected: %v", name, gamma, err)
				}
				continue
			}
			if name == "order" {
				b := s.Biases(classes, p)
				checkWithinMaxBias(t, fmt.Sprintf("γ=%d", gamma), classes, p, b)
				for i := 1; i < len(classes); i++ {
					if classes[i].Support+b[i] <= classes[i-1].Support+b[i-1] {
						t.Fatalf("γ=%d: estimator order violated at class %d", gamma, i)
					}
				}
			}
			if gamma > maxGamma {
				t.Errorf("%s γ=%d accepted, want an error above maxGamma=%d", name, gamma, maxGamma)
			}
		}
	}
	if _, err := SchemeByName("ratio", 0, 18); err != nil {
		t.Errorf("ratio ignores γ, but γ=18 was rejected: %v", err)
	}
}

// biasSink keeps the benchmarked calls' results alive.
var biasSink []int

// BenchmarkOrderPreservingBiases times one hybrid (λ = 0.4) bias call per
// lookback γ over ten ladders of the optimizer-heavy stream configuration
// (H = 2,000, C = 15, ε = 0.1: ~57 classes on 13-point grids).
func BenchmarkOrderPreservingBiases(b *testing.B) {
	ladders := momentLadders(2000, 15, 20, 10)
	p := Params{Epsilon: 0.1, Delta: 0.4, MinSupport: 15, VulnSupport: 5}
	for gamma := 1; gamma <= maxGamma; gamma++ {
		s := Hybrid{Lambda: 0.4, Order: OrderPreserving{Gamma: gamma}}
		b.Run(fmt.Sprintf("gamma=%d", gamma), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				biasSink = s.Biases(ladders[i%len(ladders)], p)
			}
		})
	}
}

// TestBiasesAllocsPinned: a bias call sizes its buffers once from the
// ladder (see TestKernelSizedFromLadder), so its allocations stay under one
// bound at every γ, where the map-keyed reference DP allocates per state
// (hundreds of thousands of times a call from γ = 4). The beam selects in
// the spare tier buffer, so nothing joins in when it bites.
func TestBiasesAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under the race detector's shadow allocations")
	}
	const orderBound, hybridBound = 16, 18
	classes := momentLadders(2000, 15, 20, 1)[0]
	p := Params{Epsilon: 0.1, Delta: 0.4, MinSupport: 15, VulnSupport: 5}
	for gamma := 1; gamma <= maxGamma; gamma++ {
		for _, c := range []struct {
			s     Scheme
			bound float64
		}{
			{OrderPreserving{Gamma: gamma}, orderBound},
			{Hybrid{Lambda: 0.4, Order: OrderPreserving{Gamma: gamma}}, hybridBound},
		} {
			allocs := testing.AllocsPerRun(3, func() { c.s.Biases(classes, p) })
			t.Logf("%s γ=%d: %.0f allocs a call (%d classes)", c.s.Name(), gamma, allocs, len(classes))
			if allocs > c.bound {
				t.Errorf("%s γ=%d allocates %.0f objects a call, want <= %.0f", c.s.Name(), gamma, allocs, c.bound)
			}
		}
	}
}
