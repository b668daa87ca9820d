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

// TestOrderPreservingDenseSparseAgree pins the flat-array DP to the sparse
// map DP: both paths must choose the identical bias assignment — including
// cost ties, which both must resolve toward the smallest predecessor key.
// This is what keeps published bytes stable across the denseStateLimit
// boundary. Inputs cover every γ and beam the dense path accepts, on tight
// ladders (uncertainty regions overlap several neighbours, so the kernel's
// overlap windows are wide) and spread ones, plus the real Moment ladders of
// the optimizer-heavy stream configuration the kernel is tuned for.
func TestOrderPreservingDenseSparseAgree(t *testing.T) {
	// agree compares the two paths, or reports false when the state space
	// is beyond the dense path (only the sparse path runs those).
	agree := func(t *testing.T, what string, s OrderPreserving, classes []fec.Class, p Params) bool {
		t.Helper()
		cands, maxGrid := s.grids(classes, p)
		space := 1
		for k := 0; k < min(s.gamma(), len(classes)); k++ {
			space *= maxGrid
		}
		if space > denseStateLimit {
			return false
		}
		dense := s.biasesDense(classes, p, cands, maxGrid, make([]int, len(classes)))
		sparse := s.biasesSparse(classes, p, cands, maxGrid, make([]int, len(classes)))
		if !slices.Equal(dense, sparse) {
			t.Fatalf("%s (%+v): dense %v != sparse %v", what, s, dense, sparse)
		}
		return true
	}
	beams := []int{0, 3, 20, 100}

	t.Run("random", func(t *testing.T) {
		src := rng.New(20260808)
		for trial, ran := 0, 0; ran < 3000; trial++ {
			n := 1 + src.Intn(16)
			maxGap := 40
			if src.Intn(2) == 0 {
				maxGap = 3 // tight: supports 1–3 apart
			}
			classes := make([]fec.Class, n)
			sup := 20 + src.Intn(10)
			for i := range classes {
				members := make([]itemset.Itemset, 1+src.Intn(6))
				for j := range members {
					members[j] = itemset.New(itemset.Item(i*10 + j))
				}
				classes[i] = fec.Class{Support: sup, Members: members}
				sup += 1 + src.Intn(maxGap)
			}
			p := Params{Epsilon: 0.01 + src.Float64()*0.1, Delta: 0.4, MinSupport: 10, VulnSupport: 5}
			s := OrderPreserving{
				Gamma:     1 + src.Intn(4),
				GridSize:  []int{0, 3, 5, 7}[src.Intn(4)],
				MaxStates: beams[src.Intn(len(beams))],
			}
			if agree(t, fmt.Sprintf("trial %d n=%d gap≤%d", trial, n, maxGap), s, classes, p) {
				ran++
			}
		}
	})

	t.Run("optimizer-heavy", func(t *testing.T) {
		p := Params{Epsilon: 0.1, Delta: 0.4, MinSupport: 15, VulnSupport: 5}
		for w, classes := range momentLadders(2000, 15, 20, 30) {
			for gamma := 1; gamma <= 3; gamma++ {
				for _, beam := range beams {
					what := fmt.Sprintf("window %d (%d classes) γ=%d", w, len(classes), gamma)
					if !agree(t, what, OrderPreserving{Gamma: gamma, MaxStates: beam}, classes, p) {
						t.Fatalf("%s: state space beyond the dense path", what)
					}
				}
			}
		}
	})
}

// momentLadders slides a Moment miner over the WebView-like stream (pattern
// seed 2008) and returns the FEC ladders of `windows` consecutive
// publications, one every `every` records after the first full window.
func momentLadders(window, support, every, windows int) [][]fec.Class {
	gen := data.WebViewLike(2008)
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
// behind -gamma and the create request's "gamma" field. The sparse DP packs
// γ base-G digits into a uint64 state key, which wraps once G^γ > 2^64 — γ
// ≥ 18 on the default 13-point grid — and then decodes digits beyond a
// class's grid: unbounded, γ=18 on a real ladder panicked with an index out
// of range. Every γ the parser accepts must run cleanly on that ladder.
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
