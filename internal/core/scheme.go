package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/fec"
)

// Scheme assigns a perturbation bias to each frequency equivalence class.
// Implementations must return one bias per class, respecting |β_i| <=
// p.MaxBias(t_i); classes arrive in ascending support order as produced by
// fec.Partition.
type Scheme interface {
	// Name identifies the scheme in experiment output.
	Name() string
	// Biases computes the per-class biases.
	Biases(classes []fec.Class, p Params) []int
	// SharedDraws reports whether all members of a FEC share one random
	// draw (the optimized schemes) or each itemset is perturbed
	// independently (the basic scheme).
	SharedDraws() bool
}

// Basic is the basic Butterfly approach of §V-C: zero bias everywhere
// (minimum precision-privacy ratio) and an independent draw per itemset.
type Basic struct{}

// Name implements Scheme.
func (Basic) Name() string { return "basic" }

// SharedDraws implements Scheme: the basic scheme perturbs each itemset
// independently.
func (Basic) SharedDraws() bool { return false }

// Biases implements Scheme: all zeros.
func (Basic) Biases(classes []fec.Class, _ Params) []int {
	return make([]int, len(classes))
}

// RatioPreserving is the bottom-up bias setting of Algorithm 2 (§VI-B):
// the smallest class takes its maximum adjustable bias and every other
// class scales it in proportion to its support, which maximizes the
// Markov-bound proxy of every pairwise (k,1/k) ratio probability. Lemma 3
// guarantees the scaled biases stay within their own maximum adjustable
// bias; rounding is clamped defensively anyway.
type RatioPreserving struct{}

// Name implements Scheme.
func (RatioPreserving) Name() string { return "ratio-preserving" }

// SharedDraws implements Scheme.
func (RatioPreserving) SharedDraws() bool { return true }

// Biases implements Scheme.
func (RatioPreserving) Biases(classes []fec.Class, p Params) []int {
	out := make([]int, len(classes))
	if len(classes) == 0 {
		return out
	}
	t1 := classes[0].Support
	b1 := p.MaxBias(t1)
	for i, c := range classes {
		b := int(math.Round(float64(b1) * float64(c.Support) / float64(t1)))
		if m := p.MaxBias(c.Support); b > m {
			b = m
		}
		out[i] = b
	}
	return out
}

// OrderPreserving is the dynamic-programming bias setting of Algorithm 1
// (§VI-A): choose biases minimizing the weighted sum of pairwise inversion
// costs Σ_{i<j} (s_i+s_j)(α+1−d_ij)² over overlapping uncertainty regions,
// subject to strictly increasing perturbation estimators e_i = t_i + β_i.
// Each class interacts only with its γ predecessors (the paper's lookback
// approximation); candidate biases are drawn from a grid of at most
// GridSize values per class to bound the DP state space.
type OrderPreserving struct {
	// Gamma is the DP lookback depth γ. Zero means the default of 2, the
	// knee of the quality/cost curve in the paper's Fig. 6; a negative
	// value means a true γ of 0 (no pairwise terms at all, degenerating to
	// zero biases — the Fig. 6 sweep's leftmost point).
	Gamma int
	// GridSize caps the candidate biases per class (0 means default 13).
	// The grid always contains −β^m, 0 and β^m.
	GridSize int
	// MaxStates beam-bounds the DP: after each class, only the cheapest
	// MaxStates states survive (0 means default 4096). The bound bites only
	// at large γ, where the exact state space GridSize^γ explodes; the
	// paper's own γ-truncation already accepts near-optimality there.
	MaxStates int
}

// Name implements Scheme.
func (s OrderPreserving) Name() string { return fmt.Sprintf("order-preserving(γ=%d)", s.gamma()) }

// SharedDraws implements Scheme.
func (OrderPreserving) SharedDraws() bool { return true }

func (s OrderPreserving) gamma() int {
	if s.Gamma < 0 {
		return 0
	}
	if s.Gamma == 0 {
		return 2
	}
	return s.Gamma
}

func (s OrderPreserving) maxStates() int {
	if s.MaxStates <= 0 {
		return 4096
	}
	return s.MaxStates
}

func (s OrderPreserving) gridSize() int {
	if s.GridSize <= 0 {
		return 13
	}
	if s.GridSize < 3 {
		return 3
	}
	return s.GridSize
}

// appendCandidates appends the bias grid for one class to dst: every
// integer in [−β^m, β^m] when that is small, otherwise an even sampling that
// always includes the endpoints and zero. The grid is small (at most
// gridSize+1 entries) and strictly ascending, so duplicate elimination is a
// linear scan — no map, no allocation beyond dst's growth.
func (s OrderPreserving) appendCandidates(dst []int, p Params, t int) []int {
	bm := p.MaxBias(t)
	m := s.gridSize()
	if 2*bm+1 <= m {
		for b := -bm; b <= bm; b++ {
			dst = append(dst, b)
		}
		return dst
	}
	start := len(dst)
	step := 2 * float64(bm) / float64(m-1)
	for k := 0; k <= m; k++ {
		b := 0 // the final pass appends 0, matching the historical grid
		if k < m {
			b = int(math.Round(-float64(bm) + float64(k)*step))
		}
		dup := false
		for _, x := range dst[start:] {
			if x == b {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, b)
		}
	}
	// Keep the grid sorted after the possible append of 0.
	out := dst[start:]
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return dst
}

// grids returns every class's candidate grid and the widest grid's length.
// The grids are carved from one flat slice sized for the worst case, so an
// un-memoized Publish pays two allocations here whatever the class count.
func (s OrderPreserving) grids(classes []fec.Class, p Params) (cands [][]int, maxGrid int) {
	flat := make([]int, 0, len(classes)*(s.gridSize()+1))
	cands = make([][]int, len(classes))
	for i, c := range classes {
		start := len(flat)
		flat = s.appendCandidates(flat, p, c.Support)
		cands[i] = flat[start:len(flat):len(flat)]
		maxGrid = max(maxGrid, len(cands[i]))
	}
	return cands, maxGrid
}

// denseStateLimit is the largest per-tier state space (maxGrid^min(γ, n))
// the DP runs on flat arrays. Beyond it — large γ at a wide grid — the
// historical sparse map implementation takes over: it bounds live states by
// the beam instead of materializing the full key space. Both paths compute
// the identical bias assignment (a property test cross-checks them); the
// dense path exists because the map DP was the publish hot path's dominant
// allocator (~100k allocs per benched op before the rewrite).
const denseStateLimit = 4096

// Biases implements Scheme via the γ-lookback dynamic program.
func (s OrderPreserving) Biases(classes []fec.Class, p Params) []int {
	n := len(classes)
	out := make([]int, n)
	if n == 0 {
		return out
	}
	gamma := s.gamma()
	if gamma == 0 {
		return out // no pairwise terms: the zero-bias assignment is optimal
	}
	cands, maxGrid := s.grids(classes, p)
	space := 1
	for k := 0; k < min(gamma, n); k++ {
		space *= maxGrid
		if space > denseStateLimit {
			return s.biasesSparse(classes, p, cands, maxGrid, out)
		}
	}
	return s.biasesDense(classes, p, cands, maxGrid, out)
}

// biasesDense is the flat-array DP. A state after class i is the tuple of
// candidate indices ("digits") of classes i−γ+1..i, encoded base maxGrid
// with the oldest class most significant; cost[key] is the cheapest chain
// reaching it, and noState marks keys no chain reaches. The caller
// guarantees the state space is at most denseStateLimit, so a tier fits a
// few KiB and every allocation is sized once per call.
//
// Once a tier is full (i ≥ γ), class i's state key s·G+d keeps the γ−1
// retained digits s of its predecessor a·G^(γ−1)+s and drops the oldest
// digit a. The kernel therefore walks the next states suffix by suffix:
//
//   - the retained pair costs Σ w·max(0, α+1−(e_d−e_j))² depend only on
//     (s, d), so they come from per-tier G×G tables, added once per state;
//   - the dropped pair (class i−γ at digit a against class i at d) costs
//     nothing for every a ≤ A0(d), because grids are ascending, so the
//     best predecessor over that prefix is a prefix minimum of the
//     gathered cost column; only the overlap window A0(d) < a < A1 pays
//     the pair cost, where A1 bounds the digits whose estimator sits below
//     the next class's (the only predecessors a chain can reach);
//   - a suffix whose own estimators are not strictly increasing has no
//     reachable predecessor and is skipped whole.
//
// Every term is an integer w·gap², so int64 sums are exact, as are the
// sparse path's float64 sums below 2^53, whatever the order of addition.
// Scanning a in
// ascending order and replacing only on a strictly smaller cost keeps the
// smallest predecessor key on ties — the sparse path's sorted-key rule — so
// both paths choose the identical biases. Back-pointers store only the
// dropped digit: the rest of the predecessor key is the state's own suffix.
func (s OrderPreserving) biasesDense(classes []fec.Class, p Params, cands [][]int, maxGrid int, out []int) []int {
	const noState = math.MaxInt64
	n := len(classes)
	gamma := s.gamma()
	alpha1 := int64(p.Alpha() + 1)
	beam := s.maxStates()
	g := maxGrid

	pow := func(k int) int {
		r := 1
		for ; k > 0; k-- {
			r *= g
		}
		return r
	}
	space := pow(min(gamma, n)) // states per full tier
	suffixes := space / g       // retained-digit tuples per full tier
	cost := make([]int64, space)
	next := make([]int64, space)
	// drop[(i−γ)·space+key] is the dropped digit of state key's cheapest
	// predecessor after class i ≥ γ; tiers below γ have one predecessor.
	drop := make([]uint16, max(n-gamma, 0)*space)
	// tab[(r−1)·G²+b·G+d] is the pair cost of class i−r at digit b against
	// class i at digit d, and est[(r−1)·G+b] class i−r's estimator, for the
	// γ−1 predecessors a state retains.
	gg := g * g
	tab := make([]int64, (gamma-1)*gg)
	est := make([]int, (gamma-1)*g)
	dr := make([]int, 2*gamma) // one state's retained digits and their tab rows
	digs, rows := dr[:gamma], dr[gamma:]
	ix := make([]int, 4*g)   // per-tier digit bounds and prefix argmins
	lx := make([]int64, 3*g) // per-suffix cost column, prefix minima, retained sums
	a0, a1, dlo, pmArg := ix[:g], ix[g:2*g], ix[2*g:3*g], ix[3*g:]
	col, pm, ret := lx[:g], lx[g:2*g], lx[2*g:]

	fill(cost[:g], noState)
	for a := range cands[0] {
		cost[a] = 0
	}

	for i := 1; i < n; i++ {
		ci, ti := cands[i], classes[i].Support
		nd := len(ci)
		spanPrev := min(gamma, i) // classes i-spanPrev..i-1 are in the predecessor state
		spaceCur := pow(min(gamma, i+1))
		fill(next[:spaceCur], noState)
		nret := min(spanPrev, gamma-1)
		for r := 1; r <= nret; r++ {
			j := i - r
			w := int64(classes[j].Size() + classes[i].Size())
			t := tab[(r-1)*gg:]
			e := est[(r-1)*g : r*g]
			for b := range e {
				e[b] = math.MaxInt // past the grid's end: never ascending
			}
			for b, bj := range cands[j] {
				ej := classes[j].Support + bj
				e[b] = ej
				row := t[b*g : b*g+nd]
				for d, bd := range ci {
					row[d] = 0
					if gap := alpha1 - int64(ti+bd-ej); gap > 0 {
						row[d] = w * gap * gap
					}
				}
			}
		}
		// dlo[b]: class i's first digit whose estimator exceeds class
		// i−1's at digit b — estimator order forbids every lower one.
		tp, d := classes[i-1].Support, 0
		for b, bp := range cands[i-1] {
			for d < nd && ti+ci[d] <= tp+bp {
				d++
			}
			dlo[b] = d
		}

		live := 0
		if i < gamma {
			// Growing tier: every predecessor is retained, so each next
			// state has exactly one predecessor, key/G.
			for key, spacePrev := 0, pow(spanPrev); key < spacePrev; key++ {
				c := cost[key]
				if c == noState {
					continue
				}
				q := key
				for r := range rows[:nret] {
					rows[r] = r*gg + (q%g)*g
					q /= g
				}
				lo := dlo[key%g]
				sumRows(ret[lo:nd], tab, rows[:nret], lo)
				for d := lo; d < nd; d++ {
					next[key*g+d] = c + ret[d]
					live++
				}
			}
		} else {
			jd := i - gamma // the class whose digit the transition drops
			dc, td := cands[jd], classes[jd].Support
			// Its pair with class i is costed inline, not tabulated: only
			// the overlap window evaluates it, and at γ = 1 a G×G table
			// could reach 4096² entries.
			w0 := int64(classes[jd].Size() + classes[i].Size())
			// a0[d]: how many dropped digits sit at least α+1 below e_d,
			// i.e. pair with d at zero cost.
			a := 0
			for d, bd := range ci {
				for a < len(dc) && int64(ti+bd-(td+dc[a])) >= alpha1 {
					a++
				}
				a0[d] = a
			}
			// a1[x]: how many dropped digits have an estimator below class
			// i−γ+1's at digit x. Chains are strictly increasing, so no
			// other predecessor is reachable. At γ = 1, class i−γ+1 is
			// class i itself and x is the new digit d.
			nc, tn := cands[jd+1], classes[jd+1].Support
			a = 0
			for x, bx := range nc {
				for a < len(dc) && td+dc[a] < tn+bx {
					a++
				}
				a1[x] = a
			}
			tier := drop[jd*space:]
			clear(digs)
			for suf := 0; suf < suffixes; suf++ {
				if suf > 0 {
					// digs holds suf's retained digits, class i−1's lowest.
					for r := 0; ; r++ {
						if digs[r]++; digs[r] < g {
							break
						}
						digs[r] = 0
					}
				}
				// Skip the suffix unless its estimators ascend.
				ok, eAbove := true, math.MaxInt
				for r, b := range digs[:nret] {
					e := est[r*g+b]
					if e >= eAbove {
						ok = false
						break
					}
					eAbove = e
					rows[r] = r*gg + b*g
				}
				lo, amax := 0, a1[nd-1] // at γ = 1, a1 is indexed by d
				if nret > 0 {
					lo, amax = dlo[digs[0]], a1[digs[nret-1]]
				}
				if !ok || lo >= nd {
					continue
				}
				// Gather the predecessors' costs and their prefix minima
				// (the first digit wins ties).
				best := int64(noState)
				for a := 0; a < amax; a++ {
					c := cost[a*suffixes+suf]
					col[a] = c
					if c < best {
						best, pmArg[a] = c, a
					} else if a > 0 {
						pmArg[a] = pmArg[a-1]
					}
					pm[a] = best
				}
				if best == noState {
					continue
				}
				sumRows(ret[lo:nd], tab, rows[:nret], lo)
				for d := lo; d < nd; d++ {
					ahi := amax
					if gamma == 1 {
						ahi = a1[d]
					}
					best, arg := int64(noState), 0
					if k := min(a0[d], ahi); k > 0 {
						best, arg = pm[k-1], pmArg[k-1]
					}
					ed := ti + ci[d]
					for a := a0[d]; a < ahi; a++ {
						c := col[a]
						if c == noState {
							continue
						}
						gap := alpha1 - int64(ed-(td+dc[a]))
						if c += w0 * gap * gap; c < best {
							best, arg = c, a
						}
					}
					if best == noState {
						continue
					}
					key := suf*g + d
					next[key] = best + ret[d]
					tier[key] = uint16(arg)
					live++
				}
			}
		}
		if live == 0 {
			// Cannot happen: the all-zero-bias chain is always feasible
			// because class supports are strictly increasing. Guard anyway;
			// the zeroed back-pointer names predecessor key 0.
			next[indexOf(ci, 0)] = 0
			live = 1
		}
		// Beam bound: keep only the cheapest states (ties by key, matching
		// the sparse path) so a small MaxStates stays honored.
		if live > beam {
			keys := make([]int, 0, live)
			for k := 0; k < spaceCur; k++ {
				if next[k] != noState {
					keys = append(keys, k)
				}
			}
			sort.Slice(keys, func(a, b int) bool {
				ca, cb := next[keys[a]], next[keys[b]]
				if ca != cb {
					return ca < cb
				}
				return keys[a] < keys[b]
			})
			for _, k := range keys[beam:] {
				next[k] = noState
			}
		}
		cost, next = next, cost
	}

	// Pick the cheapest final state (smallest key on ties) and backtrack.
	key, best := 0, int64(noState)
	for k := 0; k < space; k++ {
		if cost[k] < best {
			key, best = k, cost[k]
		}
	}
	for i := n - 1; i >= 0; i-- {
		out[i] = cands[i][key%g] // the newest class is the low digit
		if i >= gamma {
			key = int(drop[(i-gamma)*space+key])*suffixes + key/g
		} else {
			key /= g
		}
	}
	return out
}

// fill sets every element of xs to v, doubling a copied prefix.
func fill(xs []int64, v int64) {
	if len(xs) == 0 {
		return
	}
	xs[0] = v
	for k := 1; k < len(xs); k *= 2 {
		copy(xs[k:], xs[:k])
	}
}

// sumRows sets dst[k] to the sum over offs of tab[off+lo+k]: a state's
// retained pair costs for the new digits lo, lo+1, ….
func sumRows(dst, tab []int64, offs []int, lo int) {
	clear(dst)
	for _, off := range offs {
		for k, c := range tab[off+lo : off+lo+len(dst)] {
			dst[k] += c
		}
	}
}

// biasesSparse is the historical map-based DP, kept for state spaces too
// large to materialize densely (large γ × wide grid — the beam bound keeps
// the maps small there). It must stay behaviorally identical to
// biasesDense; TestOrderPreservingDenseSparseAgree pins that.
func (s OrderPreserving) biasesSparse(classes []fec.Class, p Params, cands [][]int, maxGrid int, out []int) []int {
	n := len(classes)
	gamma := s.gamma()
	alpha := p.Alpha()

	// cost of the (j, i) pair (j < i) given their biases.
	pairCost := func(j, i, bj, bi int) float64 {
		d := (classes[i].Support + bi) - (classes[j].Support + bj)
		if d >= alpha+1 {
			return 0
		}
		w := float64(classes[j].Size() + classes[i].Size())
		gap := float64(alpha + 1 - d)
		return w * gap * gap
	}

	// DP over states: the candidate indices of the most recent min(γ, i+1)
	// classes, encoded base-maxGrid.
	encode := func(idxs []int) uint64 {
		var k uint64
		for _, v := range idxs {
			k = k*uint64(maxGrid) + uint64(v)
		}
		return k
	}

	type entry struct {
		cost float64
		prev uint64 // predecessor state key
		ok   bool
	}
	// states[i] maps the state after choosing class i's bias.
	states := make([]map[uint64]entry, n)

	states[0] = map[uint64]entry{}
	for ci := range cands[0] {
		states[0][encode([]int{ci})] = entry{cost: 0, ok: true}
	}

	// Map iteration order is randomized; DP must process states in a fixed
	// order so equal-cost ties resolve identically across runs.
	sortedKeys := func(m map[uint64]entry) []uint64 {
		keys := make([]uint64, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		return keys
	}

	for i := 1; i < n; i++ {
		states[i] = map[uint64]entry{}
		span := min(gamma, i) // classes i-span..i-1 are in the predecessor state
		for _, key := range sortedKeys(states[i-1]) {
			ent := states[i-1][key]
			idxs := decode(key, min(gamma, i), maxGrid)
			// idxs holds candidate indices of classes i-span..i-1.
			lastIdx := idxs[len(idxs)-1]
			eprev := classes[i-1].Support + cands[i-1][lastIdx]
			for ci, bi := range cands[i] {
				if classes[i].Support+bi <= eprev {
					continue // estimator order violated
				}
				add := 0.0
				for off, cj := range idxs {
					j := i - span + off
					add += pairCost(j, i, cands[j][cj], bi)
				}
				// Pairs farther than γ back are treated as non-overlapping.
				nidxs := append(append([]int{}, idxs...), ci)
				if len(nidxs) > gamma {
					nidxs = nidxs[1:]
				}
				nkey := encode(nidxs)
				cand := entry{cost: ent.cost + add, prev: key, ok: true}
				if cur, ok := states[i][nkey]; !ok || cand.cost < cur.cost {
					states[i][nkey] = cand
				}
			}
		}
		if len(states[i]) == 0 {
			// Cannot happen: the all-zero-bias chain is always feasible
			// because class supports are strictly increasing. Guard anyway.
			zero := indexOf(cands[i], 0)
			states[i][encode([]int{zero})] = entry{ok: true}
		}
		// Beam bound: keep only the cheapest states so large γ stays
		// tractable (GridSize^γ states otherwise).
		if beam := s.maxStates(); len(states[i]) > beam {
			keys := sortedKeys(states[i])
			sort.Slice(keys, func(a, b int) bool {
				ca, cb := states[i][keys[a]].cost, states[i][keys[b]].cost
				if ca != cb {
					return ca < cb
				}
				return keys[a] < keys[b]
			})
			for _, k := range keys[beam:] {
				delete(states[i], k)
			}
		}
	}

	// Pick the cheapest final state (first in key order on ties) and
	// backtrack.
	var bestKey uint64
	best := math.Inf(1)
	for _, key := range sortedKeys(states[n-1]) {
		if ent := states[n-1][key]; ent.cost < best {
			best = ent.cost
			bestKey = key
		}
	}
	key := bestKey
	for i := n - 1; i >= 0; i-- {
		idxs := decode(key, min(gamma, i+1), maxGrid)
		out[i] = cands[i][idxs[len(idxs)-1]]
		key = states[i][key].prev
	}
	return out
}

func decode(key uint64, length, base int) []int {
	out := make([]int, length)
	for i := length - 1; i >= 0; i-- {
		out[i] = int(key % uint64(base))
		key /= uint64(base)
	}
	return out
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return 0
}

// Hybrid combines the order- and ratio-preserving biases linearly
// (§VI-C): β = λ·β_OP + (1−λ)·β_RP. λ=1 reduces to order preservation,
// λ=0 to ratio preservation; the paper finds λ≈0.4 a good overall balance.
type Hybrid struct {
	// Lambda weights order preservation; must lie in [0, 1].
	Lambda float64
	// Order configures the embedded order-preserving DP.
	Order OrderPreserving
}

// Name implements Scheme.
func (h Hybrid) Name() string { return fmt.Sprintf("hybrid(λ=%.2g)", h.Lambda) }

// SharedDraws implements Scheme.
func (Hybrid) SharedDraws() bool { return true }

// Biases implements Scheme.
func (h Hybrid) Biases(classes []fec.Class, p Params) []int {
	if h.Lambda < 0 || h.Lambda > 1 {
		panic(fmt.Sprintf("core: hybrid λ=%v outside [0,1]", h.Lambda))
	}
	op := h.Order.Biases(classes, p)
	rp := RatioPreserving{}.Biases(classes, p)
	out := make([]int, len(classes))
	for i := range out {
		b := int(math.Round(h.Lambda*float64(op[i]) + (1-h.Lambda)*float64(rp[i])))
		if m := p.MaxBias(classes[i].Support); b > m {
			b = m
		} else if b < -m {
			b = -m
		}
		out[i] = b
	}
	return out
}

// maxGamma is the largest DP lookback SchemeByName accepts. The sparse DP
// packs γ base-G candidate indices into a uint64 state key, which wraps once
// G^γ > 2^64 (γ ≥ 18 on the default 13-point grid) and then decodes digits
// beyond a class's grid. 13^8 < 2^30 stays far inside, and the bound still
// covers the paper's Fig. 6 sweep (γ ≤ 6).
const maxGamma = 8

// SchemeByName builds a bias scheme from its CLI/control-plane spelling:
// "basic", "order"/"op" (with lookback gamma ≤ maxGamma), "ratio"/"rp", or
// "hybrid" (λ = lambda blending order against ratio). It is the single
// parser behind cmd/butterfly's -scheme and -gamma flags and the
// sanitization server's per-stream configs, so the two surfaces cannot drift.
func SchemeByName(name string, lambda float64, gamma int) (Scheme, error) {
	name = strings.ToLower(name)
	switch name {
	case "order", "op", "hybrid", "":
		if gamma > maxGamma {
			return nil, fmt.Errorf("core: gamma %d above the maximum lookback %d", gamma, maxGamma)
		}
	}
	switch name {
	case "basic":
		return Basic{}, nil
	case "order", "op":
		return OrderPreserving{Gamma: gamma}, nil
	case "ratio", "rp":
		return RatioPreserving{}, nil
	case "hybrid", "":
		if lambda < 0 || lambda > 1 {
			return nil, fmt.Errorf("core: hybrid lambda %v outside [0,1]", lambda)
		}
		return Hybrid{Lambda: lambda, Order: OrderPreserving{Gamma: gamma}}, nil
	default:
		return nil, fmt.Errorf("core: unknown scheme %q (basic, order, ratio, hybrid)", name)
	}
}
