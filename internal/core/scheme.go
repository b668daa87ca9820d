package core

import (
	"fmt"
	"math"
	"math/bits"
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
	// MaxStates states survive, ties broken by state key (0 means default
	// 4096). The bound bites only from γ = 4 on the default grid, where the
	// live states outgrow it; the paper's own γ-truncation already accepts
	// near-optimality there.
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
// The grids are carved from one flat slice sized for the worst case, so a
// Publish pays two allocations here whatever the class count.
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

// Biases implements Scheme via the γ-lookback dynamic program (see
// kernel). It panics when γ, the grids and MaxStates outgrow the kernel's
// 64-bit state keys and 32-bit back-links, far beyond what SchemeByName
// admits.
func (s OrderPreserving) Biases(classes []fec.Class, p Params) []int {
	out := make([]int, len(classes))
	if len(classes) == 0 || s.gamma() == 0 {
		return out // at γ = 0 no pair costs anything: zero biases are optimal
	}
	cands, g := s.grids(classes, p)
	k := newKernel(classes, cands, g, s.gamma(), s.maxStates(), p)
	k.run(out)
	return out
}

// capLimit caps the states a call's buffers are sized for up front, per
// tier; a MaxStates large enough to need more grows them on demand.
const capLimit = 1 << 16

// noCost marks a digit no live state of a suffix group has.
const noCost = math.MaxInt64

// kernel is one Biases call of the DP. A state after class i is the tuple
// of candidate indices ("digits") of classes i−γ+1..i. Its key packs the
// digits w bits each, the oldest class most significant, so keys order
// exactly like the digit tuples. A tier holds only the live states after
// one class, in a flat slice of keys and the costs of their cheapest
// chains; a parallel stretch of hist links each to that chain's
// predecessor. A tier is sorted by its digits newest first, which puts the
// states that share a retained suffix next to each other, by ascending
// oldest digit.
//
// Once a tier is full (i ≥ γ), class i's state (s, d) keeps the γ−1
// retained digits s of its predecessor (a, s) and drops the oldest digit a;
// before that nothing is dropped, and every state is a group of its own.
// The kernel walks the previous tier's suffix groups in order:
//
//   - the retained pair costs Σ w·max(0, α+1−(e_d−e_j))² depend only on
//     (s, d), so they come from per-tier G×G tables, added once per state;
//   - the dropped pair (class i−γ at digit a against class i at d) costs
//     nothing for every a ≤ A0(d), because grids are ascending, so the
//     best predecessor over that prefix is a prefix minimum of the group's
//     costs by digit; only the overlap window A0(d) < a pays the pair cost.
//     Every predecessor in a group is a live chain, so its estimator already
//     sits below the suffix's oldest one; at γ = 1 the suffix is empty and
//     the window ends at A1(d), the digits whose estimator is below e_d.
//
// A suffix group emits every new digit d from the first one above its
// newest estimator, so counting the groups by that bound places each new
// state at its slot in the next tier (new digit first) as it is made.
//
// Every term is an integer w·gap², so int64 sums are exact whatever the
// order of addition. Scanning a in ascending order and replacing only on a
// strictly smaller cost keeps the smallest predecessor key on ties, and the
// beam keeps the cheapest states with ties by key, so the kernel chooses the
// same biases as the map-keyed beam DP the tests hold it to. Nothing
// outlives the call.
type kernel struct {
	classes []fec.Class
	cands   [][]int
	g       int   // the widest grid
	w       uint  // bits per key digit
	gamma   int   // lookback γ ≥ 1
	beam    int   // states kept per tier
	space   int   // distinct keys per tier, saturating at 2^32
	alpha1  int64 // α+1: estimators this far apart do not overlap
	// tab[id·G+d], id = (r−1)·G+b, is the pair cost of class i−r at digit b
	// against class i at digit d, for the γ−1 predecessors a state retains;
	// it is zero from d = tabEnd[id] on.
	tab    []int64
	tabEnd []int
	// One suffix group of the previous tier by dropped digit: the costs
	// col (noCost where no state has that digit), their positions colPos
	// and prefix minima pm at pmArg; and the suffix's retained pair sums
	// ret per new digit.
	col, pm, ret  []int64
	colPos, pmArg []int
	// Per-tier digit bounds (see tier), the next tier's slot per new digit,
	// and one state's table rows.
	dlo, a0, a1, off, rows []int
	// hist[start[i]+j] links the j-th state after class i to its
	// predecessor: that state's position in tier i−1, shifted past the
	// state's own newest digit.
	hist  []uint32
	start []int
	// low[i] is class i's lowest digit that ends a chain from class 0 (set
	// by bound).
	low []int
	// Two tier buffers: one holds the states after the previous class, the
	// other receives the next tier, or serves the beam as selection scratch.
	bufs [2][]state
}

func newKernel(classes []fec.Class, cands [][]int, g, gamma, beam int, p Params) kernel {
	n := len(classes)
	k := kernel{classes: classes, cands: cands, g: g, w: uint(bits.Len(uint(g - 1))),
		gamma: gamma, beam: beam, space: 1, alpha1: int64(p.Alpha() + 1)}
	for range min(gamma, n) {
		if k.space < 1<<32 {
			k.space *= g
		}
	}
	// A key packs min(γ, n) digits into 64 bits; a link packs a position in
	// a tier (at most the beam, or tier 0's grid) and a digit into 32.
	if uint(min(gamma, n))*k.w > 64 || uint(bits.Len(uint(max(min(beam, k.space), g)-1)))+k.w > 32 {
		panic(fmt.Sprintf("core: order-preserving DP too large: γ=%d over %d-point grids, beam %d", gamma, g, beam))
	}
	nt := (gamma - 1) * g * g
	lx := make([]int64, nt+3*g)
	k.tab, k.col, k.pm, k.ret = lx[:nt], lx[nt:nt+g], lx[nt+g:nt+2*g], lx[nt+2*g:]
	ix := make([]int, (gamma+5)*g+1+gamma+2*n)
	k.colPos, k.pmArg, k.dlo, k.a0, k.a1 = ix[:g], ix[g:2*g], ix[2*g:3*g], ix[3*g:4*g], ix[4*g:5*g]
	k.off, ix = ix[5*g:6*g+1], ix[6*g+1:]
	k.tabEnd, k.rows, ix = ix[:(gamma-1)*g], ix[(gamma-1)*g:(gamma-1)*g+gamma], ix[(gamma-1)*g+gamma:]
	k.start, k.low = ix[:n], ix[n:]
	return k
}

// run fills out with the cheapest chain's biases.
func (k *kernel) run(out []int) {
	n := len(k.classes)
	tierCap, linkCap := k.bound()
	tiers := make([]state, 2*tierCap)
	k.bufs = [2][]state{tiers[:tierCap:tierCap], tiers[tierCap:]}
	k.hist = make([]uint32, 0, linkCap)
	cur, held := k.buf(0, len(k.cands[0])), 0
	links := k.links(len(cur))
	for a := range cur {
		cur[a], links[a] = state{key: uint64(a)}, uint32(a)
	}
	for i := 1; i < n; i++ {
		k.start[i] = len(k.hist)
		cur, held = k.tier(cur, held, i), 1-held
		if len(cur) > k.beam {
			cur = k.prune(cur, k.hist[k.start[i]:], k.buf(1-held, len(cur)))
		}
		k.hist = k.hist[:k.start[i]+len(cur)]
	}

	// Pick the cheapest final state (smallest key on ties) and backtrack.
	j := 0
	for pos := range cur {
		if cur[pos].before(cur[j]) {
			j = pos
		}
	}
	dmask := uint32(1)<<k.w - 1
	for i := n - 1; i >= 0; i-- {
		l := k.hist[k.start[i]+j]
		out[i] = k.cands[i][l&dmask]
		j = int(l >> k.w)
	}
}

// bound sizes the buffers from the ladder. Tier i holds distinct chains of
// strictly increasing estimators over classes max(i−γ+1, 0)..i, one digit
// each, whose oldest digit ends a chain from class 0; without a beam it
// holds every such chain. It also holds at most a grid's worth of
// successors of each state tier i−1 kept. tierCap is the largest of these
// bounds, and linkCap the most links stored at once: those of the kept
// states of every earlier tier plus the current tier's before the beam.
// Each tier's bound is capped at capLimit; past it, buf and links grow on
// demand.
func (k *kernel) bound() (tierCap, linkCap int) {
	kept, prev := 0, 1 // the links of tiers 0..i−1; the states tier i−1 kept
	for i := range k.classes {
		if i > 0 {
			// The digits that end a chain from class 0 are those above the
			// lowest such estimator of class i−1.
			e, d := k.classes[i-1].Support+k.cands[i-1][k.low[i-1]], 0
			for d < len(k.cands[i])-1 && k.classes[i].Support+k.cands[i][d] <= e {
				d++
			}
			k.low[i] = d
		}
		b := min(k.chains(i), prev*len(k.cands[i]), capLimit)
		tierCap, linkCap = max(tierCap, b), max(linkCap, kept+b)
		prev = b
		if i > 0 && b > k.beam { // the beam prunes every tier but the first
			prev = k.beam
		}
		kept += prev
	}
	return tierCap, linkCap
}

// chains counts the chains of strictly increasing estimators over classes
// max(i−γ+1, 0)..i, one digit each and the oldest at least low, saturating
// at 2^32. Its scratch is a0 and a1, which the tiers do not use until the
// first one is built.
func (k *kernel) chains(i int) int {
	cnt, next := k.a0, k.a1
	j := max(i-k.gamma+1, 0)
	for d := range k.cands[j] {
		cnt[d] = 0
		if d >= k.low[j] {
			cnt[d] = 1
		}
	}
	for ; j < i; j++ {
		lo, hi := k.cands[j], k.cands[j+1]
		tl, th := k.classes[j].Support, k.classes[j+1].Support
		sum, b := 0, 0
		for d, bd := range hi {
			for ; b < len(lo) && tl+lo[b] < th+bd; b++ {
				sum += cnt[b]
			}
			next[d] = min(sum, 1<<32)
		}
		cnt, next = next, cnt
	}
	total := 0
	for _, c := range cnt[:len(k.cands[i])] {
		total += c
	}
	return min(total, 1<<32)
}

// state is one live DP state: its packed digit key and the cost of its
// cheapest chain. The chain's link back sits at the same position in the
// tier's stretch of hist.
type state struct {
	key  uint64
	cost int64
}

// before orders states by cost, ties by key: the order the beam keeps.
func (a state) before(b state) bool {
	return a.cost < b.cost || a.cost == b.cost && a.key < b.key
}

// links extends the backtracking links by m entries for the next tier and
// returns them.
func (k *kernel) links(m int) []uint32 {
	h := len(k.hist)
	if h+m > cap(k.hist) {
		k.hist = append(make([]uint32, 0, 2*cap(k.hist)+m), k.hist...)
	}
	k.hist = k.hist[:h+m]
	return k.hist[h:]
}

// buf returns tier buffer x resliced to n states, growing it if needed.
func (k *kernel) buf(x, n int) []state {
	if cap(k.bufs[x]) < n {
		k.bufs[x] = make([]state, n)
	}
	return k.bufs[x][:n]
}

// tier returns the live states after class i, built in the buffer other
// than held, given the states after class i−1 in cur (in buffer held), and
// appends their links to hist.
func (k *kernel) tier(cur []state, held, i int) []state {
	g, w, gamma, alpha1 := k.g, k.w, k.gamma, k.alpha1
	dmask := uint64(1)<<w - 1
	ci, ti := k.cands[i], k.classes[i].Support
	nd := len(ci)
	// A next state keeps the predecessor's nret newest digits (its key's
	// suffix) and drops the rest: the oldest digit once the tier is full,
	// nothing before.
	nret := min(i, gamma-1)
	shift := uint(nret) * w
	mask := uint64(1)<<shift - 1
	for r := 1; r <= nret; r++ {
		j := i - r
		wr := int64(k.classes[j].Size() + k.classes[i].Size())
		for b, bj := range k.cands[j] {
			// Class i's estimators ascend, so the row's nonzero costs are a
			// prefix; it ends where the gap closes.
			id, ej, d := (r-1)*g+b, k.classes[j].Support+bj, 0
			row := k.tab[id*g : id*g+nd]
			for ; d < nd; d++ {
				gap := alpha1 - int64(ti+ci[d]-ej)
				if gap <= 0 {
					break
				}
				row[d] = wr * gap * gap
			}
			k.tabEnd[id] = d
		}
	}

	// a0[d]: how many dropped digits sit at least α+1 below e_d, i.e. pair
	// with d at zero cost; a1[d]: how many sit below e_d at all (γ = 1).
	// The dropped pair is costed inline, not tabulated: only the overlap
	// window evaluates it, and at γ = 1 a G×G table could be huge.
	a0, a1 := k.a0, k.a1
	var dc []int
	td, w0 := 0, int64(0)
	if jd := i - gamma; jd < 0 {
		for d := range ci {
			a0[d] = 1 // nothing dropped yet: the one predecessor costs nothing
		}
	} else {
		dc, td = k.cands[jd], k.classes[jd].Support
		w0 = int64(k.classes[jd].Size() + k.classes[i].Size())
		a := 0
		for d, bd := range ci {
			for a < len(dc) && int64(ti+bd-(td+dc[a])) >= alpha1 {
				a++
			}
			a0[d] = a
		}
		if nret == 0 {
			a = 0
			for d, bd := range ci {
				for a < len(dc) && td+dc[a] < ti+bd {
					a++
				}
				a1[d] = a
			}
		}
	}

	var off []int
	size := nd - k.low[i] // γ = 1: at most one state per digit from low on
	if nret > 0 {
		// dlo[b]: class i's first digit whose estimator exceeds class
		// i−1's at digit b — estimator order forbids every lower one.
		dlo, d := k.dlo, 0
		tp := k.classes[i-1].Support
		for b, bp := range k.cands[i-1] {
			for d < nd && ti+ci[d] <= tp+bp {
				d++
			}
			dlo[b] = d
		}
		// Each suffix group emits every digit from dlo of its newest
		// digit on: count the groups by that bound and turn the counts
		// into each new digit's first slot.
		off = k.off[:nd+1]
		clear(off)
		for x := range cur {
			if x == 0 || cur[x].key&mask != cur[x-1].key&mask {
				off[dlo[cur[x].key&dmask]]++
			}
		}
		groups, slot := 0, 0
		for d := range off[:nd] {
			groups += off[d]
			off[d], slot = slot, slot+groups
		}
		size = max(slot, 1)
	}
	next, links := k.buf(1-held, size), k.links(size)

	col, pm, pmArg, colPos, ret := k.col, k.pm, k.pmArg, k.colPos, k.ret
	rows := k.rows[:nret]
	m := 0
	for x := 0; x < len(cur); {
		// Gather the group of predecessors sharing suffix sfx into a column
		// by dropped digit, with its prefix minima (the first digit wins
		// ties).
		sfx, amax := cur[x].key&mask, 0
		best, arg := int64(noCost), 0
		for ; x < len(cur) && cur[x].key&mask == sfx; x++ {
			a, c := int(cur[x].key>>shift), cur[x].cost
			for ; amax < a; amax++ {
				col[amax], pm[amax], pmArg[amax] = noCost, best, arg
			}
			if c < best {
				best, arg = c, a
			}
			col[a], colPos[a], pm[a], pmArg[a] = c, x, best, arg
			amax = a + 1
		}
		q := sfx
		for r := range rows {
			rows[r] = r*g + int(q&dmask)
			q >>= w
		}
		lo := 0
		if nret > 0 {
			lo = k.dlo[sfx&dmask]
		}
		k.sumRows(ret[:nd], rows, lo)
		for d := lo; d < nd; d++ {
			ahi := amax
			if nret == 0 {
				ahi = min(amax, a1[d])
			}
			best, arg := int64(noCost), 0
			if z := min(a0[d], ahi); z > 0 {
				best, arg = pm[z-1], pmArg[z-1]
			}
			ed := ti + ci[d]
			for a := a0[d]; a < ahi; a++ {
				c := col[a]
				if c == noCost {
					continue
				}
				gap := alpha1 - int64(ed-(td+dc[a]))
				if c += w0 * gap * gap; c < best {
					best, arg = c, a
				}
			}
			if best == noCost {
				continue // γ = 1 only: nothing below e_d
			}
			j := m
			if off != nil {
				j = off[d]
				off[d]++
			}
			next[j] = state{key: sfx<<w | uint64(d), cost: best + ret[d]}
			links[j] = uint32(colPos[arg])<<w | uint32(d)
			m++
		}
	}
	if m == 0 {
		// Cannot happen: class i's largest candidate estimator exceeds
		// every estimator of class i−1, since supports strictly increase
		// and MaxBias never falls. Guard anyway.
		z := indexOf(ci, 0)
		next[0], links[0], m = state{key: uint64(z)}, uint32(z), 1
	}
	return next[:m]
}

// sumRows sets ret[d] for every new digit d ≥ lo to a state's retained pair
// costs: the sum over its table rows ids, each zero past its end.
func (k *kernel) sumRows(ret []int64, ids []int, lo int) {
	clear(ret[lo:])
	for _, id := range ids {
		row := k.tab[id*k.g : id*k.g+k.tabEnd[id]]
		for d := lo; d < len(row); d++ {
			ret[d] += row[d]
		}
	}
}

// prune keeps the beam cheapest states of tier, ties by key, in tier
// order, and their links at the same positions. The cut is found by
// selection over sel, a scratch buffer of the tier's length, not a sort.
func (k *kernel) prune(tier []state, links []uint32, sel []state) []state {
	copy(sel, tier)
	cut := nth(sel, k.beam-1)
	kept := 0
	for j, st := range tier {
		if !cut.before(st) {
			tier[kept], links[kept] = st, links[j]
			kept++
		}
	}
	return tier[:kept]
}

// nth returns the k-th (0-based) of xs in before order, reordering xs:
// quickselect around a median of three. A tier's keys are distinct, so only
// the pivot itself compares equal to the pivot.
func nth(xs []state, k int) state {
	lo, hi := 0, len(xs)
	for {
		a, b, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi-1]
		if b.before(a) {
			a, b = b, a
		}
		if c.before(b) {
			b = c
			if b.before(a) {
				b = a
			}
		}
		pivot := b
		lt, j, gt := lo, lo, hi
		for j < gt {
			switch x := xs[j]; {
			case x.before(pivot):
				xs[lt], xs[j] = x, xs[lt]
				lt++
				j++
			case pivot.before(x):
				gt--
				xs[j], xs[gt] = xs[gt], x
			default:
				j++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return pivot
		}
	}
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

// maxGamma is the largest DP lookback SchemeByName accepts: it covers the
// paper's Fig. 6 sweep (γ ≤ 6) with room to spare, and at γ = 8 a call
// costs about 20× one at γ = 3 (DESIGN.md §2.2), a price a create request
// may choose to pay.
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
