package core

import (
	"math"
	"sort"

	"repro/internal/fec"
)

// biasesSparse is the map-keyed beam DP the kernel must match exactly
// (TestOrderPreservingKernelMatchesReference). It is the slow, direct
// statement of the same rules: every state costed by direct pair sums,
// every map walked in sorted key order, the beam cut by (cost, key) after
// a full sort.
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
