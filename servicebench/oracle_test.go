package main

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/itemset"
)

// tiny is a small stream for oracle tests: a few windows in well under a
// second.
var tiny = workload{
	name: "tiny", profile: "webview",
	window: 300, support: 10, epsilon: 0.1, gamma: 2, publishEvery: 20,
}

func tinyReference(t *testing.T) *reference {
	t.Helper()
	c := newCorpus(tiny.profile, 1, 400)
	recs, vocab, err := c.records(0, 400)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := runReference(tiny, 1, recs, vocab, map[int]bool{300: true, 400: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.positions) != 6 || len(ref.bad) != 0 {
		t.Fatalf("reference: positions %v, bound violations %v", ref.positions, ref.bad)
	}
	return ref
}

// honest is what a correct server publishes: every reference window once,
// plus the retained bodies.
func honest(ref *reference) incarnation {
	var ps []published
	for _, p := range ref.positions {
		ps = append(ps, published{pos: p, hash: ref.hash[p]})
	}
	return incarnation{
		pubs:   [][]published{ps},
		bodies: []windowBody{{300, ref.bodies[300]}, {400, ref.bodies[400]}},
	}
}

func TestOracleAcceptsFaithfulServer(t *testing.T) {
	ref := tinyReference(t)
	var v verdict
	v.check("stream", ref, honest(ref))
	if v.expected != len(ref.positions) || v.missing != 0 || v.wrong != 0 {
		t.Fatalf("faithful server: %+v", v)
	}
}

func TestOracleRejectsTamperedWindow(t *testing.T) {
	ref := tinyReference(t)
	for _, tc := range []struct {
		name           string
		tamper         func(*incarnation)
		missing, wrong int
	}{
		// A changed window is wrong, and the right one was never published.
		{"content", func(inc *incarnation) { inc.pubs[0][2].hash ^= 1 }, 1, 1},
		{"body", func(inc *incarnation) {
			inc.bodies[1].Body = strings.Replace(inc.bodies[1].Body, "1", "2", 1)
		}, 0, 1},
		{"missing", func(inc *incarnation) { inc.pubs[0] = inc.pubs[0][1:] }, 1, 0},
		{"extra", func(inc *incarnation) {
			inc.pubs[0] = append(inc.pubs[0], published{pos: 301, hash: ref.hash[300]})
		}, 0, 1},
	} {
		inc := honest(ref)
		tc.tamper(&inc)
		var v verdict
		v.check("stream", ref, inc)
		if v.missing != tc.missing || v.wrong != tc.wrong {
			t.Errorf("%s tampering: missing %d, wrong %d; want %d, %d", tc.name, v.missing, v.wrong, tc.missing, tc.wrong)
		}
	}
}

func TestCheckBounds(t *testing.T) {
	p := tiny.params()
	a, b := itemset.New(1, 2), itemset.New(3)
	limit := p.MaxBias(20) + p.Alpha()/2
	raw := &core.Output{Items: []core.PublishedItemset{{Set: a, Support: 20}, {Set: b, Support: 30}}}
	out := func(sa, sb int, sets ...itemset.Itemset) *core.Output {
		o := &core.Output{Items: []core.PublishedItemset{{Set: a, Support: sa}, {Set: b, Support: sb}}}
		for _, s := range sets {
			o.Items = append(o.Items, core.PublishedItemset{Set: s, Support: 25})
		}
		return o
	}
	if err := checkBounds(p, out(20+limit, 30), raw); err != nil {
		t.Errorf("offset at the bound rejected: %v", err)
	}
	if err := checkBounds(p, out(20-limit-1, 30), raw); err == nil {
		t.Error("offset past the bound accepted")
	}
	if err := checkBounds(p, out(20, 30, itemset.New(4)), raw); err == nil {
		t.Error("an extra published itemset accepted")
	}
	dup := &core.Output{Items: []core.PublishedItemset{{Set: a, Support: 20}, {Set: a, Support: 20}}}
	if err := checkBounds(p, dup, raw); err == nil {
		t.Error("a duplicated itemset in place of a frequent one accepted")
	}
}
