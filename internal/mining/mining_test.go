package mining

import (
	"testing"
	"testing/quick"

	"repro/internal/itemset"
	"repro/internal/paperex"
	"repro/internal/rng"
)

// bruteForce mines by definition: enumerate all subsets of all records and
// count support by scanning. Exponential, only for tiny fixtures.
func bruteForce(db *itemset.Database, minSupport int) *Result {
	seen := map[string]itemset.Itemset{}
	for _, rec := range db.Records() {
		rec.Subsets(func(sub itemset.Itemset) bool {
			if !sub.Empty() {
				seen[sub.Key()] = sub
			}
			return true
		})
	}
	var out []FrequentItemset
	for _, s := range seen {
		if sup := db.Support(s); sup >= minSupport {
			out = append(out, FrequentItemset{s, sup})
		}
	}
	return NewResult(minSupport, out)
}

func sameResult(t *testing.T, got, want *Result, label string) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d frequent itemsets, want %d", label, got.Len(), want.Len())
	}
	for _, fi := range want.Itemsets {
		sup, ok := got.Support(fi.Set)
		if !ok {
			t.Fatalf("%s: missing frequent itemset %v", label, fi.Set)
		}
		if sup != fi.Support {
			t.Fatalf("%s: T(%v) = %d, want %d", label, fi.Set, sup, fi.Support)
		}
	}
}

func randomDB(src *rng.Source, records, universe, maxLen int) *itemset.Database {
	recs := make([]itemset.Itemset, records)
	for i := range recs {
		n := 1 + src.Intn(maxLen)
		items := make([]itemset.Item, 0, n)
		for j := 0; j < n; j++ {
			items = append(items, itemset.Item(src.Intn(universe)))
		}
		recs[i] = itemset.New(items...)
	}
	return itemset.NewDatabase(recs)
}

func TestAprioriOnPaperExample(t *testing.T) {
	db := paperex.Window12()
	res, err := Apriori(db, 5)
	if err != nil {
		t.Fatal(err)
	}
	// With C=5 in Ds(12,8): frequent are c(8), a(5), b(5)?, ac(5), bc(5)...
	// Ground truth from the fixture: a appears in r5..r9 = 5, b in r5,r6,r7,r10,r11 = 5,
	// d in r9,r11,r12 (+r4 not in window) = 3.
	for _, tc := range []struct {
		set  itemset.Itemset
		want int
	}{
		{itemset.New(paperex.C), 8},
		{itemset.New(paperex.A), 5},
		{itemset.New(paperex.B), 5},
		{itemset.New(paperex.A, paperex.C), 5},
		{itemset.New(paperex.B, paperex.C), 5},
	} {
		sup, ok := res.Support(tc.set)
		if !ok || sup != tc.want {
			t.Errorf("T(%v) = %d,%v want %d", tc.set, sup, ok, tc.want)
		}
	}
	if _, ok := res.Support(itemset.New(paperex.D)); ok {
		t.Error("d should be infrequent at C=5")
	}
	if _, ok := res.Support(itemset.New(paperex.A, paperex.B, paperex.C)); ok {
		t.Error("abc (support 3) should be infrequent at C=5")
	}
}

func TestAprioriMatchesBruteForce(t *testing.T) {
	src := rng.New(101)
	for trial := 0; trial < 30; trial++ {
		db := randomDB(src, 30, 8, 5)
		minSup := 1 + src.Intn(6)
		want := bruteForce(db, minSup)
		got, err := Apriori(db, minSup)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, got, want, "apriori")
	}
}

func TestEclatMatchesApriori(t *testing.T) {
	src := rng.New(202)
	for trial := 0; trial < 30; trial++ {
		db := randomDB(src, 60, 12, 6)
		minSup := 2 + src.Intn(8)
		want, err := Apriori(db, minSup)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Eclat(db, minSup)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, got, want, "eclat")
	}
}

func TestEclatMatchesAprioriProperty(t *testing.T) {
	src := rng.New(303)
	f := func(seed uint32) bool {
		s := rng.New(uint64(seed) ^ src.Uint64())
		db := randomDB(s, 25, 6, 4)
		minSup := 1 + s.Intn(5)
		a, err1 := Apriori(db, minSup)
		e, err2 := Eclat(db, minSup)
		if err1 != nil || err2 != nil || a.Len() != e.Len() {
			return false
		}
		for _, fi := range a.Itemsets {
			sup, ok := e.Support(fi.Set)
			if !ok || sup != fi.Support {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestClosedFiltering(t *testing.T) {
	// Classic example: records {a,b} x3, {a} x1. T(a)=4, T(b)=3, T(ab)=3.
	// b is NOT closed (ab has equal support); a and ab are closed.
	db := itemset.NewDatabase([]itemset.Itemset{
		itemset.New(0, 1), itemset.New(0, 1), itemset.New(0, 1), itemset.New(0),
	})
	res, err := Apriori(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	closed := res.Closed()
	if _, ok := closed.Support(itemset.New(1)); ok {
		t.Error("b should not be closed")
	}
	if _, ok := closed.Support(itemset.New(0)); !ok {
		t.Error("a should be closed")
	}
	if _, ok := closed.Support(itemset.New(0, 1)); !ok {
		t.Error("ab should be closed")
	}
	if closed.Len() != 2 {
		t.Errorf("closed count = %d, want 2", closed.Len())
	}
}

// Every frequent itemset's support must be recoverable from its closed
// superset set: the support of X equals the max support among closed
// supersets of X. This is the fundamental property that makes closed sets a
// lossless compression.
func TestClosedLossless(t *testing.T) {
	src := rng.New(404)
	for trial := 0; trial < 20; trial++ {
		db := randomDB(src, 40, 8, 5)
		minSup := 2 + src.Intn(4)
		all, err := Eclat(db, minSup)
		if err != nil {
			t.Fatal(err)
		}
		closed := all.Closed()
		for _, fi := range all.Itemsets {
			best := -1
			for _, cl := range closed.Itemsets {
				if cl.Set.ContainsAll(fi.Set) && cl.Support > best {
					best = cl.Support
				}
			}
			if best != fi.Support {
				t.Fatalf("support of %v not recoverable from closed sets: %d vs %d",
					fi.Set, best, fi.Support)
			}
		}
	}
}

func TestClosedIdempotent(t *testing.T) {
	src := rng.New(505)
	db := randomDB(src, 40, 8, 5)
	res, err := Eclat(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	c1 := res.Closed()
	c2 := c1.Closed()
	sameResult(t, c2, c1, "closed idempotence")
}

func TestResultLookup(t *testing.T) {
	res := NewResult(2, []FrequentItemset{
		{itemset.New(1), 5},
		{itemset.New(2), 3},
		{itemset.New(1, 2), 3},
	})
	if sup, ok := res.Support(itemset.New(1)); !ok || sup != 5 {
		t.Errorf("Support({1}) = %d,%v", sup, ok)
	}
	if _, ok := res.Support(itemset.New(9)); ok {
		t.Error("lookup of absent itemset succeeded")
	}
}

func TestResultDeterministicOrder(t *testing.T) {
	sets := []FrequentItemset{
		{itemset.New(2), 3},
		{itemset.New(1), 5},
		{itemset.New(1, 2), 3},
		{itemset.New(0), 3},
	}
	r := NewResult(2, sets)
	// Descending support; ties by size then key: {1}:5, {0}:3, {2}:3, {1,2}:3.
	wantFirst := itemset.New(1)
	if !r.Itemsets[0].Set.Equal(wantFirst) {
		t.Errorf("first = %v", r.Itemsets[0].Set)
	}
	if !r.Itemsets[1].Set.Equal(itemset.New(0)) || !r.Itemsets[2].Set.Equal(itemset.New(2)) {
		t.Errorf("tie order wrong: %v, %v", r.Itemsets[1].Set, r.Itemsets[2].Set)
	}
	if !r.Itemsets[3].Set.Equal(itemset.New(1, 2)) {
		t.Errorf("last = %v", r.Itemsets[3].Set)
	}
}

func TestMiningErrors(t *testing.T) {
	if _, err := Apriori(nil, 1); err == nil {
		t.Error("Apriori(nil) did not error")
	}
	db := itemset.NewDatabase(nil)
	if _, err := Apriori(db, 0); err == nil {
		t.Error("Apriori with minSupport 0 did not error")
	}
	if _, err := Eclat(db, -1); err == nil {
		t.Error("Eclat with negative minSupport did not error")
	}
}

func TestMiningEmptyDatabase(t *testing.T) {
	db := itemset.NewDatabase(nil)
	for _, mine := range []func(*itemset.Database, int) (*Result, error){Apriori, Eclat} {
		res, err := mine(db, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 0 {
			t.Errorf("mining empty database returned %d itemsets", res.Len())
		}
	}
}

func TestMinSupportOne(t *testing.T) {
	db := itemset.NewDatabase([]itemset.Itemset{itemset.New(0, 1, 2)})
	res, err := Eclat(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	// All 7 non-empty subsets of {a,b,c} are frequent.
	if res.Len() != 7 {
		t.Errorf("got %d itemsets, want 7", res.Len())
	}
}

func BenchmarkAprioriWindow2000(b *testing.B) {
	src := rng.New(7)
	db := randomDB(src, 2000, 60, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Apriori(db, 50); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEclatWindow2000(b *testing.B) {
	src := rng.New(7)
	db := randomDB(src, 2000, 60, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Eclat(db, 50); err != nil {
			b.Fatal(err)
		}
	}
}
