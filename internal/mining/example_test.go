package mining_test

import (
	"fmt"

	"repro/internal/itemset"
	"repro/internal/mining"
)

// ExampleEclat mines a toy basket database; both per-window miners
// (Apriori, Eclat) return identical results.
func ExampleEclat() {
	db := itemset.NewDatabase([]itemset.Itemset{
		itemset.New(0, 1),    // {a,b}
		itemset.New(0, 1, 2), // {a,b,c}
		itemset.New(0, 2),    // {a,c}
		itemset.New(0, 1),    // {a,b}
	})
	res, err := mining.Eclat(db, 2)
	if err != nil {
		panic(err)
	}
	for _, fi := range res.Itemsets {
		fmt.Println(fi.Set, fi.Support)
	}
	// Output:
	// {a} 4
	// {b} 3
	// {a,b} 3
	// {c} 2
	// {a,c} 2
}

// ExampleResult_Closed keeps only closed itemsets: {b} vanishes because
// {a,b} has the same support.
func ExampleResult_Closed() {
	db := itemset.NewDatabase([]itemset.Itemset{
		itemset.New(0, 1), itemset.New(0, 1), itemset.New(0),
	})
	res, _ := mining.Apriori(db, 1)
	for _, fi := range res.Closed().Itemsets {
		fmt.Println(fi.Set, fi.Support)
	}
	// Output:
	// {a} 3
	// {a,b} 2
}
