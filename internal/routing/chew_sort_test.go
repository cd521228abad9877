package routing

import (
	"math/rand"
	"sort"
	"testing"
)

// TestSortByParamStable pins the determinism contract of the corridor-chain
// sort: equal keys keep their input order (the insertion sort it replaced was
// stable, and chain construction depends on it).
func TestSortByParamStable(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vs := make([]NodeID, 200)
	keys := map[NodeID]float64{}
	for i := range vs {
		vs[i] = NodeID(i)
		keys[vs[i]] = float64(rng.Intn(10)) // many equal keys
	}
	sorted := append([]NodeID(nil), vs...)
	sortByParam(sorted, func(v NodeID) float64 { return keys[v] })
	if !sort.SliceIsSorted(sorted, func(i, j int) bool { return keys[sorted[i]] < keys[sorted[j]] }) {
		t.Fatal("sortByParam must sort by key")
	}
	for i := 1; i < len(sorted); i++ {
		if keys[sorted[i-1]] == keys[sorted[i]] && sorted[i-1] > sorted[i] {
			t.Fatalf("equal keys reordered: %d before %d", sorted[i-1], sorted[i])
		}
	}
}
