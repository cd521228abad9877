package core

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"hybridroute/internal/sim"
)

// TestVisibilityDomainLazy pins that no build path pays for the Section-3
// visibility domain: Preprocess, PreprocessStatic and a crash repair leave
// it unbuilt, the first RouteVisibility builds it once and later queries
// reuse it, and the restore after the last recovery brings back the
// pristine holder without rebuilding anything.
func TestVisibilityDomainLazy(t *testing.T) {
	nw := prepScenario(t, 0.55, 8, 8, 1.8)
	if nw.visDomain.d != nil {
		t.Fatal("Preprocess built the Section-3 domain")
	}
	static, err := PreprocessStatic(nw.G, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if static.visDomain.d != nil {
		t.Fatal("PreprocessStatic built the Section-3 domain")
	}

	s, d := transportPair(t, nw)
	before := nw.Route(s, d)
	victim, ok := interiorPathNode(before.Path)
	if !ok {
		t.Fatal("baseline path too short to pick a victim")
	}
	pristine := nw.visDomain
	if err := nw.Sim.Crash(victim); err != nil {
		t.Fatal(err)
	}
	if nw.visDomain == pristine || nw.visDomain.d != nil || pristine.d != nil {
		t.Fatal("crash repair built a Section-3 domain")
	}

	nw.RouteVisibility(s, d)
	built := nw.visDomain.d
	if built == nil {
		t.Fatal("RouteVisibility did not build the domain")
	}
	nw.RouteVisibility(d, s)
	if nw.VisibilityDomain() != built {
		t.Fatal("a second query rebuilt the domain")
	}
	if pristine.d != nil {
		t.Fatal("the repaired topology's query built the pristine domain")
	}

	if err := nw.Sim.Recover(victim); err != nil {
		t.Fatal(err)
	}
	if nw.visDomain != pristine || pristine.d != nil {
		t.Fatal("restore must bring back the pristine, still unbuilt holder")
	}
	want := nw.VisibilityDomain()
	if err := nw.Sim.Crash(victim); err != nil {
		t.Fatal(err)
	}
	if err := nw.Sim.Recover(victim); err != nil {
		t.Fatal(err)
	}
	if nw.VisibilityDomain() != want {
		t.Fatal("restore rebuilt the pristine domain")
	}
}

// TestRouteVisibilityConcurrentFirstUse races the lazy build: many
// goroutines query RouteVisibility on one fresh network at once, and every
// answer must equal the sequential answer on a second fresh network.
func TestRouteVisibilityConcurrentFirstUse(t *testing.T) {
	ref := prepScenario(t, 0.55, 8, 8, 1.8)
	nw := prepScenario(t, 0.55, 8, 8, 1.8)
	rng := rand.New(rand.NewSource(3))
	pairs := make([][2]sim.NodeID, 24)
	want := make([]Outcome, len(pairs))
	for i := range pairs {
		pairs[i] = [2]sim.NodeID{sim.NodeID(rng.Intn(ref.G.N())), sim.NodeID(rng.Intn(ref.G.N()))}
		want[i] = ref.RouteVisibility(pairs[i][0], pairs[i][1])
	}
	const workers = 8
	got := make([][]Outcome, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]Outcome, len(pairs))
			for i := range pairs {
				k := (i + w) % len(pairs) // every worker starts at a different pair
				got[w][k] = nw.RouteVisibility(pairs[k][0], pairs[k][1])
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		if !reflect.DeepEqual(got[w], want) {
			t.Fatalf("worker %d: concurrent RouteVisibility answers differ from the sequential ones", w)
		}
	}
}
