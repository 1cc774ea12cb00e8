package rsonpath

import (
	"sync"
	"testing"

	"rsonpath/internal/jsongen"
	"rsonpath/internal/simd"
)

// TestSetBackendWhileQueriesRun flips the kernel backend in a loop while
// goroutines run cold Counts, whose every classification window dispatches
// through the active backend. Under -race this pins the backend switch as
// safe against live queries, and every count must still equal the DOM
// oracle's: a window classified on either backend is bit-identical.
func TestSetBackendWhileQueriesRun(t *testing.T) {
	backends := simd.Backends()
	best := backends[len(backends)-1]
	prev := simd.Backend()
	defer func() {
		if err := simd.SetBackend(prev); err != nil {
			t.Fatal(err)
		}
	}()

	doc, err := jsongen.Generate("crossref", 256<<10, 3)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"$..DOI", "$.items.*.author.*.family", "$..affiliation..name", "$.items[2].title"}
	want := make([]int, len(queries))
	for i, src := range queries {
		if want[i], err = MustCompile(src, WithEngine(EngineDOM)).Count(doc); err != nil {
			t.Fatal(err)
		}
	}

	rounds := 12
	if testing.Short() {
		rounds = 4
	}
	done := make(chan struct{})
	var flips sync.WaitGroup
	flips.Add(1)
	go func() {
		defer flips.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			name := "swar"
			if i%2 == 1 {
				name = best
			}
			if err := simd.SetBackend(name); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var runs sync.WaitGroup
	for g := 0; g < 2; g++ {
		runs.Add(1)
		go func(g int) {
			defer runs.Done()
			for r := 0; r < rounds; r++ {
				for i, src := range queries {
					got, err := MustCompile(src).Count(doc)
					if err != nil {
						t.Errorf("%s: %v", src, err)
						return
					}
					if got != want[i] {
						t.Errorf("goroutine %d round %d: %s counted %d, DOM oracle %d", g, r, src, got, want[i])
						return
					}
				}
			}
		}(g)
	}
	runs.Wait()
	close(done)
	flips.Wait()
}
