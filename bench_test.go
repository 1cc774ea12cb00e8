package rsonpath_test

// One testing.B benchmark per table and figure of the paper's evaluation
// (§5), per DESIGN.md's experiment index. The authoritative, full-scale
// regeneration of every table/figure is cmd/rsonbench; these benches run
// the same specs at a reduced dataset scale so `go test -bench .` stays
// tractable. Dataset bytes are counted via b.SetBytes, so the ns/op and
// MB/s columns correspond to the paper's GB/s figures.

import (
	"bytes"
	"fmt"
	"testing"

	"rsonpath"
	"rsonpath/internal/bench"
	"rsonpath/internal/classifier"
	"rsonpath/internal/jsongen"
	"rsonpath/internal/simd"
)

// benchScale shrinks datasets relative to DESIGN.md defaults to keep
// `go test -bench .` runtimes reasonable.
const benchScale = 0.25

var benchHarness = func() *bench.Harness {
	h := bench.NewHarness()
	h.SizeFactor = benchScale
	return h
}()

// benchSpec runs one query spec on one engine under testing.B.
func benchSpec(b *testing.B, id string, v bench.Variant) {
	b.Helper()
	spec, ok := bench.SpecByID(id)
	if !ok {
		b.Fatalf("unknown spec %s", id)
	}
	data, err := benchHarness.Dataset(spec.Dataset)
	if err != nil {
		b.Fatal(err)
	}
	q, err := v.Compile(spec.Query)
	if bench.Unsupported(err) {
		b.Skipf("%s unsupported by %s", id, v.Label)
	}
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Count(data); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGroup runs a set of spec IDs across all three engines.
func benchGroup(b *testing.B, ids []string) {
	for _, id := range ids {
		for _, v := range bench.Engines {
			b.Run(fmt.Sprintf("%s/%s", id, v.Label), func(b *testing.B) {
				benchSpec(b, id, v)
			})
		}
	}
}

// BenchmarkFig4 reproduces Experiment A (Table 4 / Figure 4):
// descendant-free queries on all engines.
func BenchmarkFig4(b *testing.B) {
	benchGroup(b, []string{"B1", "B2", "B3", "G1", "G2", "N1", "N2", "T1", "T2", "W1", "W2", "Wi"})
}

// BenchmarkFig5 reproduces Experiment B (Table 5 / Figure 5): the
// descendant rewritings next to their originals.
func BenchmarkFig5(b *testing.B) {
	benchGroup(b, []string{"B1", "B1r", "B2", "B2r", "B3", "B3r", "G2", "G2r", "W1", "W1r", "W2", "W2r", "Wi", "Wir"})
}

// BenchmarkFig6 reproduces Experiment C (Table 6 / Figure 6): queries that
// probe the engine's limitations and opportunities.
func BenchmarkFig6(b *testing.B) {
	benchGroup(b, []string{"A1", "A2", "C1", "C2", "C2r", "C3", "C3r", "Ts", "Tsr", "Tsp"})
}

// BenchmarkTable7 reproduces Experiment D: scalability of
// $..affiliation..name over Crossref fragments of increasing size.
func BenchmarkTable7(b *testing.B) {
	for _, factor := range []float64{0.25, 0.5, 1, 2} {
		b.Run(fmt.Sprintf("scale-%g", factor), func(b *testing.B) {
			data, err := benchHarness.DatasetScaled("crossref", factor)
			if err != nil {
				b.Fatal(err)
			}
			q := rsonpath.MustCompile("$..affiliation..name")
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.Count(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2 reproduces the naive-vs-lookup classification comparison:
// per-block classification cost as the number of accepted byte values
// grows.
func BenchmarkTable2(b *testing.B) {
	blocks := make([]simd.Block, 1024)
	for i := range blocks {
		for j := range blocks[i] {
			blocks[i][j] = byte((i*31 + j*7) % 256)
		}
	}
	for _, k := range []int{1, 2, 4, 8, 16} {
		accepted := map[byte]bool{}
		for i := 0; i < k; i++ {
			accepted[byte(0x20+i*0x11)] = true
		}
		f := func(c byte) bool { return accepted[c] }
		for _, variant := range []struct {
			name string
			c    *classifier.RawClassifier
		}{
			{"naive", classifier.BuildNaive(f)},
			{"lookup", classifier.BuildRaw(f)},
		} {
			b.Run(fmt.Sprintf("values-%d/%s", k, variant.name), func(b *testing.B) {
				b.SetBytes(int64(len(blocks) * simd.BlockSize))
				for i := 0; i < b.N; i++ {
					for j := range blocks {
						bench.Sink ^= variant.c.Classify(&blocks[j])
					}
				}
			})
		}
	}
}

// BenchmarkTable3 measures dataset generation + characteristics (the
// workload-preparation cost behind Table 3).
func BenchmarkTable3(b *testing.B) {
	for _, p := range jsongen.Profiles() {
		b.Run(p.Name, func(b *testing.B) {
			target := int(float64(p.DefaultSize) * benchScale)
			b.SetBytes(int64(target))
			for i := 0; i < b.N; i++ {
				data, err := jsongen.Generate(p.Name, target, 42)
				if err != nil {
					b.Fatal(err)
				}
				_ = data
			}
		})
	}
}

// BenchmarkTable9 measures the node- vs path-semantics evaluation of the
// Appendix D comparison on its example document.
func BenchmarkTable9(b *testing.B) {
	q := rsonpath.MustCompile("$..person..name")
	data := []byte(bench.SemanticsDoc)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := q.Count(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation measures the engine with each skipping technique
// disabled (DESIGN.md's ablation row).
func BenchmarkAblation(b *testing.B) {
	spec, _ := bench.SpecByID("B1r")
	data, err := benchHarness.Dataset(spec.Dataset)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range bench.AblationVariants {
		b.Run(v.Label, func(b *testing.B) {
			q, err := v.Compile(spec.Query)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.Count(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStackless compares the three simulation strategies of §3.2 on a
// descendant-only chain (bench.StacklessVariants): the full engine
// (head-skip + depth-stack), the pure depth-stack simulation (head-skip
// off), and the depth-register stackless automaton.
func BenchmarkStackless(b *testing.B) {
	data, err := benchHarness.Dataset("crossref")
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range bench.StacklessVariants {
		q, err := v.Compile(bench.StacklessQuery)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(v.Label, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := q.Count(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMultiQuery compares one-pass QuerySet evaluation against N
// independent Query runs on every multi-query workload.
func BenchmarkMultiQuery(b *testing.B) {
	for _, spec := range bench.MultiSpecs {
		data, err := benchHarness.Dataset(spec.Dataset)
		if err != nil {
			b.Fatal(err)
		}
		set, err := rsonpath.CompileSet(spec.Queries)
		if err != nil {
			b.Fatal(err)
		}
		indep := make([]*rsonpath.Query, len(spec.Queries))
		for i, src := range spec.Queries {
			if indep[i], err = rsonpath.Compile(src); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("%s/set", spec.ID), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := set.Counts(data); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/independent", spec.ID), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				for _, q := range indep {
					if _, err := q.Count(data); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkIndexedRepeatQuery compares a cold Run per query against warm
// RunIndexed passes over one prebuilt IndexedDocument at N = 1, 8 and 32
// repeated queries, plus the one-off index build. The full-scale version is
// `rsonbench -exp swar` (BENCH_swar.json).
func BenchmarkIndexedRepeatQuery(b *testing.B) {
	data, err := benchHarness.Dataset("crossref")
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]*rsonpath.Query, len(bench.IndexedRepeatQueries))
	for i, src := range bench.IndexedRepeatQueries {
		queries[i] = rsonpath.MustCompile(src)
	}
	doc, err := rsonpath.Index(data)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("index-build", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := rsonpath.Index(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, n := range []int{1, 8, 32} {
		batch := queries[:n]
		b.Run(fmt.Sprintf("N%d/cold-run", n), func(b *testing.B) {
			b.SetBytes(int64(n * len(data)))
			for i := 0; i < b.N; i++ {
				for _, q := range batch {
					if _, err := q.Count(data); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("N%d/warm-indexed", n), func(b *testing.B) {
			b.SetBytes(int64(n * len(data)))
			for i := 0; i < b.N; i++ {
				for _, q := range batch {
					if _, err := q.CountIndexed(doc); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkStreaming measures what the buffered input costs relative to
// the borrowed (in-memory) input on the same documents and queries: the
// borrowed runs go through Count (zero-copy BytesInput), the buffered runs
// re-read the same bytes through an io.Reader with the default window.
func BenchmarkStreaming(b *testing.B) {
	for _, id := range []string{"B1", "W2", "C1"} {
		spec, ok := bench.SpecByID(id)
		if !ok {
			b.Fatalf("unknown spec %s", id)
		}
		data, err := benchHarness.Dataset(spec.Dataset)
		if err != nil {
			b.Fatal(err)
		}
		q := rsonpath.MustCompile(spec.Query)
		b.Run(id+"/borrowed", func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := q.Count(data); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(id+"/buffered", func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := q.CountReader(bytes.NewReader(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
