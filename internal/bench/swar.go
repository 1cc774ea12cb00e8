package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"rsonpath"
	"rsonpath/internal/classifier"
	"rsonpath/internal/simd"
)

// SWARKernelResult compares batched against per-block classification over
// one dataset under one kernel backend, at two levels: the raw-mask kernels
// alone (BatchRawMasks vs a loop of the per-block kernels producing the
// same six masks) and full classification (the whole-document BuildPlanes
// and the cold Stream walk, which classifies the same planes a window at a
// time). One row is emitted per available backend — on an AVX2 host both
// the native row and the forced-SWAR row, so the hardware kernels' margin
// is measured on the same machine. Serialised into BENCH_swar.json.
type SWARKernelResult struct {
	Dataset string `json:"dataset"`
	// Backend is the simd backend forced for this row's batch kernel and
	// plane build ("swar", "avx2", ...).
	Backend string `json:"backend"`
	Bytes   int    `json:"bytes"`
	// Raw-mask kernels: six masks per block, no quote carry. The per-block
	// baseline always runs the portable word-at-a-time kernels, whatever
	// the forced backend, so it anchors every row to the same yardstick.
	BatchKernelGBps    float64 `json:"batch_kernel_gbps"`
	PerBlockKernelGBps float64 `json:"per_block_kernel_gbps"`
	KernelSpeedup      float64 `json:"kernel_speedup"`
	// Full classification: quote carry and in-string masking included.
	// StreamWalkGBps walks a cold Stream over every block under the row's
	// backend — the path every cold run takes; PlanesSpeedup is the plane
	// build over that walk (the price of windowing, ~1 when it is free).
	BuildPlanesGBps float64 `json:"build_planes_gbps"`
	StreamWalkGBps  float64 `json:"stream_walk_gbps"`
	PlanesSpeedup   float64 `json:"planes_speedup"`
}

// Acceptance floors for CheckSimd: on a host with hardware kernels, the
// hardware batch sweep must beat forced SWAR by SimdKernelFloor, and the
// whole plane build and the cold stream walk by SimdPlanesFloor and
// SimdStreamFloor (both include the sequential quote-carry pass, which no
// backend can vectorize, hence the lower bars).
const (
	SimdKernelFloor = 2.5
	SimdPlanesFloor = 1.5
	SimdStreamFloor = 1.5
)

// IndexedRepeatResult compares N cold Query.Run passes against N warm
// RunIndexed passes over one prebuilt index, the IndexedDocument headline
// number. Serialised into BENCH_swar.json.
type IndexedRepeatResult struct {
	Dataset string `json:"dataset"`
	N       int    `json:"n"`
	Bytes   int    `json:"bytes"`
	Matches int    `json:"matches"`
	// ColdSeconds is N Query.Run passes over the raw bytes.
	ColdSeconds float64 `json:"cold_seconds"`
	// WarmSeconds is N Query.RunIndexed passes over a prebuilt index.
	WarmSeconds float64 `json:"warm_seconds"`
	// IndexSeconds is one Index build (amortised over every later run).
	IndexSeconds float64 `json:"index_seconds"`
	// Speedup is ColdSeconds / WarmSeconds; SpeedupWithBuild charges the
	// index build to the warm side.
	Speedup          float64 `json:"speedup"`
	SpeedupWithBuild float64 `json:"speedup_with_build"`
}

// SWARReport is the BENCH_swar.json payload.
type SWARReport struct {
	// Backend is the backend active outside forced rows — what every other
	// experiment and production run on this host uses.
	Backend string `json:"backend"`
	// Backends lists every backend available on the recording host.
	Backends      []string              `json:"backends"`
	Kernels       []SWARKernelResult    `json:"kernels"`
	IndexedRepeat []IndexedRepeatResult `json:"indexed_repeat"`
}

// IndexedRepeatQueries is the repeated-query workload over the Crossref
// dataset: child-chain and index selectors whose runs are dominated by
// classification and structural skipping, the costs an index amortises.
// (A head-skip query like $..vitamins_tags spends its time in memmem, which
// reads raw bytes either way — indexing cannot help it; see DESIGN.md §11.)
// The N=1/8/32 workloads take prefixes.
var IndexedRepeatQueries = []string{
	"$.items.*.DOI",
	"$.items.*.title",
	"$.items.*.type",
	"$.items.*.publisher",
	"$.items.*.author.*.given",
	"$.items.*.author.*.family",
	"$.items.*.author.*.affiliation.*.name",
	"$.items.*.reference.*.key",
	"$.items.*.author.*.ORCID",
	"$.items.*.author.*.sequence",
	"$.items.*.reference.*.DOI",
	"$.items.*.reference.*.unstructured",
	"$.items.*.editor.*.name",
	"$.items.*.editor.*.affiliation.*.name",
	"$.items.*.issued.date-parts",
	"$.items.*.title[0]",
	"$.items[0].DOI",
	"$.items[1].DOI",
	"$.items[2].title",
	"$.items[3].publisher",
	"$.items[4].author.*.given",
	"$.items[5].author.*.family",
	"$.items[6].reference.*.key",
	"$.items[7].type",
	"$.items[8].DOI",
	"$.items[9].title",
	"$.items[10].author.*.affiliation.*.name",
	"$.items[11].issued.date-parts",
	"$.items[12].publisher",
	"$.items[13].reference.*.DOI",
	"$.items[14].author.*.ORCID",
	"$.items[15].DOI",
}

// timeGBps measures f over best-of-passes wall time, the micro-benchmark
// convention timeClassifier also follows: on a shared machine the minimum,
// not the mean, estimates the undisturbed cost of a pure CPU kernel. One
// extra untimed pass warms the caches.
func timeGBps(bytes, passes int, f func()) float64 {
	one := func() time.Duration {
		start := time.Now()
		f()
		return time.Since(start)
	}
	f()
	best := one()
	for i := 1; i < passes; i++ {
		if d := one(); d < best {
			best = d
		}
	}
	if best <= 0 {
		return 0
	}
	return float64(bytes) / best.Seconds() / 1e9
}

// RunSWARKernels measures batched vs per-block classification throughput
// over the given datasets, once per kernel backend available on this host
// (each backend is forced for its rows and the previous one restored).
func (h *Harness) RunSWARKernels(datasets []string) ([]SWARKernelResult, error) {
	passes := h.Samples
	if passes < 3 {
		passes = 3
	}
	prev := simd.Backend()
	defer func() { _ = simd.SetBackend(prev) }()
	var out []SWARKernelResult
	for _, name := range datasets {
		data, err := h.Dataset(name)
		if err != nil {
			return nil, err
		}
		n := len(data) / simd.BlockSize
		planes := make([][]uint64, 6)
		for i := range planes {
			planes[i] = make([]uint64, n)
		}

		// The per-block baseline runs the portable word-at-a-time kernels
		// regardless of the forced backend; measure it once per dataset and
		// anchor every backend row to it.
		perBlock := timeGBps(len(data), passes, func() {
			var b simd.Block
			for i := 0; i < n; i++ {
				simd.LoadBlock(&b, data[i*simd.BlockSize:(i+1)*simd.BlockSize], ' ')
				backslash, quote := simd.CmpEq8Pair(&b, '\\', '"')
				opens, closes := simd.BracketMasks(&b)
				commas := simd.CmpEq8(&b, ',')
				colons := simd.CmpEq8(&b, ':')
				planes[0][i], planes[1][i] = backslash, quote
				planes[2][i], planes[3][i] = opens, closes
				planes[4][i], planes[5][i] = commas, colons
			}
			if n > 0 {
				Sink ^= planes[1][n/2]
			}
		})
		for _, backend := range simd.Backends() {
			if err := simd.SetBackend(backend); err != nil {
				return nil, fmt.Errorf("swar: forcing backend %s: %w", backend, err)
			}
			r := SWARKernelResult{
				Dataset:            name,
				Backend:            backend,
				Bytes:              len(data),
				PerBlockKernelGBps: perBlock,
			}
			r.BatchKernelGBps = timeGBps(len(data), passes, func() {
				blocks := simd.BatchRawMasks(data, planes[0], planes[1], planes[2], planes[3], planes[4], planes[5])
				if blocks > 0 {
					Sink ^= planes[1][blocks/2]
				}
			})
			r.BuildPlanesGBps = timeGBps(len(data), passes, func() {
				p := classifier.BuildPlanes(data)
				if p.Blocks() > 0 {
					Sink ^= p.Quote[p.Blocks()/2]
				}
			})
			r.StreamWalkGBps = timeGBps(len(data), passes, func() {
				s := classifier.NewStream(data)
				for !s.Exhausted() {
					Sink ^= s.QuoteMask() ^ s.InString()
					if !s.Advance() {
						break
					}
				}
				s.Release()
			})
			if r.PerBlockKernelGBps > 0 {
				r.KernelSpeedup = r.BatchKernelGBps / r.PerBlockKernelGBps
			}
			if r.StreamWalkGBps > 0 {
				r.PlanesSpeedup = r.BuildPlanesGBps / r.StreamWalkGBps
			}
			out = append(out, r)
		}
		if err := simd.SetBackend(prev); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// CheckSimd is the acceptance gate over the kernel rows (run by CI next to
// CheckPlanner and CheckOverload): for every dataset measured under both a
// hardware backend and forced SWAR on the same host, the hardware batch
// kernel must be at least SimdKernelFloor times the SWAR batch kernel, the
// hardware plane build at least SimdPlanesFloor times the SWAR build, and
// the hardware cold stream walk at least SimdStreamFloor times the SWAR
// walk. On hosts with no hardware backend there is nothing to compare and
// the gate passes.
func CheckSimd(rep SWARReport) error {
	type pair struct{ swar, hw *SWARKernelResult }
	byDataset := map[string]*pair{}
	for i := range rep.Kernels {
		r := &rep.Kernels[i]
		p := byDataset[r.Dataset]
		if p == nil {
			p = &pair{}
			byDataset[r.Dataset] = p
		}
		if r.Backend == "swar" {
			p.swar = r
		} else {
			p.hw = r
		}
	}
	var bad []string
	for dataset, p := range byDataset {
		if p.swar == nil || p.hw == nil {
			continue // single-backend host: nothing to gate
		}
		if p.swar.BatchKernelGBps > 0 {
			if ratio := p.hw.BatchKernelGBps / p.swar.BatchKernelGBps; ratio < SimdKernelFloor {
				bad = append(bad, fmt.Sprintf(
					"%s: %s batch kernel is only %.2f× swar (%.2f vs %.2f GB/s), floor %.1f×",
					dataset, p.hw.Backend, ratio, p.hw.BatchKernelGBps, p.swar.BatchKernelGBps, SimdKernelFloor))
			}
		}
		if p.swar.BuildPlanesGBps > 0 {
			if ratio := p.hw.BuildPlanesGBps / p.swar.BuildPlanesGBps; ratio < SimdPlanesFloor {
				bad = append(bad, fmt.Sprintf(
					"%s: %s plane build is only %.2f× swar (%.2f vs %.2f GB/s), floor %.1f×",
					dataset, p.hw.Backend, ratio, p.hw.BuildPlanesGBps, p.swar.BuildPlanesGBps, SimdPlanesFloor))
			}
		}
		if p.swar.StreamWalkGBps > 0 {
			if ratio := p.hw.StreamWalkGBps / p.swar.StreamWalkGBps; ratio < SimdStreamFloor {
				bad = append(bad, fmt.Sprintf(
					"%s: %s stream walk is only %.2f× swar (%.2f vs %.2f GB/s), floor %.1f×",
					dataset, p.hw.Backend, ratio, p.hw.StreamWalkGBps, p.swar.StreamWalkGBps, SimdStreamFloor))
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("simd acceptance failed:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

// RunIndexedRepeat measures the repeated-query workload at each N: the cold
// side runs each query with Query.Run over the raw bytes, the warm side
// with Query.RunIndexed over one prebuilt IndexedDocument. Both sides must
// agree on the total match count.
func (h *Harness) RunIndexedRepeat(dataset string, ns []int) ([]IndexedRepeatResult, error) {
	data, err := h.Dataset(dataset)
	if err != nil {
		return nil, err
	}
	queries := make([]*rsonpath.Query, len(IndexedRepeatQueries))
	for i, src := range IndexedRepeatQueries {
		if queries[i], err = rsonpath.Compile(src); err != nil {
			return nil, fmt.Errorf("swar: %s: %w", src, err)
		}
	}

	var out []IndexedRepeatResult
	for _, n := range ns {
		if n > len(queries) {
			return nil, fmt.Errorf("swar: N=%d exceeds the %d-query workload", n, len(queries))
		}
		batch := queries[:n]

		indexRes, err := h.MeasureFunc(len(data), func() (int, error) {
			doc, err := rsonpath.Index(data)
			if err != nil {
				return 0, err
			}
			Sink ^= uint64(doc.Len())
			return 0, nil
		})
		if err != nil {
			return nil, err
		}
		doc, err := rsonpath.Index(data)
		if err != nil {
			return nil, err
		}

		cold, err := h.MeasureFunc(n*len(data), func() (int, error) {
			total := 0
			for _, q := range batch {
				c, err := q.Count(data)
				if err != nil {
					return 0, err
				}
				total += c
			}
			return total, nil
		})
		if err != nil {
			return nil, err
		}
		warm, err := h.MeasureFunc(n*len(data), func() (int, error) {
			total := 0
			for _, q := range batch {
				c, err := q.CountIndexed(doc)
				if err != nil {
					return 0, err
				}
				total += c
			}
			return total, nil
		})
		if err != nil {
			return nil, err
		}
		if cold.Matches != warm.Matches {
			return nil, fmt.Errorf("swar N=%d: cold found %d matches, warm %d",
				n, cold.Matches, warm.Matches)
		}

		r := IndexedRepeatResult{
			Dataset:      dataset,
			N:            n,
			Bytes:        len(data),
			Matches:      cold.Matches,
			ColdSeconds:  cold.Mean.Seconds(),
			WarmSeconds:  warm.Mean.Seconds(),
			IndexSeconds: indexRes.Mean.Seconds(),
		}
		if r.WarmSeconds > 0 {
			r.Speedup = r.ColdSeconds / r.WarmSeconds
		}
		if amortised := r.WarmSeconds + r.IndexSeconds; amortised > 0 {
			r.SpeedupWithBuild = r.ColdSeconds / amortised
		}
		out = append(out, r)
	}
	return out, nil
}

// RenderSWAR prints the report as aligned text tables.
func RenderSWAR(w io.Writer, rep SWARReport) {
	fmt.Fprintf(w, "active simd backend: %s (available: %s)\n",
		rep.Backend, strings.Join(rep.Backends, ", "))
	fmt.Fprintf(w, "%-10s %-8s %10s | %12s %12s %8s | %12s %12s %8s\n",
		"dataset", "backend", "MiB", "batch GB/s", "blk GB/s", "speedup", "planes GB/s", "walk GB/s", "speedup")
	for _, r := range rep.Kernels {
		fmt.Fprintf(w, "%-10s %-8s %10.1f | %12.2f %12.2f %7.2fx | %12.2f %12.2f %7.2fx\n",
			r.Dataset, r.Backend, float64(r.Bytes)/(1<<20),
			r.BatchKernelGBps, r.PerBlockKernelGBps, r.KernelSpeedup,
			r.BuildPlanesGBps, r.StreamWalkGBps, r.PlanesSpeedup)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s %4s %9s | %10s %10s %10s | %8s %8s\n",
		"dataset", "N", "matches", "cold s", "warm s", "index s", "speedup", "w/build")
	for _, r := range rep.IndexedRepeat {
		fmt.Fprintf(w, "%-10s %4d %9d | %10.4f %10.4f %10.4f | %7.2fx %7.2fx\n",
			r.Dataset, r.N, r.Matches,
			r.ColdSeconds, r.WarmSeconds, r.IndexSeconds,
			r.Speedup, r.SpeedupWithBuild)
	}
}
