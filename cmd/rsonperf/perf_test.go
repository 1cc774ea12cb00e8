package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// testScale shrinks the scan and repeat datasets to a few hundred KB.
const testScale = 1.0 / 64

// buildDaemon builds rsonpathd from the tree under test.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rsonpathd")
	if out, err := exec.Command("go", "build", "-o", bin, "rsonpath/cmd/rsonpathd").CombinedOutput(); err != nil {
		t.Fatalf("building rsonpathd: %v\n%s", err, out)
	}
	return bin
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func testConfig(t *testing.T, daemon, workload string, trace bool) config {
	return config{
		workload: workload,
		seed:     7,
		duration: time.Second,
		trace:    trace,
		daemon:   daemon,
		spans:    filepath.Join(t.TempDir(), "spans.jsonl"),
		scale:    testScale,
	}
}

// TestWorkloadsPrintBenchmarkMetrics drives every workload, untraced and
// traced, and checks that the summary line carries exactly the metrics
// BENCHMARK.json lists, with their units, and that the span file parses.
func TestWorkloadsPrintBenchmarkMetrics(t *testing.T) {
	daemon := buildDaemon(t)
	spec := readBenchmark(t)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := testConfig(t, daemon, name, trace)
			res, err := runWorkload(context.Background(), cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			var out bytes.Buffer
			if err := emit(&out, cfg, res); err != nil {
				t.Fatal(err)
			}
			var s summary
			if err := json.Unmarshal(lastLine(out.Bytes()), &s); err != nil {
				t.Fatalf("%s trace=%v: summary line: %v", name, trace, err)
			}
			if !s.Correct || s.Failed != 0 || s.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v", name, trace, s.Correct, s.Attempted, s.Failed, res.Failures)
			}
			if len(s.Metrics) != len(want[trace]) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", name, trace, len(s.Metrics), len(want[trace]))
			}
			for metric, unit := range want[trace] {
				if got, ok := s.Metrics[metric]; !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, metric, got, unit)
				}
			}
			if trace {
				checkSpans(t, cfg.spans)
			}
		}
	}
}

func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	for sc := bufio.NewScanner(f); sc.Scan(); n++ {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil || s.Name == "" || s.End < s.Start || s.Op == 0 {
			t.Fatalf("%s line %d: %q: %v", path, n+1, sc.Text(), err)
		}
	}
	if n == 0 {
		t.Fatalf("%s: no spans", path)
	}
}

// corrupted falsifies every expected result after the oracle computed it.
type corrupted struct{ workload }

func (c corrupted) prepare(ctx context.Context) error {
	if err := c.workload.prepare(ctx); err != nil {
		return err
	}
	switch w := c.workload.(type) {
	case *scan:
		for i := range w.want {
			w.want[i]++
		}
	case *repeat:
		for i := range w.want {
			w.want[i]++
		}
	case *httpLoad:
		for i := range w.want {
			w.want[i].count++
		}
	case *ndjsonLoad:
		for i := range w.want {
			w.want[i].count++
		}
	}
	return nil
}

// TestWrongResultsAreCounted proves the output check is live: with every
// expected result off by one, every operation counts as failed.
func TestWrongResultsAreCounted(t *testing.T) {
	daemon := buildDaemon(t)
	for _, name := range workloadNames {
		cfg := testConfig(t, daemon, name, false)
		w, err := newWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := measure(context.Background(), corrupted{w}, cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Attempted == 0 || res.Failed != res.Attempted {
			t.Errorf("%s: correct=%v attempted=%d failed=%d, want every operation failed", name, res.Correct, res.Attempted, res.Failed)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
	} {
		got := quartiles(c.xs)
		if [3]float64(got) != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
