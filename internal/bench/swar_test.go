package bench

import (
	"strings"
	"testing"

	"rsonpath/internal/simd"
)

// TestCheckSimd pins the acceptance gate's verdicts on synthetic reports.
func TestCheckSimd(t *testing.T) {
	row := func(dataset, backend string, batch, planes float64) SWARKernelResult {
		return SWARKernelResult{
			Dataset: dataset, Backend: backend,
			BatchKernelGBps: batch, BuildPlanesGBps: planes,
		}
	}
	walk := func(r SWARKernelResult, gbps float64) SWARKernelResult {
		r.StreamWalkGBps = gbps
		return r
	}
	cases := []struct {
		name    string
		kernels []SWARKernelResult
		wantErr string
	}{
		{"no hardware backend", []SWARKernelResult{row("a", "swar", 1, 0.6)}, ""},
		{"clears both floors", []SWARKernelResult{
			row("a", "swar", 1, 0.6), row("a", "avx2", 10, 2),
		}, ""},
		{"batch below floor", []SWARKernelResult{
			row("a", "swar", 1, 0.6), row("a", "avx2", 2, 2),
		}, "batch kernel"},
		{"planes below floor", []SWARKernelResult{
			row("a", "swar", 1, 1), row("a", "avx2", 10, 1.2),
		}, "plane build"},
		{"stream walk clears its floor", []SWARKernelResult{
			walk(row("a", "swar", 1, 0.6), 0.5), walk(row("a", "avx2", 10, 2), 1.6),
		}, ""},
		{"stream walk below floor", []SWARKernelResult{
			walk(row("a", "swar", 1, 0.6), 0.5), walk(row("a", "avx2", 10, 2), 0.7),
		}, "stream walk"},
		{"one dataset of two fails", []SWARKernelResult{
			row("a", "swar", 1, 0.6), row("a", "avx2", 10, 2),
			row("b", "swar", 1, 0.6), row("b", "avx2", 2.4, 2),
		}, "batch kernel"},
	}
	for _, tc := range cases {
		err := CheckSimd(SWARReport{Kernels: tc.kernels})
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error = %v, want mention of %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestRunSWARKernelsPerBackendRows asserts the experiment emits one row per
// available backend per dataset and restores the active backend.
func TestRunSWARKernelsPerBackendRows(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a dataset")
	}
	h := NewHarness()
	h.SizeFactor = 0.02
	h.Samples = 1
	before := simd.Backend()
	rows, err := h.RunSWARKernels([]string{"ast"})
	if err != nil {
		t.Fatal(err)
	}
	if got := simd.Backend(); got != before {
		t.Fatalf("RunSWARKernels left backend %q, started with %q", got, before)
	}
	want := simd.Backends()
	if len(rows) != len(want) {
		t.Fatalf("%d rows for %d backends: %+v", len(rows), len(want), rows)
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Backend] = true
		if r.BatchKernelGBps <= 0 || r.BuildPlanesGBps <= 0 {
			t.Errorf("backend %s: non-positive throughput: %+v", r.Backend, r)
		}
	}
	for _, name := range want {
		if !seen[name] {
			t.Errorf("no row for backend %s", name)
		}
	}
}
