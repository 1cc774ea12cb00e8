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

// TestCheckSimdSeekFloor pins the seeker gate: the geometric mean of the
// hardware seeker's margin over forced SWAR must clear SimdSeekFloor, so
// one dense label near 1× does not fail a host whose other labels clear it.
func TestCheckSimdSeekFloor(t *testing.T) {
	seek := func(swar, hw float64) SeekerResult {
		return SeekerResult{SeekGBps: map[string]float64{"swar": swar, "avx2": hw}}
	}
	cases := []struct {
		name    string
		seekers []SeekerResult
		wantErr bool
	}{
		{"no seeker rows", nil, false},
		{"swar only", []SeekerResult{{SeekGBps: map[string]float64{"swar": 2}}}, false},
		{"clears the floor", []SeekerResult{seek(2, 8), seek(2, 6)}, false},
		{"one dense label near 1x", []SeekerResult{seek(2, 2.4), seek(2, 10), seek(2, 8)}, false},
		{"below the floor", []SeekerResult{seek(2, 2.4), seek(2, 3.2)}, true},
	}
	for _, tc := range cases {
		err := CheckSimd(SWARReport{Seekers: tc.seekers})
		if (err != nil) != tc.wantErr || (err != nil && !strings.Contains(err.Error(), "seeker")) {
			t.Errorf("%s: error = %v, want error %v", tc.name, err, tc.wantErr)
		}
	}
}

// TestRunSeekersRows asserts the seeker rows cover the scan workload's
// head-skip labels plus the NDJSON one, with one rate per backend and the
// same key count under each.
func TestRunSeekersRows(t *testing.T) {
	if testing.Short() {
		t.Skip("generates datasets")
	}
	h := NewHarness()
	h.SizeFactor = 0.005
	h.Samples = 1
	before := simd.Backend()
	rows, err := h.RunSeekers()
	if err != nil {
		t.Fatal(err)
	}
	if got := simd.Backend(); got != before {
		t.Fatalf("RunSeekers left backend %q, started with %q", got, before)
	}
	if len(rows) != 21 {
		t.Fatalf("%d seeker rows, want 21 (20 scan head-skip labels and affiliation)", len(rows))
	}
	for _, r := range rows {
		if len(r.SeekGBps) != len(simd.Backends()) {
			t.Fatalf("%s %q: rates for %v, want one per backend %v", r.Dataset, r.Label, r.SeekGBps, simd.Backends())
		}
	}
	if last := rows[len(rows)-1]; last.Dataset != "crossref" || last.Label != "affiliation" {
		t.Fatalf("last row = %s %q, want crossref affiliation", last.Dataset, last.Label)
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
