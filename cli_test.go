package rsonpath_test

// End-to-end smoke tests for the command-line tools: build each binary and
// drive it the way a user would.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles one of the cmd/ binaries into a test temp dir.
func buildTool(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func TestCLIRsonpath(t *testing.T) {
	bin := buildTool(t, "rsonpath")
	doc := filepath.Join(t.TempDir(), "doc.json")
	if err := os.WriteFile(doc, []byte(`{"a": {"url": "x"}, "b": [{"url": "y"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := exec.Command(bin, "$..url", doc).Output()
	if err != nil {
		t.Fatalf("rsonpath: %v", err)
	}
	if got := strings.TrimSpace(string(out)); got != "\"x\"\n\"y\"" {
		t.Fatalf("values output %q", got)
	}

	out, err = exec.Command(bin, "-count", "$..url", doc).Output()
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(out)) != "2" {
		t.Fatalf("count output %q", out)
	}

	out, err = exec.Command(bin, "-offsets", "$.a.url", doc).Output()
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(out)) != "14" {
		t.Fatalf("offsets output %q", out)
	}

	// stdin mode with an explicit engine.
	cmd := exec.Command(bin, "-engine", "dom", "-count", "$.b.*.url")
	cmd.Stdin = strings.NewReader(`{"a": 0, "b": [{"url": 1}]}`)
	out, err = cmd.Output()
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(out)) != "1" {
		t.Fatalf("stdin output %q", out)
	}

	// "-" names stdin explicitly (streamed, never buffered whole).
	cmd = exec.Command(bin, "$..url", "-")
	cmd.Stdin = strings.NewReader(`{"a": {"url": "x"}, "b": [{"url": "y"}]}`)
	out, err = cmd.Output()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(out)); got != "\"x\"\n\"y\"" {
		t.Fatalf("dash stdin output %q", got)
	}

	// DOM cannot stream; the CLI must fall back to buffering, not fail.
	cmd = exec.Command(bin, "-engine", "dom", "-count", "$..url", "-")
	cmd.Stdin = strings.NewReader(`{"url": 1}`)
	out, err = cmd.Output()
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(out)) != "1" {
		t.Fatalf("dom dash stdin output %q", out)
	}

	// Errors exit non-zero.
	if err := exec.Command(bin, "not-a-query", doc).Run(); err == nil {
		t.Fatal("bad query accepted")
	}
	if err := exec.Command(bin, "-engine", "nope", "$.a", doc).Run(); err == nil {
		t.Fatal("bad engine accepted")
	}
	if err := exec.Command(bin).Run(); err == nil {
		t.Fatal("missing args accepted")
	}
}

func TestCLIJsongen(t *testing.T) {
	bin := buildTool(t, "jsongen")

	out, err := exec.Command(bin, "-list").Output()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ast", "bestbuy", "walmart", "twitter_small"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("-list output missing %s:\n%s", want, out)
		}
	}

	dest := filepath.Join(t.TempDir(), "tiny.json")
	if out, err := exec.Command(bin, "-dataset", "walmart", "-size", "20000", "-out", dest).CombinedOutput(); err != nil {
		t.Fatalf("generate: %v\n%s", err, out)
	}
	data, err := os.ReadFile(dest)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 20000 {
		t.Fatalf("generated %d bytes", len(data))
	}

	out, err = exec.Command(bin, "-dataset", "nspl", "-size", "20000", "-stats").Output()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "verbosity=") {
		t.Fatalf("-stats output %q", out)
	}

	if err := exec.Command(bin, "-dataset", "bogus").Run(); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestCLIRsonbench(t *testing.T) {
	bin := buildTool(t, "rsonbench")

	out, err := exec.Command(bin, "-exp", "semantics").Output()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `["A", "B", "C", "D"]`) {
		t.Fatalf("semantics output:\n%s", out)
	}

	out, err = exec.Command(bin, "-exp", "table2").Output()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "naive") {
		t.Fatalf("table2 output:\n%s", out)
	}

	// A minimal timed experiment at a tiny scale.
	out, err = exec.Command(bin, "-exp", "d", "-scale", "0.01", "-samples", "1").Output()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "GB/s") {
		t.Fatalf("experiment d output:\n%s", out)
	}

	if err := exec.Command(bin, "-exp", "bogus").Run(); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestCLIRsonpathLines(t *testing.T) {
	bin := buildTool(t, "rsonpath")
	input := `{"a": 1}` + "\n" + `{"b": 0}` + "\n" + `{"a": [2, 3]}` + "\n"

	cmd := exec.Command(bin, "-lines", "-count", "$.a")
	cmd.Stdin = strings.NewReader(input)
	out, err := cmd.Output()
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(out)) != "2" {
		t.Fatalf("lines count %q", out)
	}

	cmd = exec.Command(bin, "-lines", "$.a")
	cmd.Stdin = strings.NewReader(input)
	out, err = cmd.Output()
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(out)) != "1\n[2, 3]" {
		t.Fatalf("lines values %q", out)
	}

	cmd = exec.Command(bin, "-lines", "-offsets", "$.a")
	cmd.Stdin = strings.NewReader(input)
	out, err = cmd.Output()
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(out)) != "1:6\n3:6" {
		t.Fatalf("lines offsets %q", out)
	}

	// DOM engine via CLI.
	cmd = exec.Command(bin, "-engine", "dom", "-count", "$..a")
	cmd.Stdin = strings.NewReader(`{"a": {"a": 1}}`)
	out, err = cmd.Output()
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(out)) != "2" {
		t.Fatalf("dom count %q", out)
	}
}

func TestCLIRsonpathLinesParallel(t *testing.T) {
	bin := buildTool(t, "rsonpath")
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, `{"a": %d}`+"\n", i)
		if i%50 == 0 {
			sb.WriteString(`{"a": ` + "\n") // malformed record
		}
	}
	input := sb.String()

	seq := exec.Command(bin, "-lines", "$.a")
	seq.Stdin = strings.NewReader(input)
	seqOut, err := seq.Output()
	var seqExit *exec.ExitError
	if err != nil && !errors.As(err, &seqExit) {
		t.Fatal(err)
	}

	par := exec.Command(bin, "-lines", "-parallel", "4", "$.a")
	par.Stdin = strings.NewReader(input)
	parOut, err := par.Output()
	var parExit *exec.ExitError
	if err != nil && !errors.As(err, &parExit) {
		t.Fatal(err)
	}

	if !bytes.Equal(seqOut, parOut) {
		t.Fatalf("parallel output differs from sequential:\n%q\nvs\n%q", parOut, seqOut)
	}
	seqCode, parCode := 0, 0
	if seqExit != nil {
		seqCode = seqExit.ExitCode()
	}
	if parExit != nil {
		parCode = parExit.ExitCode()
	}
	if seqCode != parCode || seqCode != 3 {
		t.Fatalf("exit codes: sequential %d, parallel %d, want both 3 (malformed records)", seqCode, parCode)
	}
}

func TestCLIRsonpathMultiQuery(t *testing.T) {
	bin := buildTool(t, "rsonpath")
	doc := filepath.Join(t.TempDir(), "doc.json")
	if err := os.WriteFile(doc, []byte(`{"a": 1, "b": {"a": 2}}`), 0o644); err != nil {
		t.Fatal(err)
	}

	// Repeated -e flags: tagged values in document order.
	out, err := exec.Command(bin, "-e", "$..a", "-e", "$.b", doc).Output()
	if err != nil {
		t.Fatalf("rsonpath -e: %v", err)
	}
	if got := strings.TrimSpace(string(out)); got != "0:1\n1:{\"a\": 2}\n0:2" {
		t.Fatalf("multi values output %q", got)
	}

	// Tagged counts.
	out, err = exec.Command(bin, "-count", "-e", "$..a", "-e", "$.b", doc).Output()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(out)); got != "0:2\n1:1" {
		t.Fatalf("multi count output %q", got)
	}

	// Tagged offsets.
	out, err = exec.Command(bin, "-offsets", "-e", "$..a", "-e", "$.b", doc).Output()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(out)); got != "0:6\n1:14\n0:20" {
		t.Fatalf("multi offsets output %q", got)
	}

	// -queries FILE with comments and blank lines, combined after -e.
	qfile := filepath.Join(t.TempDir(), "queries.txt")
	if err := os.WriteFile(qfile, []byte("# comment\n$.b\n\n$..a\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command(bin, "-count", "-queries", qfile, doc).Output()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(out)); got != "0:1\n1:2" {
		t.Fatalf("-queries count output %q", got)
	}
	out, err = exec.Command(bin, "-count", "-e", "$.a", "-queries", qfile, doc).Output()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(out)); got != "0:1\n1:1\n2:2" {
		t.Fatalf("-e + -queries count output %q", got)
	}

	// stdin mode.
	cmd := exec.Command(bin, "-count", "-e", "$.a")
	cmd.Stdin = strings.NewReader(`{"a": 1}`)
	out, err = cmd.Output()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(out)); got != "0:1" {
		t.Fatalf("stdin multi count %q", got)
	}

	// Unsupported combinations exit non-zero.
	if err := exec.Command(bin, "-lines", "-e", "$.a", doc).Run(); err == nil {
		t.Fatal("-lines with -e accepted")
	}
	if err := exec.Command(bin, "-engine", "dom", "-e", "$.a", doc).Run(); err == nil {
		t.Fatal("-engine dom with -e accepted")
	}
	if err := exec.Command(bin, "-e", "$.a", doc, "extra").Run(); err == nil {
		t.Fatal("extra positional arg with -e accepted")
	}
	if err := exec.Command(bin, "-queries", filepath.Join(t.TempDir(), "missing.txt"), doc).Run(); err == nil {
		t.Fatal("missing query file accepted")
	}
}

func TestCLIRsonpathIndexed(t *testing.T) {
	bin := buildTool(t, "rsonpath")
	doc := filepath.Join(t.TempDir(), "doc.json")
	if err := os.WriteFile(doc, []byte(`{"a": 1, "b": {"a": 2}}`), 0o644); err != nil {
		t.Fatal(err)
	}

	// -index output must match the QuerySet path, mode by mode, except that
	// matches arrive grouped by query (one RunIndexed per query) rather than
	// interleaved in document order.
	out, err := exec.Command(bin, "-index", "-e", "$..a", "-e", "$.b", doc).Output()
	if err != nil {
		t.Fatalf("rsonpath -index: %v", err)
	}
	if got := strings.TrimSpace(string(out)); got != "0:1\n0:2\n1:{\"a\": 2}" {
		t.Fatalf("indexed values output %q", got)
	}
	out, err = exec.Command(bin, "-index", "-count", "-e", "$..a", "-e", "$.b", doc).Output()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(out)); got != "0:2\n1:1" {
		t.Fatalf("indexed count output %q", got)
	}
	out, err = exec.Command(bin, "-index", "-offsets", "-e", "$..a", "-e", "$.b", doc).Output()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(out)); got != "0:6\n0:20\n1:14" {
		t.Fatalf("indexed offsets output %q", got)
	}

	// Malformed input is rejected by the index screens with the malformed
	// exit code.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"a": [1, 2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var ee *exec.ExitError
	if err := exec.Command(bin, "-index", "-count", "-e", "$.a", bad).Run(); !errors.As(err, &ee) || ee.ExitCode() != 3 {
		t.Fatalf("malformed doc under -index: err %v", err)
	}

	// -index requires the multi-query form and rejects -lines.
	if err := exec.Command(bin, "-index", "$.a", doc).Run(); err == nil {
		t.Fatal("-index without -e accepted")
	}
	if err := exec.Command(bin, "-index", "-lines", "-e", "$.a", doc).Run(); err == nil {
		t.Fatal("-index with -lines accepted")
	}
}

// readBenchResults decodes a stamped BENCH file, checks its stamp, and
// returns its result records.
func readBenchResults(t *testing.T, data []byte, name string) []map[string]any {
	t.Helper()
	var file struct {
		Stamp   map[string]any   `json:"stamp"`
		Results []map[string]any `json:"results"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("%s is not valid JSON: %v", name, err)
	}
	for _, field := range []string{"nproc", "gomaxprocs", "simd_backend", "go_version", "commit", "dirty"} {
		if _, ok := file.Stamp[field]; !ok {
			t.Fatalf("%s stamp %v missing field %q", name, file.Stamp, field)
		}
	}
	return file.Results
}

func TestCLIRsonbenchMultiQueryJSON(t *testing.T) {
	bin := buildTool(t, "rsonbench")
	dir := t.TempDir()

	out, err := exec.Command(bin, "-exp", "multiquery", "-scale", "0.02", "-samples", "1", "-json", dir).Output()
	if err != nil {
		t.Fatalf("rsonbench multiquery: %v", err)
	}
	for _, want := range []string{"MQ2", "MQ8", "MQ32", "speedup"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("multiquery output missing %s:\n%s", want, out)
		}
	}

	data, err := os.ReadFile(filepath.Join(dir, "BENCH_multiquery.json"))
	if err != nil {
		t.Fatalf("BENCH_multiquery.json not written: %v", err)
	}
	results := readBenchResults(t, data, "BENCH_multiquery.json")
	if len(results) != 4 {
		t.Fatalf("expected 4 workload records, got %d", len(results))
	}
	for _, r := range results {
		for _, field := range []string{"id", "dataset", "n", "bytes", "matches",
			"set_seconds", "set_gbps", "indep_seconds", "indep_gbps", "speedup"} {
			if _, ok := r[field]; !ok {
				t.Fatalf("record %v missing field %q", r["id"], field)
			}
		}
	}
}

func TestCLIRsonbenchParallelLinesJSON(t *testing.T) {
	bin := buildTool(t, "rsonbench")
	dir := t.TempDir()

	out, err := exec.Command(bin, "-exp", "parallel_lines", "-scale", "0.02", "-samples", "1", "-json", dir).Output()
	if err != nil {
		t.Fatalf("rsonbench parallel_lines: %v", err)
	}
	for _, want := range []string{"PL", "workers", "speedup"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("parallel_lines output missing %s:\n%s", want, out)
		}
	}

	data, err := os.ReadFile(filepath.Join(dir, "BENCH_parallel_lines.json"))
	if err != nil {
		t.Fatalf("BENCH_parallel_lines.json not written: %v", err)
	}
	results := readBenchResults(t, data, "BENCH_parallel_lines.json")
	if len(results) < 2 {
		t.Fatalf("expected a sequential baseline plus at least one pool width, got %d records", len(results))
	}
	var matches []any
	for _, r := range results {
		for _, field := range []string{"id", "dataset", "query", "workers", "records",
			"bytes", "matches", "seconds", "gbps", "speedup"} {
			if _, ok := r[field]; !ok {
				t.Fatalf("record %v missing field %q", r, field)
			}
		}
		matches = append(matches, r["matches"])
	}
	for _, m := range matches[1:] {
		if m != matches[0] {
			t.Fatalf("match counts disagree across widths: %v", matches)
		}
	}
}
