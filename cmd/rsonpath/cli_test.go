package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rsonpath/internal/simd"
)

// cli drives run() with an in-memory environment and returns the exit
// code, stdout, and stderr.
func cli(t *testing.T, stdin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

func TestCLIValues(t *testing.T) {
	code, out, stderr := cli(t, `{"a": 1, "b": {"a": [2, 3]}}`, "$..a")
	if code != exitOK || stderr != "" {
		t.Fatalf("code %d stderr %q", code, stderr)
	}
	if out != "1\n[2, 3]\n" {
		t.Fatalf("stdout %q", out)
	}
}

func TestCLICountAndOffsets(t *testing.T) {
	doc := `{"a": 1, "b": {"a": 2}}`
	code, out, _ := cli(t, doc, "-count", "$..a")
	if code != exitOK || out != "2\n" {
		t.Fatalf("count: code %d out %q", code, out)
	}
	code, out, _ = cli(t, doc, "-offsets", "$..a")
	if code != exitOK || out != "6\n20\n" {
		t.Fatalf("offsets: code %d out %q", code, out)
	}
}

func TestCLIFileArgument(t *testing.T) {
	path := filepath.Join(t.TempDir(), "doc.json")
	if err := os.WriteFile(path, []byte(`{"a": 7}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := cli(t, "", "$.a", path)
	if code != exitOK || out != "7\n" {
		t.Fatalf("code %d out %q", code, out)
	}
	code, _, stderr := cli(t, "", "$.a", filepath.Join(t.TempDir(), "missing.json"))
	if code != exitIO || stderr == "" {
		t.Fatalf("missing file: code %d stderr %q", code, stderr)
	}
}

func TestCLIUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},                                   // no query
		{"-bogus", "$.a"},                    // unknown flag
		{"-engine", "zip", "$.a"},            // unknown engine
		{"-engine", "auto", "$.a"},           // the planner is not an engine
		{"$.a[", "-"},                        // unparseable query
		{"-lines", "-e", "$.a", "-e", "$.b"}, // -lines with a query set
	} {
		code, _, _ := cli(t, "{}", args...)
		if code != exitUsage {
			t.Fatalf("args %v: code %d, want %d", args, code, exitUsage)
		}
	}
}

func TestCLIMalformedInput(t *testing.T) {
	for _, engine := range []string{"rsonpath", "surfer", "ski", "dom"} {
		code, _, stderr := cli(t, `{"a": 1`, "-engine", engine, "$.a")
		if code != exitMalformed {
			t.Fatalf("[%s] code %d stderr %q, want %d", engine, code, stderr, exitMalformed)
		}
		if !strings.Contains(stderr, "offset") {
			t.Fatalf("[%s] stderr %q does not report the byte offset", engine, stderr)
		}
	}
}

func TestCLILimitExceeded(t *testing.T) {
	code, _, stderr := cli(t, `[1, 2, 3, 4]`, "-max-matches", "2", "$[*]")
	if code != exitLimit {
		t.Fatalf("max-matches: code %d stderr %q, want %d", code, stderr, exitLimit)
	}
	code, _, _ = cli(t, `{"a": {"b": {"c": 1}}}`, "-max-depth", "2", "$.a.b.c")
	if code != exitLimit {
		t.Fatalf("max-depth: code %d, want %d", code, exitLimit)
	}
	code, _, _ = cli(t, `{"a": [1, 2, 3, 4, 5, 6]}`, "-max-doc-bytes", "8", "$.a")
	if code != exitLimit {
		t.Fatalf("max-doc-bytes: code %d, want %d", code, exitLimit)
	}
}

func TestCLIQuerySet(t *testing.T) {
	doc := `{"a": 1, "b": 2}`
	code, out, _ := cli(t, doc, "-e", "$.a", "-e", "$.b", "-count")
	if code != exitOK {
		t.Fatalf("code %d", code)
	}
	if out != "0:1\n1:1\n" {
		t.Fatalf("out %q", out)
	}
}

func TestCLILinesSkipsBadRecords(t *testing.T) {
	input := `{"a": 1}` + "\n" + `{"a": ` + "\n" + `{"a": 3}` + "\n"
	code, out, stderr := cli(t, input, "-lines", "$.a")
	if code != exitMalformed {
		t.Fatalf("code %d stderr %q, want %d", code, stderr, exitMalformed)
	}
	if out != "1\n3\n" {
		t.Fatalf("good records not fully processed: out %q", out)
	}
	if !strings.Contains(stderr, "line 2") || !strings.Contains(stderr, "1 record(s) skipped") {
		t.Fatalf("stderr %q does not report the bad line", stderr)
	}
}

func TestCLILinesAllGood(t *testing.T) {
	input := `{"a": 1}` + "\n" + `{"a": 2}` + "\n"
	code, out, stderr := cli(t, input, "-lines", "-count", "$.a")
	if code != exitOK || out != "2\n" || stderr != "" {
		t.Fatalf("code %d out %q stderr %q", code, out, stderr)
	}
}

func TestCLISupervisorFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-parallel", "4", "$.a"},         // -parallel without -lines
		{"-fallback", "sometimes", "$.a"}, // unknown fallback mode
		{"-timeout", "not-a-duration", "$.a"},
	} {
		code, _, _ := cli(t, "{}", args...)
		if code != exitUsage {
			t.Fatalf("args %v: code %d, want %d", args, code, exitUsage)
		}
	}
}

func TestCLILinesParallel(t *testing.T) {
	// The worker pool must deliver in input order and skip bad records with
	// the same reporting as the sequential path.
	input := `{"a": 1}` + "\n" + `{"a": ` + "\n" + `{"a": 3}` + "\n" + `{"a": [4, 5]}` + "\n"
	seqCode, seqOut, _ := cli(t, input, "-lines", "$.a")
	for _, workers := range []string{"0", "2", "4"} {
		code, out, stderr := cli(t, input, "-lines", "-parallel", workers, "$.a")
		if code != seqCode || out != seqOut {
			t.Fatalf("-parallel %s: code %d out %q, want code %d out %q",
				workers, code, out, seqCode, seqOut)
		}
		if !strings.Contains(stderr, "line 2") {
			t.Fatalf("-parallel %s: stderr %q does not report the bad line", workers, stderr)
		}
	}
}

func TestCLISupervisedFileRun(t *testing.T) {
	// Count and offsets modes over a named file take the supervised path;
	// a clean run must be indistinguishable from the direct one.
	path := filepath.Join(t.TempDir(), "doc.json")
	if err := os.WriteFile(path, []byte(`{"a": 1, "b": {"a": 2}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, stderr := cli(t, "", "-count", "$..a", path)
	if code != exitOK || out != "2\n" || stderr != "" {
		t.Fatalf("count: code %d out %q stderr %q", code, out, stderr)
	}
	code, out, _ = cli(t, "", "-offsets", "$..a", path)
	if code != exitOK || out != "6\n20\n" {
		t.Fatalf("offsets: code %d out %q", code, out)
	}
	code, out, _ = cli(t, "", "-timeout", "5s", "-fallback", "off", "-count", "$..a", path)
	if code != exitOK || out != "2\n" {
		t.Fatalf("with supervisor flags: code %d out %q", code, out)
	}
}

func TestCLITimeoutExpires(t *testing.T) {
	// A deadline that cannot be met aborts the run with a non-zero exit and
	// a cancellation report rather than hanging.
	path := filepath.Join(t.TempDir(), "doc.json")
	big := `{"a": [` + strings.Repeat(`{"b": 1}, `, 1<<15) + `{"b": 1}]}`
	if err := os.WriteFile(path, []byte(big), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := cli(t, "", "-timeout", "1ns", "-count", "$..b", path)
	if code == exitOK {
		t.Fatalf("expired deadline exited 0 (stderr %q)", stderr)
	}
	if !strings.Contains(stderr, "cancel") && !strings.Contains(stderr, "deadline") {
		t.Fatalf("stderr %q does not report the deadline", stderr)
	}
}

func TestCLIExplain(t *testing.T) {
	// The plan goes to stderr so piped stdout stays clean.
	code, out, stderr := cli(t, `{"a": 1}`, "-explain", "-count", "$..a")
	if code != exitOK {
		t.Fatalf("code %d stderr %q", code, stderr)
	}
	if out != "1\n" {
		t.Fatalf("stdout %q", out)
	}
	if !strings.Contains(stderr, "rsonpath: plan: strategy=scan engine=rsonpath rule=head-skip") {
		t.Fatalf("stderr %q", stderr)
	}

	// A pinned engine is reported as a constraint, not a choice.
	code, _, stderr = cli(t, `{"a": 1}`, "-explain", "-engine", "surfer", "-count", "$..a")
	if code != exitOK || !strings.Contains(stderr, "rule=forced-engine") {
		t.Fatalf("code %d stderr %q", code, stderr)
	}

	// Indexed runs plan per query against the prebuilt index.
	code, out, stderr = cli(t, `{"a": {"b": 1}}`, "-explain", "-index", "-count",
		"-e", "$.a.b", "-e", "$..b")
	if code != exitOK {
		t.Fatalf("code %d stderr %q", code, stderr)
	}
	if out != "0:1\n1:1\n" {
		t.Fatalf("stdout %q", out)
	}
	for _, want := range []string{"rsonpath: plan 0: strategy=indexed", "rsonpath: plan 1: strategy=indexed"} {
		if !strings.Contains(stderr, want) {
			t.Fatalf("stderr %q missing %q", stderr, want)
		}
	}

	// Without -explain the plan stays silent.
	code, _, stderr = cli(t, `{"a": 1}`, "-count", "$..a")
	if code != exitOK || strings.Contains(stderr, "plan") {
		t.Fatalf("code %d stderr %q", code, stderr)
	}
}

// TestCLISimdBackendOverride asserts the -simd flag round-trips: the forced
// backend is applied, reported by -explain, and restored afterwards, and an
// unknown backend is a usage error. Results must not depend on the backend.
func TestCLISimdBackendOverride(t *testing.T) {
	prev := simd.Backend()
	defer func() {
		if err := simd.SetBackend(prev); err != nil {
			t.Fatalf("restoring backend %s: %v", prev, err)
		}
	}()
	doc := `{"a": 1, "b": {"a": [2, 3]}}`
	for _, name := range simd.Backends() {
		code, out, stderr := cli(t, doc, "-simd", name, "-explain", "-count", "$..a")
		if code != exitOK {
			t.Fatalf("-simd %s: code %d stderr %q", name, code, stderr)
		}
		if !strings.Contains(stderr, "simd backend: "+name) {
			t.Fatalf("-simd %s: explain did not report the forced backend: %q", name, stderr)
		}
		if out != "2\n" {
			t.Fatalf("-simd %s: out %q, want \"2\\n\"", name, out)
		}
		if got := simd.Backend(); got != name {
			t.Fatalf("-simd %s left backend %q", name, got)
		}
	}
	code, _, stderr := cli(t, doc, "-simd", "no-such-backend", "$..a")
	if code != exitUsage || !strings.Contains(stderr, "not available") {
		t.Fatalf("unknown backend: code %d stderr %q", code, stderr)
	}
}
