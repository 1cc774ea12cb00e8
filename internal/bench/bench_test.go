package bench

import (
	"bytes"
	"strings"
	"testing"

	"rsonpath"
)

// tiny returns a harness small enough for unit tests.
func tiny() *Harness {
	h := NewHarness()
	h.SizeFactor = 0.02
	h.Samples = 1
	h.Warmup = 0
	return h
}

func TestSpecsCompileAndResolve(t *testing.T) {
	for _, s := range Specs {
		if _, err := rsonpath.Compile(s.Query); err != nil {
			t.Errorf("%s: %v", s.ID, err)
		}
		if s.RewritingOf != "" {
			if _, ok := SpecByID(s.RewritingOf); !ok {
				t.Errorf("%s: rewriting of unknown %q", s.ID, s.RewritingOf)
			}
		}
	}
	if _, ok := SpecByID("nope"); ok {
		t.Error("SpecByID found nonexistent id")
	}
}

func TestSpecIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Specs {
		if seen[s.ID] {
			t.Errorf("duplicate spec id %s", s.ID)
		}
		seen[s.ID] = true
	}
}

func TestExperimentTagsCoverFiguresAndTables(t *testing.T) {
	for _, exp := range []string{"A", "B", "C"} {
		if len(ExperimentSpecs(exp)) == 0 {
			t.Errorf("experiment %s has no specs", exp)
		}
	}
}

func TestRewritingsAgreeWithOriginals(t *testing.T) {
	// The match count of every rewriting must equal its original's —
	// the paper's Tables 4/5 invariant — on our datasets too.
	h := tiny()
	for _, s := range Specs {
		if s.RewritingOf == "" {
			continue
		}
		orig, _ := SpecByID(s.RewritingOf)
		if orig.Dataset != s.Dataset {
			t.Fatalf("%s rewrites %s across datasets", s.ID, orig.ID)
		}
		data, err := h.Dataset(s.Dataset)
		if err != nil {
			t.Fatal(err)
		}
		a, err := rsonpath.MustCompile(orig.Query).Count(data)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rsonpath.MustCompile(s.Query).Count(data)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s (%d) disagrees with %s (%d) on %s", s.ID, b, orig.ID, a, s.Dataset)
		}
	}
}

func TestEnginesAgreeOnAllSpecs(t *testing.T) {
	// Cross-engine differential test at benchmark scale: every engine that
	// supports a query must return the same count.
	h := tiny()
	for _, s := range Specs {
		data, err := h.Dataset(s.Dataset)
		if err != nil {
			t.Fatal(err)
		}
		var want int
		base, err := rsonpath.Compile(s.Query, rsonpath.WithEngine(rsonpath.EngineSurfer))
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		want, err = base.Count(data)
		if err != nil {
			t.Fatalf("%s surfer: %v", s.ID, err)
		}
		for _, kind := range []rsonpath.EngineKind{rsonpath.EngineRsonpath, rsonpath.EngineSki} {
			q, err := rsonpath.Compile(s.Query, rsonpath.WithEngine(kind))
			if err == rsonpath.ErrUnsupportedQuery {
				continue
			}
			if err != nil {
				t.Fatalf("%s %v: %v", s.ID, kind, err)
			}
			got, err := q.Count(data)
			if err != nil {
				t.Fatalf("%s %v: %v", s.ID, kind, err)
			}
			if got != want {
				t.Errorf("%s: %v counts %d, surfer counts %d", s.ID, kind, got, want)
			}
		}
	}
}

func TestRunSpecAndGrid(t *testing.T) {
	h := tiny()
	spec, _ := SpecByID("W2")
	r, err := h.RunSpec(spec, rsonpath.EngineRsonpath)
	if err != nil {
		t.Fatal(err)
	}
	if r.Matches == 0 || r.GBps <= 0 || r.Engine != "rsonpath" {
		t.Fatalf("suspicious result %+v", r)
	}
	// JSONSki rejects descendants: Unsupported, not an error.
	rw, _ := SpecByID("W2r")
	r, err = h.RunSpec(rw, rsonpath.EngineSki)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Unsupported {
		t.Fatal("ski should report W2r unsupported")
	}

	results, err := h.RunGrid([]Spec{spec, rw})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2*len(Engines) {
		t.Fatalf("grid size %d", len(results))
	}
}

func TestScalability(t *testing.T) {
	h := tiny()
	points, err := h.RunScalability([]float64{0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || points[0].SizeBytes >= points[1].SizeBytes {
		t.Fatalf("points %+v", points)
	}
	if points[1].Matches <= points[0].Matches {
		t.Errorf("larger dataset should have more matches: %+v", points)
	}
}

func TestTable3(t *testing.T) {
	h := tiny()
	rows, err := h.RunTable3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("%d rows, want 10 datasets", len(rows))
	}
	var buf bytes.Buffer
	RenderTable3(&buf, rows, h)
	if !strings.Contains(buf.String(), "verbosity") {
		t.Error("render missing header")
	}
}

func TestTable2Micro(t *testing.T) {
	rows := RunTable2()
	if len(rows) != 9 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.NaiveNsPerBlk <= 0 || r.LookupNsPerBlk <= 0 {
			t.Fatalf("degenerate timing %+v", r)
		}
	}
	// The naive method must degrade with the value count (Table 2's whole
	// point); allow generous noise.
	if rows[len(rows)-1].NaiveNsPerBlk < rows[0].NaiveNsPerBlk {
		t.Errorf("naive cost did not grow: %v -> %v",
			rows[0].NaiveNsPerBlk, rows[len(rows)-1].NaiveNsPerBlk)
	}
	var buf bytes.Buffer
	RenderTable2(&buf, rows)
	if !strings.Contains(buf.String(), "naive") {
		t.Error("render missing header")
	}
}

func TestAblation(t *testing.T) {
	h := tiny()
	spec, _ := SpecByID("B1r")
	results, err := h.RunAblation([]Spec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(AblationVariants) {
		t.Fatalf("%d results", len(results))
	}
	// All variants must agree on the match count.
	for _, r := range results[1:] {
		if r.Matches != results[0].Matches {
			t.Errorf("variant %s count %d != full %d", r.Engine, r.Matches, results[0].Matches)
		}
	}
	var buf bytes.Buffer
	RenderAblation(&buf, results)
	if !strings.Contains(buf.String(), "no-headskip") {
		t.Error("render missing variants")
	}
}

func TestRenderFigureAndGrid(t *testing.T) {
	h := tiny()
	spec, _ := SpecByID("Ts")
	results, err := h.RunGrid([]Spec{spec})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderFigure(&buf, "test", results)
	if !strings.Contains(buf.String(), "GB/s") {
		t.Error("figure missing throughput")
	}
	buf.Reset()
	RenderGrid(&buf, results)
	if !strings.Contains(buf.String(), "Ts") {
		t.Error("grid missing row")
	}
}

func TestSemanticsRender(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderSemantics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `node semantics (this engine): ["A", "B", "C", "D"]`) {
		t.Errorf("node semantics line wrong:\n%s", out)
	}
	// Path semantics yields six results (C and D twice).
	if strings.Count(out, `"C"`) < 3 { // one in node line, two in path line
		t.Errorf("path semantics duplicates missing:\n%s", out)
	}
}

func TestDatasetCacheAndErrors(t *testing.T) {
	h := tiny()
	a, err := h.Dataset("walmart")
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Dataset("walmart")
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Error("dataset not cached")
	}
	if _, err := h.Dataset("nope"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

// TestVariantEngines runs the variant engine check without timing
// anything: every stackless and ablation variant must plan the engine its
// label names, and a mislabelled variant must be rejected.
func TestVariantEngines(t *testing.T) {
	for _, v := range StacklessVariants {
		if _, err := CompileVariant(StacklessQuery, v); err != nil {
			t.Error(err)
		}
	}
	for _, v := range AblationVariants {
		for _, query := range []string{StacklessQuery, "$.items.*.DOI", "$..a.*[1]"} {
			if _, err := CompileVariant(query, v); err != nil {
				t.Error(err)
			}
		}
	}
	mislabelled := Variant{"depth-registers", rsonpath.EngineStackless, nil}
	if _, err := CompileVariant(StacklessQuery, mislabelled); err == nil {
		t.Error("a variant running the default engine under a stackless label was accepted")
	}
}

func TestStacklessComparison(t *testing.T) {
	h := tiny()
	results, err := h.RunStackless()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results", len(results))
	}
	for _, r := range results[1:] {
		if r.Matches != results[0].Matches {
			t.Errorf("%s count %d != engine %d", r.Engine, r.Matches, results[0].Matches)
		}
	}
}
