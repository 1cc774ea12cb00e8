package rsonpath

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// Tests for the execution-plan layer (DESIGN.md §13): the differential
// suite pinning default-engine results to every forced engine over the
// compliance corpus, the Explain stability contract, and the cache-key
// regression.

// planVariant is one named compile configuration of the differential.
type planVariant struct {
	name string
	opts []Option
}

// autoVariants compiles the same query under every default-engine
// configuration whose execution can diverge: plain, and with head-skip
// disabled (descendant chains then run the pure depth-stack simulation).
var autoVariants = []planVariant{
	{"auto", nil},
	{"auto-noheadskip", []Option{WithOptimizations(Optimizations{NoHeadSkip: true})}},
}

// runCorpus is every compliance case, slices included.
func plannerCorpus() []complianceCase {
	return append(append([]complianceCase(nil), complianceCases...), sliceComplianceCases...)
}

// TestPlannerDifferentialRun: planner-auto answers (BytesInput) must be
// byte-identical to every forced engine on the whole compliance corpus.
func TestPlannerDifferentialRun(t *testing.T) {
	for _, c := range plannerCorpus() {
		t.Run(c.name, func(t *testing.T) {
			for _, v := range autoVariants {
				q, err := Compile(c.query, v.opts...)
				if err != nil {
					t.Fatalf("[%s] compile: %v", v.name, err)
				}
				vals, err := q.MatchValues([]byte(c.doc))
				if err != nil {
					t.Fatalf("[%s] run: %v", v.name, err)
				}
				got := make([]string, len(vals))
				for i, b := range vals {
					got[i] = string(b)
				}
				if fmt.Sprint(got) != fmt.Sprint(c.want) {
					t.Fatalf("[%s] %s on %s:\n  got  %q\n  want %q (plan %v)",
						v.name, c.query, c.doc, got, c.want, q.Explain(DocStats{}))
				}
			}
			for _, kind := range []EngineKind{EngineRsonpath, EngineSurfer, EngineDOM, EngineSki, EngineStackless} {
				q, err := Compile(c.query, WithEngine(kind))
				if err == ErrUnsupportedQuery {
					continue // restricted fragments (ski, stackless)
				}
				if err != nil {
					t.Fatalf("[%v] compile: %v", kind, err)
				}
				if kind == EngineSki && queryNeedsFullWildcard(c) {
					continue // ski's wildcard skips object fields by design
				}
				offs, err := q.MatchOffsets([]byte(c.doc))
				if err != nil {
					t.Fatalf("[%v] run: %v", kind, err)
				}
				auto := MustCompile(c.query)
				autoOffs, err := auto.MatchOffsets([]byte(c.doc))
				if err != nil {
					t.Fatalf("[auto] run: %v", err)
				}
				if fmt.Sprint(autoOffs) != fmt.Sprint(offs) {
					t.Fatalf("auto %v != forced %v offsets: %v vs %v (plan %v)",
						auto.Explain(DocStats{Bytes: len(c.doc)}), kind, autoOffs, offs,
						auto.Explain(DocStats{}))
				}
			}
		})
	}
}

// TestPlannerDifferentialRunReader repeats the differential over the
// streaming path (BufferedInput) with a small window: every auto variant
// and every forced streaming engine, through RunReader, against the DOM
// oracle's offsets.
func TestPlannerDifferentialRunReader(t *testing.T) {
	variants := append([]planVariant(nil), autoVariants...)
	for _, kind := range []EngineKind{EngineSurfer, EngineSki, EngineStackless} {
		variants = append(variants, planVariant{kind.String(), []Option{WithEngine(kind)}})
	}
	for _, c := range plannerCorpus() {
		t.Run(c.name, func(t *testing.T) {
			want, err := MustCompile(c.query, WithEngine(EngineDOM)).MatchOffsets([]byte(c.doc))
			if err != nil {
				t.Fatalf("[dom] run: %v", err)
			}
			for _, v := range variants {
				q, err := Compile(c.query, append([]Option{WithStreamWindow(64)}, v.opts...)...)
				if err == ErrUnsupportedQuery {
					continue // restricted fragments (ski, stackless)
				}
				if err != nil {
					t.Fatalf("[%s] compile: %v", v.name, err)
				}
				if q.Engine() == EngineSki && queryNeedsFullWildcard(c) {
					continue // ski's wildcard skips object fields by design
				}
				var got []int
				if err := q.RunReader(strings.NewReader(c.doc), func(pos int) {
					got = append(got, pos)
				}); err != nil {
					t.Fatalf("[%s] stream run: %v", v.name, err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("[%s] stream offsets %v, want %v (plan %v)",
						v.name, got, want, q.Explain(DocStats{Streaming: true}))
				}
			}
		})
	}
}

// TestExplainStable pins the Explain contract: deterministic output, the
// documented strategy/rule vocabulary, and the exact rendering the CLI's
// -explain flag prints.
func TestExplainStable(t *testing.T) {
	cases := []struct {
		query string
		opts  []Option
		stats DocStats
		want  string // Plan.String() — stable across runs and releases
	}{
		{"$..user.name", nil, DocStats{},
			"strategy=scan engine=rsonpath rule=head-skip: leading descendant label: skip straight to each occurrence of the sought label"},
		{"$.a.b[*]", nil, DocStats{},
			"strategy=scan engine=rsonpath rule=child-skipping: child/wildcard-only query: ski-style subtree and sibling fast-forwarding"},
		{"$.a..b.*", nil, DocStats{},
			"strategy=scan engine=rsonpath rule=depth-stack: general query: depth-stack simulation with the full skipping repertoire"},
		{"$..a..b", []Option{WithOptimizations(Optimizations{NoHeadSkip: true})}, DocStats{},
			"strategy=scan engine=rsonpath rule=depth-stack: general query: depth-stack simulation with the full skipping repertoire"},
		{"$..a", nil, DocStats{Indexed: true},
			"strategy=indexed engine=rsonpath rule=indexed-available: classification served from the prebuilt document mask index"},
		{"$.a.b", nil, DocStats{ExpectedRuns: 8},
			"strategy=indexed engine=rsonpath rule=index-amortizes: 8 expected runs over the same document repay the one-time index build (break-even ~8)"},
		{"$.a.b", []Option{WithEngine(EngineRsonpath)}, DocStats{ExpectedRuns: 8},
			"strategy=indexed engine=rsonpath rule=index-amortizes: 8 expected runs over the same document repay the one-time index build (break-even ~8)"},
		{"$..a", nil, DocStats{ExpectedRuns: 100},
			"strategy=scan engine=rsonpath rule=head-skip: leading descendant label: skip straight to each occurrence of the sought label"},
		{"$..a", []Option{WithEngine(EngineSurfer)}, DocStats{},
			"strategy=surfer engine=surfer rule=forced-engine: engine forced by WithEngine"},
		{"$..a..b", []Option{WithEngine(EngineStackless)}, DocStats{Indexed: true},
			"strategy=stackless engine=stackless rule=forced-engine: engine forced by WithEngine"},
	}
	for _, c := range cases {
		q := MustCompile(c.query, c.opts...)
		first := q.Explain(c.stats)
		if first.String() != c.want {
			t.Errorf("Explain(%s, %+v) =\n  %s\nwant\n  %s", c.query, c.stats, first, c.want)
		}
		for i := 0; i < 5; i++ {
			if again := q.Explain(c.stats); again != first {
				t.Fatalf("Explain unstable for %s: %+v then %+v", c.query, first, again)
			}
		}
	}
}

// TestExplainWatchdog: WithTimeout makes the plane-backed path unavailable
// and Explain says so.
func TestExplainWatchdog(t *testing.T) {
	q := MustCompile("$..a", WithTimeout(1e9))
	p := q.Explain(DocStats{Indexed: true})
	if p.Strategy != "scan" || p.Rule != "watchdog-streams" {
		t.Fatalf("watchdog plan = %+v", p)
	}
}

// TestStacklessAutoDispatch pins that the default engine is never rerouted
// to the depth-register automaton: a descendant-only chain compiled with
// head-skip disabled plans the depth-stack scan — what an ablation of
// head-skip must measure — and still matches the forced engines bytewise.
func TestStacklessAutoDispatch(t *testing.T) {
	doc := []byte(`{"a": {"x": {"b": 1}, "b": {"b": 2}}, "c": {"a": {"b": 3}}}`)
	auto := MustCompile("$..a..b", WithOptimizations(Optimizations{NoHeadSkip: true}))
	if p := auto.Explain(DocStats{Bytes: len(doc)}); p.Engine != EngineRsonpath || p.Rule != "depth-stack" {
		t.Fatalf("plan = %+v, want the depth-stack scan", p)
	}
	got, err := auto.MatchOffsets(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []EngineKind{EngineStackless, EngineRsonpath, EngineDOM} {
		want, err := MustCompile("$..a..b", WithEngine(kind)).MatchOffsets(doc)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("auto %v != %v %v", got, kind, want)
		}
	}
}

// TestQueryCachePlannerKey pins the cache key on resolved options:
// WithEngine(EngineRsonpath) is the default, so it shares the default's
// entry, while every option that changes the compiled artifact — engine,
// timeout, fallback, limit, optimization, window — splits the key.
func TestQueryCachePlannerKey(t *testing.T) {
	cache := NewQueryCache(16)
	def, err := cache.Get("$..a")
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := cache.Get("$..a", WithEngine(EngineRsonpath))
	if err != nil {
		t.Fatal(err)
	}
	if pinned != def {
		t.Fatal("WithEngine(EngineRsonpath) missed the default's cache entry")
	}
	seen := map[*Query]string{def: "default"}
	for name, opt := range map[string]Option{
		"engine":       WithEngine(EngineStackless),
		"timeout":      WithTimeout(time.Second),
		"fallback":     WithFallback(FallbackOff),
		"limit":        WithMaxMatches(3),
		"optimization": WithOptimizations(Optimizations{NoHeadSkip: true}),
		"window":       WithStreamWindow(4096),
	} {
		q, err := cache.Get("$..a", opt)
		if err != nil {
			t.Fatal(err)
		}
		if other, dup := seen[q]; dup {
			t.Fatalf("%s option collided with %s in the cache", name, other)
		}
		seen[q] = name
	}
	if n := cache.Len(); n != len(seen) {
		t.Fatalf("cache holds %d entries, want %d", n, len(seen))
	}
}

// TestQuerySetExplain: the set's plan layer names the shared pass's
// dominant mechanism and upgrades to the planes like a single query.
func TestQuerySetExplain(t *testing.T) {
	set := MustCompileSet([]string{"$..a", "$..b"})
	if p := set.Explain(DocStats{}); p.Strategy != "scan" || p.Rule != "head-skip" || p.Engine != EngineRsonpath {
		t.Fatalf("set plan = %+v", p)
	}
	if p := set.Explain(DocStats{Indexed: true}); p.Strategy != "indexed" {
		t.Fatalf("set plan with index = %+v", p)
	}
	mixed := MustCompileSet([]string{"$..a", "$.b[*]"})
	if p := mixed.Explain(DocStats{}); p.Strategy != "scan" || p.Rule != "depth-stack" {
		t.Fatalf("mixed set plan = %+v", p)
	}
}

// TestPipelineValuesSingleExtraction: MatchValues must agree with ValueAt
// over MatchOffsets — values are extracted during the final stage now, and
// the two views must stay identical, aliasing included.
func TestPipelineValuesSingleExtraction(t *testing.T) {
	doc := []byte(`{"a": [{"b": {"c": 1}}, {"b": [2, {"c": 3}]}], "b": {"c": 0}}`)
	p := NewPipeline(MustCompile("$.a..b"), MustCompile("$..c"))
	offs, err := p.MatchOffsets(doc)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := p.MatchValues(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != len(offs) || len(vals) == 0 {
		t.Fatalf("got %d values for %d offsets", len(vals), len(offs))
	}
	for i, o := range offs {
		want, err := ValueAt(doc, o)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(vals[i], want) {
			t.Fatalf("value %d = %q, want %q", i, vals[i], want)
		}
		if &vals[i][0] != &doc[o] {
			t.Fatalf("value %d does not alias the document", i)
		}
	}
}
