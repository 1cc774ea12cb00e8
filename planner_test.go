package rsonpath

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// Tests for the execution-plan layer (DESIGN.md §13): the decision's
// rules, the differential suite pinning default-engine results to every
// forced engine over the compliance corpus, the Explain stability contract,
// and the cache-key regression.

// plannerCorpus is every compliance case, slices included.
func plannerCorpus() []complianceCase {
	return append(append([]complianceCase(nil), complianceCases...), sliceComplianceCases...)
}

// decided checks one decide call's strategy and rule, and that the rule
// explains itself.
func decided(t *testing.T, kind EngineKind, headSkip, watchdog bool, d DocStats, wantStrategy, wantRule string) {
	t.Helper()
	p := decide(kind, headSkip, watchdog, d)
	if p.Strategy != wantStrategy || p.Rule != wantRule {
		t.Fatalf("decide(%v, headSkip=%v, watchdog=%v, %+v) = {%s %s}, want {%s %s}",
			kind, headSkip, watchdog, d, p.Strategy, p.Rule, wantStrategy, wantRule)
	}
	if p.Rationale == "" {
		t.Fatalf("rule %q has no rationale", p.Rule)
	}
}

// TestForcedEngine pins WithEngine as a constraint, not a parallel path: a
// pinned engine keeps its strategy whatever the stats say, while the
// default engine leaves the rules in charge.
func TestForcedEngine(t *testing.T) {
	decided(t, EngineDOM, true, false, DocStats{}, "dom", "forced-engine")
	decided(t, EngineDOM, true, false, DocStats{Indexed: true}, "dom", "forced-engine")
	decided(t, EngineDOM, false, true, DocStats{ExpectedRuns: 100}, "dom", "forced-engine")
	// The accelerated engine upgrades to the planes: the plane-backed run
	// is the same engine fed from precomputed masks.
	decided(t, EngineRsonpath, true, false, DocStats{Indexed: true}, "indexed", "indexed-available")
}

// TestIndexedAvailable pins the warm path: an index in hand wins over every
// scan, except under a watchdog deadline (the plane run is atomic).
func TestIndexedAvailable(t *testing.T) {
	decided(t, EngineRsonpath, true, false, DocStats{Indexed: true}, "indexed", "indexed-available")
	decided(t, EngineRsonpath, false, false, DocStats{Indexed: true}, "indexed", "indexed-available")
	decided(t, EngineRsonpath, true, true, DocStats{Indexed: true}, "scan", "watchdog-streams")
}

// TestIndexAmortizes pins the break-even boundary at IndexAmortizeRuns.
func TestIndexAmortizes(t *testing.T) {
	decided(t, EngineRsonpath, false, false, DocStats{ExpectedRuns: IndexAmortizeRuns}, "indexed", "index-amortizes")
	decided(t, EngineRsonpath, false, false, DocStats{ExpectedRuns: IndexAmortizeRuns - 1}, "scan", "no-index")
	// The watchdog blocks the atomic plane run the advice would lead to.
	decided(t, EngineRsonpath, false, true, DocStats{ExpectedRuns: 100}, "scan", "no-index")
	// Head-skip queries decline the advice: memmem reads raw bytes either
	// way, so the build is never repaid (DESIGN.md §11).
	decided(t, EngineRsonpath, true, false, DocStats{ExpectedRuns: 100}, "scan", "head-skip")
	decided(t, EngineRsonpath, true, true, DocStats{ExpectedRuns: 100}, "scan", "no-index")
	// An index already in hand is sunk cost: even head-skip serves from it.
	decided(t, EngineRsonpath, true, false, DocStats{Indexed: true, ExpectedRuns: 100}, "indexed", "indexed-available")
}

// TestScanRules pins the cold scan's rules: head-skip only where a leading
// descendant label declines the index advice, no-index everywhere else.
func TestScanRules(t *testing.T) {
	for _, headSkip := range []bool{false, true} {
		for _, d := range []DocStats{{}, {Bytes: 1 << 20}, {ExpectedRuns: IndexAmortizeRuns - 1}} {
			decided(t, EngineRsonpath, headSkip, false, d, "scan", "no-index")
		}
	}
	if p := MustCompile("$..a").Explain(DocStats{ExpectedRuns: 100}); p.Rule != "head-skip" {
		t.Fatalf("$..a plan = %+v, want head-skip", p)
	}
	for _, query := range []string{"$.a..b", "$..*", "$..[0]", "$.a", "$..['a','b']"} {
		if p := MustCompile(query).Explain(DocStats{ExpectedRuns: 100}); p.Rule != "index-amortizes" {
			t.Fatalf("%s plan = %+v, want index-amortizes (no head-skip)", query, p)
		}
	}
}

// TestStacklessRules pins that the depth-register automaton is reached only
// through WithEngine: no stats reroute the default engine to it, and a
// forced stackless engine stays stackless even with an index in hand (it
// has no plane surface).
func TestStacklessRules(t *testing.T) {
	for _, headSkip := range []bool{false, true} {
		for _, d := range []DocStats{{}, {Bytes: 1 << 20}, {ExpectedRuns: 100}, {Indexed: true}} {
			if p := decide(EngineRsonpath, headSkip, false, d); p.Engine != EngineRsonpath {
				t.Fatalf("decide(headSkip=%v, %+v) rerouted the default engine to %v", headSkip, d, p.Engine)
			}
		}
	}
	decided(t, EngineStackless, true, false, DocStats{}, "stackless", "forced-engine")
	decided(t, EngineStackless, true, false, DocStats{Indexed: true}, "stackless", "forced-engine")
}

// TestDecideDeterministic: decide is pure — the same facts yield the same
// plan, rationale included, which is what keeps Explain output stable.
func TestDecideDeterministic(t *testing.T) {
	d := DocStats{Bytes: 1 << 20, ExpectedRuns: 9}
	for _, headSkip := range []bool{false, true} {
		a := decide(EngineRsonpath, headSkip, false, d)
		for i := 0; i < 10; i++ {
			if b := decide(EngineRsonpath, headSkip, false, d); b != a {
				t.Fatalf("decide not deterministic: %+v vs %+v", a, b)
			}
		}
	}
}

// TestStrategyNames pins the stable strategy vocabulary: metrics series and
// Explain output are built from these exact names, so each must also be a
// valid metric-name fragment.
func TestStrategyNames(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range []struct {
		kind  EngineKind
		stats DocStats
		want  string
	}{
		{EngineRsonpath, DocStats{}, "scan"},
		{EngineRsonpath, DocStats{Indexed: true}, "indexed"},
		{EngineStackless, DocStats{}, "stackless"},
		{EngineDOM, DocStats{}, "dom"},
	} {
		name := decide(c.kind, false, false, c.stats).Strategy
		if name != c.want {
			t.Fatalf("%v over %+v plans strategy %q, want %q", c.kind, c.stats, name, c.want)
		}
		if seen[name] {
			t.Fatalf("duplicate strategy name %q", name)
		}
		seen[name] = true
		for _, ch := range name {
			if ch < 'a' || ch > 'z' {
				t.Fatalf("strategy name %q is not a metric-name fragment", name)
			}
		}
	}
}

// TestPlannerDifferentialRun: planner-auto answers (BytesInput) must be
// byte-identical to every forced engine on the whole compliance corpus.
func TestPlannerDifferentialRun(t *testing.T) {
	for _, c := range plannerCorpus() {
		t.Run(c.name, func(t *testing.T) {
			auto := MustCompile(c.query)
			vals, err := auto.MatchValues([]byte(c.doc))
			if err != nil {
				t.Fatalf("[auto] run: %v", err)
			}
			got := make([]string, len(vals))
			for i, b := range vals {
				got[i] = string(b)
			}
			if fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Fatalf("[auto] %s on %s:\n  got  %q\n  want %q (plan %v)",
					c.query, c.doc, got, c.want, auto.Explain(DocStats{}))
			}
			autoOffs, err := auto.MatchOffsets([]byte(c.doc))
			if err != nil {
				t.Fatalf("[auto] run: %v", err)
			}
			for _, kind := range []EngineKind{EngineRsonpath, EngineDOM, EngineStackless} {
				q, err := Compile(c.query, WithEngine(kind))
				if errors.Is(err, ErrUnsupportedQuery) {
					continue // stackless's descendant-only fragment
				}
				if err != nil {
					t.Fatalf("[%v] compile: %v", kind, err)
				}
				offs, err := q.MatchOffsets([]byte(c.doc))
				if err != nil {
					t.Fatalf("[%v] run: %v", kind, err)
				}
				if fmt.Sprint(autoOffs) != fmt.Sprint(offs) {
					t.Fatalf("auto != forced %v offsets: %v vs %v (plan %v)",
						kind, autoOffs, offs, auto.Explain(DocStats{}))
				}
			}
		})
	}
}

// TestPlannerDifferentialRunReader repeats the differential over the
// streaming path (BufferedInput) with a small window: the default engine
// and the forced stackless engine, through RunReader, against the DOM
// oracle's offsets.
func TestPlannerDifferentialRunReader(t *testing.T) {
	for _, c := range plannerCorpus() {
		t.Run(c.name, func(t *testing.T) {
			want, err := MustCompile(c.query, WithEngine(EngineDOM)).MatchOffsets([]byte(c.doc))
			if err != nil {
				t.Fatalf("[dom] run: %v", err)
			}
			for _, kind := range []EngineKind{EngineRsonpath, EngineStackless} {
				q, err := Compile(c.query, WithEngine(kind), WithStreamWindow(64))
				if errors.Is(err, ErrUnsupportedQuery) {
					continue // stackless's descendant-only fragment
				}
				if err != nil {
					t.Fatalf("[%v] compile: %v", kind, err)
				}
				var got []int
				if err := q.RunReader(strings.NewReader(c.doc), func(pos int) {
					got = append(got, pos)
				}); err != nil {
					t.Fatalf("[%v] stream run: %v", kind, err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("[%v] stream offsets %v, want %v (plan %v)",
						kind, got, want, q.Explain(DocStats{}))
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
			"strategy=scan engine=rsonpath rule=no-index: no index in hand and none advised: the accelerated engine scans the raw bytes"},
		{"$.a.b[*]", nil, DocStats{},
			"strategy=scan engine=rsonpath rule=no-index: no index in hand and none advised: the accelerated engine scans the raw bytes"},
		{"$..a", nil, DocStats{Indexed: true},
			"strategy=indexed engine=rsonpath rule=indexed-available: classification served from the prebuilt document mask index"},
		{"$.a.b", nil, DocStats{ExpectedRuns: 8},
			"strategy=indexed engine=rsonpath rule=index-amortizes: 8 expected runs over the same document repay the one-time index build (break-even ~8)"},
		{"$.a.b", []Option{WithEngine(EngineRsonpath)}, DocStats{ExpectedRuns: 8},
			"strategy=indexed engine=rsonpath rule=index-amortizes: 8 expected runs over the same document repay the one-time index build (break-even ~8)"},
		{"$..a", nil, DocStats{ExpectedRuns: 100},
			"strategy=scan engine=rsonpath rule=head-skip: leading descendant label: skip straight to each occurrence of the sought label"},
		{"$..a", []Option{WithTimeout(time.Second)}, DocStats{Indexed: true},
			"strategy=scan engine=rsonpath rule=watchdog-streams: watchdog deadline needs the streaming path's cancellation points; the atomic plane-backed run is unavailable"},
		{"$..a", []Option{WithEngine(EngineDOM)}, DocStats{},
			"strategy=dom engine=dom rule=forced-engine: engine forced by WithEngine"},
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
// to the depth-register automaton: a descendant-only chain plans the
// accelerated engine's scan and still matches the forced engines bytewise.
func TestStacklessAutoDispatch(t *testing.T) {
	doc := []byte(`{"a": {"x": {"b": 1}, "b": {"b": 2}}, "c": {"a": {"b": 3}}}`)
	auto := MustCompile("$..a..b")
	if p := auto.Explain(DocStats{}); p.Engine != EngineRsonpath || p.Strategy != "scan" {
		t.Fatalf("plan = %+v, want the accelerated scan", p)
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
// timeout, fallback, limit, window — splits the key.
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
		"engine":   WithEngine(EngineStackless),
		"timeout":  WithTimeout(time.Second),
		"fallback": WithFallback(FallbackOff),
		"limit":    WithMaxMatches(3),
		"window":   WithStreamWindow(4096),
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

// TestQuerySetExplain: the set plans from whether every member head-skips
// and upgrades to the planes like a single query.
func TestQuerySetExplain(t *testing.T) {
	set := MustCompileSet([]string{"$..a", "$..b"})
	if p := set.Explain(DocStats{}); p.Strategy != "scan" || p.Rule != "no-index" || p.Engine != EngineRsonpath {
		t.Fatalf("set plan = %+v", p)
	}
	if p := set.Explain(DocStats{ExpectedRuns: 100}); p.Strategy != "indexed" || p.Rule != "index-amortizes" {
		t.Fatalf("set plan with repeats = %+v (a set never head-skips)", p)
	}
	if p := set.Explain(DocStats{Indexed: true}); p.Strategy != "indexed" {
		t.Fatalf("set plan with index = %+v", p)
	}
	mixed := MustCompileSet([]string{"$..a", "$.b[*]"})
	if p := mixed.Explain(DocStats{ExpectedRuns: 100}); p.Strategy != "indexed" || p.Rule != "index-amortizes" {
		t.Fatalf("mixed set plan with repeats = %+v", p)
	}
	if p := MustCompileSet([]string{"$..a"}, WithTimeout(time.Second)).Explain(DocStats{Indexed: true}); p.Rule != "watchdog-streams" {
		t.Fatalf("watchdog set plan with index = %+v", p)
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
