package planner

import "testing"

// Shapes used across the boundary tests.
var (
	headSkipShape = Shape{HasDescendant: true, LeadingDescendantLabel: true}
	childShape    = Shape{}
	generalShape  = Shape{HasDescendant: true}
)

func decide(t *testing.T, sh Shape, d DocStats, c Constraints, wantStrategy Strategy, wantRule string) {
	t.Helper()
	p := Decide(sh, d, c)
	if p.Strategy != wantStrategy || p.Rule != wantRule {
		t.Fatalf("Decide(%+v, %+v, %+v) = {%v %q}, want {%v %q}",
			sh, d, c, p.Strategy, p.Rule, wantStrategy, wantRule)
	}
	if p.Rationale == "" {
		t.Fatalf("rule %q has no rationale", p.Rule)
	}
}

// TestForcedEngine pins WithEngine as a constraint, not a parallel path: a
// baseline engine keeps its strategy whatever the stats say, while the
// default engine's constraint (StrategyScan) leaves the rules in charge.
func TestForcedEngine(t *testing.T) {
	forced := Constraints{Strategy: StrategySurfer}
	decide(t, headSkipShape, DocStats{}, forced, StrategySurfer, "forced-engine")
	decide(t, headSkipShape, DocStats{Indexed: true}, forced, StrategySurfer, "forced-engine")
	decide(t, childShape, DocStats{ExpectedRuns: 100}, forced, StrategySurfer, "forced-engine")
	// The accelerated engine upgrades to the planes: the plane-backed run
	// is the same engine fed from precomputed masks.
	decide(t, headSkipShape, DocStats{Indexed: true}, Constraints{Strategy: StrategyScan},
		StrategyIndexed, "indexed-available")
}

// TestIndexedAvailable pins the warm path: an index in hand wins over every
// scan, except under a watchdog deadline (the plane run is atomic).
func TestIndexedAvailable(t *testing.T) {
	decide(t, headSkipShape, DocStats{Indexed: true}, Constraints{},
		StrategyIndexed, "indexed-available")
	decide(t, generalShape, DocStats{Indexed: true}, Constraints{},
		StrategyIndexed, "indexed-available")
	decide(t, headSkipShape, DocStats{Indexed: true}, Constraints{WatchdogArmed: true},
		StrategyScan, "watchdog-streams")
}

// TestIndexAmortizes pins the break-even boundary at IndexAmortizeRuns.
func TestIndexAmortizes(t *testing.T) {
	decide(t, childShape, DocStats{ExpectedRuns: IndexAmortizeRuns}, Constraints{},
		StrategyIndexed, "index-amortizes")
	decide(t, childShape, DocStats{ExpectedRuns: IndexAmortizeRuns - 1}, Constraints{},
		StrategyScan, "child-skipping")
	decide(t, generalShape, DocStats{ExpectedRuns: IndexAmortizeRuns}, Constraints{},
		StrategyIndexed, "index-amortizes")
	// A streamed document cannot be indexed: no bytes in memory to classify.
	decide(t, childShape, DocStats{Streaming: true, ExpectedRuns: 100}, Constraints{},
		StrategyScan, "child-skipping")
	// The watchdog blocks the atomic plane run the advice would lead to.
	decide(t, childShape, DocStats{ExpectedRuns: 100}, Constraints{WatchdogArmed: true},
		StrategyScan, "child-skipping")
	// Head-skip shapes never take the advice: memmem reads raw bytes either
	// way, so the build is never repaid (DESIGN.md §11).
	decide(t, headSkipShape, DocStats{ExpectedRuns: 100}, Constraints{},
		StrategyScan, "head-skip")
	// An index already in hand is sunk cost: even head-skip serves from it.
	decide(t, headSkipShape, DocStats{Indexed: true}, Constraints{},
		StrategyIndexed, "indexed-available")
}

// TestStacklessRules pins that the depth-register automaton is reached only
// through WithEngine: no shape or stats reroute the default engine to it,
// and a forced stackless engine stays stackless even with an index in hand
// (it has no plane surface).
func TestStacklessRules(t *testing.T) {
	for _, sh := range []Shape{headSkipShape, childShape, generalShape} {
		for _, d := range []DocStats{{}, {Bytes: 1 << 20}, {Streaming: true}, {ExpectedRuns: 100}, {Indexed: true}} {
			if p := Decide(sh, d, Constraints{}); p.Strategy == StrategyStackless {
				t.Fatalf("Decide(%+v, %+v) rerouted the default engine to stackless", sh, d)
			}
		}
	}
	forced := Constraints{Strategy: StrategyStackless}
	decide(t, headSkipShape, DocStats{}, forced, StrategyStackless, "forced-engine")
	decide(t, headSkipShape, DocStats{Indexed: true}, forced, StrategyStackless, "forced-engine")
}

// TestScanFlavors pins the one scan strategy and the rule naming the
// dominant skipping mechanism for each shape.
func TestScanFlavors(t *testing.T) {
	decide(t, headSkipShape, DocStats{}, Constraints{}, StrategyScan, "head-skip")
	decide(t, childShape, DocStats{}, Constraints{}, StrategyScan, "child-skipping")
	decide(t, generalShape, DocStats{}, Constraints{}, StrategyScan, "depth-stack")
}

// TestDecideDeterministic: Decide is pure — the same triple yields the same
// plan, rationale included, which is what keeps Explain output stable.
func TestDecideDeterministic(t *testing.T) {
	d := DocStats{Bytes: 1 << 20, ExpectedRuns: 3}
	for _, sh := range []Shape{headSkipShape, childShape, generalShape} {
		a := Decide(sh, d, Constraints{})
		for i := 0; i < 10; i++ {
			if b := Decide(sh, d, Constraints{}); b != a {
				t.Fatalf("Decide not deterministic: %+v vs %+v", a, b)
			}
		}
	}
}

// TestPredictRuns pins the serving layer's sighting→runs prediction and its
// interlock with ShouldIndex: the promotion point is the second sighting.
func TestPredictRuns(t *testing.T) {
	cases := []struct{ seen, want int }{
		{-1, 0}, {0, 0}, {1, IndexAmortizeRuns / 2}, {2, IndexAmortizeRuns}, {3, 12},
	}
	for _, c := range cases {
		if got := PredictRuns(c.seen); got != c.want {
			t.Fatalf("PredictRuns(%d) = %d, want %d", c.seen, got, c.want)
		}
	}
	if ShouldIndex(DocStats{ExpectedRuns: PredictRuns(1)}) {
		t.Fatal("one sighting should not promote")
	}
	if !ShouldIndex(DocStats{ExpectedRuns: PredictRuns(2)}) {
		t.Fatal("two sightings should promote")
	}
	if ShouldIndex(DocStats{ExpectedRuns: 100, Indexed: true}) {
		t.Fatal("already indexed: nothing to build")
	}
	if ShouldIndex(DocStats{ExpectedRuns: 100, Streaming: true}) {
		t.Fatal("streaming documents cannot be indexed")
	}
}

// TestStrategyNames pins the stable strategy vocabulary: metrics series and
// Explain output are built from these exact names, so each must also be a
// valid metric-name fragment.
func TestStrategyNames(t *testing.T) {
	want := map[Strategy]string{
		StrategyScan: "scan", StrategyIndexed: "indexed",
		StrategyStackless: "stackless", StrategySki: "ski",
		StrategySurfer: "surfer", StrategyDOM: "dom",
	}
	if len(Strategies) != len(want) {
		t.Fatalf("Strategies has %d entries, want %d", len(Strategies), len(want))
	}
	seen := map[string]bool{}
	for _, s := range Strategies {
		name := s.String()
		if want[s] != name {
			t.Fatalf("strategy %d named %q, want %q", int(s), name, want[s])
		}
		if seen[name] {
			t.Fatalf("duplicate strategy name %q", name)
		}
		seen[name] = true
		for _, c := range name {
			if c < 'a' || c > 'z' {
				t.Fatalf("strategy name %q is not a metric-name fragment", name)
			}
		}
	}
}
