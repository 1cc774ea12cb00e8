package surfer

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rsonpath/internal/dom"
	"rsonpath/internal/errs"
	"rsonpath/internal/jsonpath"
)

func assertOracle(t *testing.T, query, doc string) {
	t.Helper()
	root, err := dom.Parse([]byte(doc))
	if err != nil {
		t.Fatalf("oracle rejects %q: %v", doc, err)
	}
	want := dom.MatchOffsets(root, jsonpath.MustParse(query))
	e, err := CompileQuery(query)
	if err != nil {
		t.Fatalf("CompileQuery(%q): %v", query, err)
	}
	got, err := e.Matches([]byte(doc))
	if err != nil {
		t.Fatalf("Matches(%q, %q): %v", query, doc, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s on %s: surfer %v, oracle %v", query, doc, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s on %s: surfer %v, oracle %v", query, doc, got, want)
		}
	}
}

func TestSurferBasics(t *testing.T) {
	doc := `{"a": {"b": 1, "c": [2, {"b": 3}]}, "b": 4}`
	for _, q := range []string{
		"$", "$.a", "$.a.b", "$.b", "$..b", "$.a.*", "$.*", "$..*", "$.a.c.*",
		"$.a.c[0]", "$.a.c[1].b", "$..c[1]", "$.missing",
	} {
		assertOracle(t, q, doc)
	}
}

func TestSurferScalarRoots(t *testing.T) {
	for _, doc := range []string{`42`, `"s"`, `true`, `false`, `null`, `{}`, `[]`} {
		for _, q := range []string{"$", "$.a", "$..a", "$.*"} {
			assertOracle(t, q, doc)
		}
	}
}

func TestSurferStringsAndEscapes(t *testing.T) {
	doc := `{"k\"ey": "va{lue", "a": ["}", "\\", ",\""]}`
	for _, q := range []string{`$['k\"ey']`, "$.a.*", "$..*"} {
		assertOracle(t, q, doc)
	}
}

func TestSurferDeep(t *testing.T) {
	depth := 500
	doc := strings.Repeat(`{"a":`, depth) + `1` + strings.Repeat(`}`, depth)
	assertOracle(t, "$..a", doc)
}

func TestSurferMalformed(t *testing.T) {
	e, err := CompileQuery("$.a")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{``, `   `, `{`, `{"a"}`, `{"a":1,}`, `[1,]`, `{"a":1} extra`, `{"a":`, `x`} {
		if _, err := e.Matches([]byte(doc)); err == nil {
			t.Errorf("Matches(%q) succeeded, want error", doc)
		}
	}
}

func TestSurferRandomDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	keys := []string{"a", "b", "c"}
	for trial := 0; trial < 400; trial++ {
		doc := randomDoc(r, keys, 4)
		root, err := dom.Parse([]byte(doc))
		if err != nil {
			t.Fatalf("bad generated doc %q: %v", doc, err)
		}
		query := randomQuery(r, keys)
		want := dom.MatchOffsets(root, jsonpath.MustParse(query))
		e, err := CompileQuery(query)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Matches([]byte(doc))
		if err != nil {
			t.Fatalf("trial %d: %s on %s: %v", trial, query, doc, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: %s on %s\n  surfer: %v\n  oracle: %v", trial, query, doc, got, want)
		}
	}
}

func randomDoc(r *rand.Rand, keys []string, depth int) string {
	var b strings.Builder
	var gen func(d int)
	gen = func(d int) {
		kind := r.Intn(8)
		if d <= 0 && kind < 4 {
			kind += 4
		}
		switch {
		case kind < 2:
			b.WriteByte('{')
			perm := r.Perm(len(keys))
			n := r.Intn(len(keys) + 1)
			for i := 0; i < n; i++ {
				if i > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%q:", keys[perm[i]])
				gen(d - 1)
			}
			b.WriteByte('}')
		case kind < 4:
			b.WriteByte('[')
			n := r.Intn(4)
			for i := 0; i < n; i++ {
				if i > 0 {
					b.WriteByte(',')
				}
				gen(d - 1)
			}
			b.WriteByte(']')
		case kind < 6:
			fmt.Fprintf(&b, "%d", r.Intn(200)-100)
		case kind < 7:
			b.WriteString(`"s{r\"i]ng"`)
		default:
			b.WriteString("null")
		}
	}
	gen(depth)
	return b.String()
}

func randomQuery(r *rand.Rand, labels []string) string {
	var sb strings.Builder
	sb.WriteString("$")
	for i, steps := 0, 1+r.Intn(4); i < steps; i++ {
		if r.Intn(3) == 0 {
			sb.WriteString("..")
		} else {
			sb.WriteString(".")
		}
		switch r.Intn(5) {
		case 0:
			sb.WriteString("*")
		default:
			sb.WriteString(labels[r.Intn(len(labels))])
		}
	}
	return sb.String()
}

// TestSurferLimitDepth: LimitDepth aborts a walk deeper than the limit with
// a typed *errs.Limit and lets a shallower one through.
func TestSurferLimitDepth(t *testing.T) {
	doc := []byte(`{"a": {"b": {"c": {"d": 1}}}}`)
	e, err := CompileQuery("$.a.b.c.d")
	if err != nil {
		t.Fatal(err)
	}
	e.LimitDepth(3)
	var lim *errs.Limit
	if _, err := e.Matches(doc); !errors.As(err, &lim) || lim.What != "depth" {
		t.Fatalf("depth 4 under limit 3: err %v, want a depth *errs.Limit", err)
	}
	e.LimitDepth(8)
	if offs, err := e.Matches(doc); err != nil || len(offs) != 1 {
		t.Fatalf("depth 4 under limit 8: offs %v err %v", offs, err)
	}
}
