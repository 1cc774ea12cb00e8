package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"rsonpath"
)

// The planner experiment measures what the adaptive execution planner buys:
// for a matrix of workload classes (document size × match density × repeat
// count) it times the planner-auto configuration against every forced
// strategy and reports how close auto gets to the per-class best and how far
// it stays from the per-class worst. CheckPlanner turns the report into the
// CI acceptance gate: auto must never be more than AutoSlack slower than the
// best forced strategy, and must beat the worst forced strategy by at least
// WorstMargin on at least one class (otherwise the plan layer is dead
// weight). Serialised into BENCH_planner.json.

// AutoSlack is the acceptance ceiling for auto/best-forced wall time.
const AutoSlack = 1.2

// WorstMargin is the worst-forced/auto ratio auto must reach somewhere.
const WorstMargin = 1.5

// PlannerClass is one workload: a query run Repeats times over one dataset.
type PlannerClass struct {
	Name    string  `json:"name"`
	Dataset string  `json:"dataset"`
	Scale   float64 `json:"scale"`
	Query   string  `json:"query"`
	Repeats int     `json:"repeats"`
}

// PlannerClasses is the experiment matrix. Size varies by dataset scale,
// density by the query's match count on it (vitamins_tags hits 24 records,
// DOI hits every item), and the repeat counts straddle the planner's
// IndexAmortizeRuns break-even (8).
var PlannerClasses = []PlannerClass{
	{"small-sparse-r1", "openfood", 0.25, "$..vitamins_tags", 1},
	{"small-sparse-r16", "openfood", 0.25, "$..vitamins_tags", 16},
	{"small-dense-r1", "walmart", 0.25, "$.items.*.name", 1},
	{"small-dense-r16", "walmart", 0.25, "$.items.*.name", 16},
	{"large-sparse-r1", "crossref", 1, "$.items.*.editor.*.affiliation.*.name", 1},
	{"large-sparse-r16", "crossref", 1, "$.items.*.editor.*.affiliation.*.name", 16},
	{"large-dense-r1", "crossref", 1, "$.items.*.DOI", 1},
	{"large-dense-r16", "crossref", 1, "$.items.*.DOI", 16},
}

// PlannerForced is one forced strategy's wall time on a class: the median
// over the timed rounds.
type PlannerForced struct {
	Label       string  `json:"label"`
	Seconds     float64 `json:"seconds"`
	Unsupported bool    `json:"unsupported,omitempty"`
}

// PlannerClassResult is one class's measurements.
type PlannerClassResult struct {
	Class   string `json:"class"`
	Dataset string `json:"dataset"`
	Query   string `json:"query"`
	Bytes   int    `json:"bytes"`
	Repeats int    `json:"repeats"`
	// Strategy and Rule echo the plan auto chose for this class.
	Strategy string `json:"strategy"`
	Rule     string `json:"rule"`
	// AutoSeconds is the median wall time of the full planner-auto
	// workload: Explain on the class stats, an index build iff the plan
	// says indexed, then Repeats runs.
	AutoSeconds float64         `json:"auto_seconds"`
	Forced      []PlannerForced `json:"forced"`
	BestForced  string          `json:"best_forced"`
	WorstForced string          `json:"worst_forced"`
	// AutoVsBest is the median over rounds of auto/best (≤ AutoSlack
	// passes); WorstVsAuto is the median of worst/auto (≥ WorstMargin on
	// some class proves the planner earns its keep). Best is the forced
	// strategy with the highest median auto/forced ratio, worst the one
	// with the highest median forced/auto.
	AutoVsBest  float64 `json:"auto_vs_best"`
	WorstVsAuto float64 `json:"worst_vs_auto"`
}

// PlannerReport is the BENCH_planner.json payload.
type PlannerReport struct {
	Classes []PlannerClassResult `json:"classes"`
	// MaxAutoVsBest is the worst auto/best ratio across classes.
	MaxAutoVsBest float64 `json:"max_auto_vs_best"`
	// BestWorstVsAuto is the largest worst/auto ratio across classes.
	BestWorstVsAuto float64 `json:"best_worst_vs_auto"`
}

// plannerRounds is the least number of timed rounds per class (more with
// -samples). Each workload of a class is a few milliseconds at CI scale, so
// one timing of auto against one of its forced twin is a ratio of noise;
// a median of paired ratios, each taken within one round, is not. At 7
// rounds the median for a pair running the same code still read above
// AutoSlack in 2 of 20 CI-scale runs on a 2-vCPU host; at 15, in none of
// 40.
const plannerRounds = 15

// plannerWorkload is one timed configuration of a class.
type plannerWorkload struct {
	label string
	run   func() error
}

// timeRounds runs every workload once untimed, then times each once per
// round, rotating which one runs first, and returns the per-round seconds
// by workload.
func (h *Harness) timeRounds(class string, ws []plannerWorkload) ([][]float64, error) {
	for _, w := range ws {
		if err := w.run(); err != nil {
			return nil, fmt.Errorf("planner %s (%s): %w", class, w.label, err)
		}
	}
	secs := make([][]float64, len(ws))
	for r := 0; r < max(h.Samples, plannerRounds); r++ {
		for k := range ws {
			i := (r + k) % len(ws)
			start := time.Now()
			if err := ws[i].run(); err != nil {
				return nil, fmt.Errorf("planner %s (%s): %w", class, ws[i].label, err)
			}
			secs[i] = append(secs[i], time.Since(start).Seconds())
		}
	}
	return secs, nil
}

// median returns the median of xs, leaving xs as it is.
func median(xs []float64) float64 {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// medianRatio is the median over rounds of num[r]/den[r].
func medianRatio(num, den []float64) float64 {
	ratios := make([]float64, len(num))
	for r := range num {
		ratios[r] = num[r] / den[r]
	}
	return median(ratios)
}

// plannerScans are the forced cold scans, one per engine.
var plannerScans = []Variant{
	{"scan-rsonpath", library},
	{"scan-surfer", compileSurfer},
	{"scan-stackless", compileStackless},
}

// scanWorkload is Repeats cold runs of q over data.
func scanWorkload(q Counter, data []byte, repeats int) func() error {
	return func() error {
		for i := 0; i < repeats; i++ {
			if _, err := q.Count(data); err != nil {
				return err
			}
		}
		return nil
	}
}

// indexWorkload is one index build plus Repeats warm runs — the build is
// charged to every pass, exactly the bet the index-amortizes rule makes.
func indexWorkload(q *rsonpath.Query, data []byte, repeats int) func() error {
	return func() error {
		doc, err := rsonpath.Index(data)
		if err != nil {
			return err
		}
		for i := 0; i < repeats; i++ {
			if _, err := q.CountIndexed(doc); err != nil {
				return err
			}
		}
		return nil
	}
}

// RunPlanner measures the planner matrix.
func (h *Harness) RunPlanner() (PlannerReport, error) {
	var rep PlannerReport
	rep.BestWorstVsAuto = 0
	for _, c := range PlannerClasses {
		data, err := h.DatasetScaled(c.Dataset, c.Scale)
		if err != nil {
			return rep, err
		}
		res := PlannerClassResult{Class: c.Name, Dataset: c.Dataset,
			Query: c.Query, Bytes: len(data), Repeats: c.Repeats}

		// Auto: the library's own dispatch, fed the class's workload stats.
		auto, err := rsonpath.Compile(c.Query)
		if err != nil {
			return rep, fmt.Errorf("planner %s: %w", c.Name, err)
		}
		pl := auto.Explain(rsonpath.DocStats{ExpectedRuns: c.Repeats})
		res.Strategy, res.Rule = pl.Strategy, pl.Rule
		autoRun := scanWorkload(auto, data, c.Repeats)
		if pl.Strategy == "indexed" {
			autoRun = indexWorkload(auto, data, c.Repeats)
		}

		// Auto first, then the forced alternatives: each strategy pinned
		// for the whole workload.
		ws := []plannerWorkload{{"auto", autoRun}}
		for _, v := range plannerScans {
			q, err := v.Compile(c.Query)
			if Unsupported(err) {
				res.Forced = append(res.Forced, PlannerForced{Label: v.Label, Unsupported: true})
				continue
			}
			if err != nil {
				return rep, fmt.Errorf("planner %s (%s): %w", c.Name, v.Label, err)
			}
			ws = append(ws, plannerWorkload{v.Label, scanWorkload(q, data, c.Repeats)})
		}
		ws = append(ws, plannerWorkload{"index-always", indexWorkload(auto, data, c.Repeats)})

		secs, err := h.timeRounds(c.Name, ws)
		if err != nil {
			return rep, err
		}
		res.AutoSeconds = median(secs[0])
		for i, w := range ws[1:] {
			forced := secs[i+1]
			if r := medianRatio(secs[0], forced); r > res.AutoVsBest {
				res.AutoVsBest, res.BestForced = r, w.label
			}
			if r := medianRatio(forced, secs[0]); r > res.WorstVsAuto {
				res.WorstVsAuto, res.WorstForced = r, w.label
			}
			res.Forced = append(res.Forced, PlannerForced{Label: w.label, Seconds: median(forced)})
		}
		if res.AutoVsBest > rep.MaxAutoVsBest {
			rep.MaxAutoVsBest = res.AutoVsBest
		}
		if res.WorstVsAuto > rep.BestWorstVsAuto {
			rep.BestWorstVsAuto = res.WorstVsAuto
		}
		rep.Classes = append(rep.Classes, res)
	}
	return rep, nil
}

// CheckPlanner is the acceptance gate over a planner report (run by CI).
func CheckPlanner(rep PlannerReport) error {
	var bad []string
	for _, c := range rep.Classes {
		if c.AutoVsBest > AutoSlack {
			bad = append(bad, fmt.Sprintf(
				"%s: auto (%s) is %.2f× the best forced strategy (%s), ceiling %.1f×",
				c.Class, c.Strategy, c.AutoVsBest, c.BestForced, AutoSlack))
		}
	}
	if rep.BestWorstVsAuto < WorstMargin {
		bad = append(bad, fmt.Sprintf(
			"auto never beats the worst forced strategy by ≥%.1f× (best margin %.2f×); the planner is not earning its keep",
			WorstMargin, rep.BestWorstVsAuto))
	}
	if len(bad) > 0 {
		return fmt.Errorf("planner acceptance failed:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

// RenderPlanner prints the report as an aligned table.
func RenderPlanner(w io.Writer, rep PlannerReport) {
	fmt.Fprintf(w, "%-18s %8s %3s | %-10s %16s %10s | %-14s %8s | %-14s %8s\n",
		"class", "MiB", "N", "auto plan", "rule", "auto s", "best forced", "vs best", "worst forced", "vs worst")
	for _, c := range rep.Classes {
		fmt.Fprintf(w, "%-18s %8.1f %3d | %-10s %16s %10.4f | %-14s %7.2fx | %-14s %7.2fx\n",
			c.Class, float64(c.Bytes)/(1<<20), c.Repeats,
			c.Strategy, c.Rule, c.AutoSeconds,
			c.BestForced, c.AutoVsBest, c.WorstForced, c.WorstVsAuto)
	}
	fmt.Fprintf(w, "max auto/best %.2fx (ceiling %.1fx); best worst/auto %.2fx (need ≥%.1fx once)\n",
		rep.MaxAutoVsBest, AutoSlack, rep.BestWorstVsAuto, WorstMargin)
}
