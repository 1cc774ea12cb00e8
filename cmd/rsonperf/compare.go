package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// runCompare prints, for every workload × metric of two sets of result
// files (grouped by directory: compare A/*.json B/*.json), each side's
// median and quartiles, the change of the medians, and — for the bounded
// end-to-end metrics — whether B's median and each side's spread stay
// within the bound. It exits 1 when any bounded check fails.
func runCompare(args []string, stdout, stderr io.Writer) int {
	bench := "BENCHMARK.json"
	if len(args) >= 2 && args[0] == "-benchmark" {
		bench, args = args[1], args[2:]
	}
	var spec benchmarkFile
	data, err := os.ReadFile(bench)
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "rsonperf compare:", err)
		return 2
	}
	var dirs []string
	sides := map[string][]*result{}
	for _, path := range args {
		res, err := readResult(path)
		if err != nil {
			fmt.Fprintln(stderr, "rsonperf compare:", err)
			return 2
		}
		dir := filepath.Dir(path)
		if !slices.Contains(dirs, dir) {
			dirs = append(dirs, dir)
		}
		sides[dir] = append(sides[dir], res)
	}
	if len(dirs) != 2 {
		fmt.Fprintln(stderr, "rsonperf compare: usage: rsonperf compare [-benchmark BENCHMARK.json] A/*.json B/*.json (two directories)")
		return 2
	}
	a, b := sides[dirs[0]], sides[dirs[1]]
	fmt.Fprintf(stdout, "A = %s (%d files), B = %s (%d files)\n", dirs[0], len(a), dirs[1], len(b))
	fmt.Fprintf(stdout, "%-8s %-30s %12s %12s %12s | %12s %12s %12s | %8s  %s\n",
		"workload", "metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "change", "verdict")
	type bound struct {
		lower bool
		share float64
		ok    bool
	}
	bounds := map[string]bound{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = bound{m.Better == "lower", m.Bound, true}
	}
	for _, m := range spec.PerLayer {
		bounds[m.Name] = bound{lower: m.Better == "lower"}
	}
	code := 0
	for _, key := range metricKeys(a, b) {
		qa, qb := quartiles(values(a, key)), quartiles(values(b, key))
		if qa == nil || qb == nil {
			continue
		}
		change := qb[1]/qa[1] - 1
		verdict := "(no bound)"
		if bd := bounds[key.metric]; bd.ok {
			worse := change
			if !bd.lower {
				worse = -change
			}
			verdict = "within"
			if worse > bd.share {
				verdict = "OUTSIDE"
				code = 1
			}
			// setup_s's spread is not bounded: it is a median of set-ups
			// that include process start-up.
			if key.metric != "setup_s" {
				for _, q := range [][]float64{qa, qb} {
					if spread := (q[2] - q[0]) / q[1]; spread > bd.share {
						verdict += fmt.Sprintf(", spread %.1f%% > %.0f%%", 100*spread, 100*bd.share)
						code = 1
					}
				}
			}
		}
		fmt.Fprintf(stdout, "%-8s %-30s %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g | %+7.2f%%  %s\n",
			key.workload, key.metric, qa[0], qa[1], qa[2], qb[0], qb[1], qb[2], 100*change, verdict)
	}
	return code
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

type metricKey struct{ workload, metric string }

// metricKeys lists the workload × metric pairs both sides report.
func metricKeys(a, b []*result) []metricKey {
	seen := map[metricKey]int{}
	for i, side := range [][]*result{a, b} {
		for _, res := range side {
			for name := range res.Metrics {
				seen[metricKey{res.Workload, name}] |= 1 << i
			}
		}
	}
	var keys []metricKey
	for k, sides := range seen {
		if sides == 3 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	return keys
}

func values(side []*result, key metricKey) []float64 {
	var xs []float64
	for _, res := range side {
		if m, ok := res.Metrics[key.metric]; ok && res.Workload == key.workload {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) computes them (the
// "exclusive" method); nil for no values.
func quartiles(xs []float64) []float64 {
	n := len(xs)
	if n == 0 {
		return nil
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n == 1 {
		return []float64{s[0], s[0], s[0]}
	}
	out := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out
}
