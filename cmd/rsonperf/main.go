// Command rsonperf is the repository's benchmark: four named workloads,
// from cold library scans to NDJSON serving, each a closed loop whose every
// operation is checked against the DOM oracle. An untraced run prints the
// end-to-end metrics; a traced run replays each operation's layer calls in
// timed spans and prints the per-layer ledger. BENCHMARK.json at the
// repository root lists the workloads, the metrics and their regression
// bounds; README.md in this directory explains each of them.
//
// Usage (from the repository root; run.sh builds rsonperf and rsonpathd
// from the checkout first):
//
//	bash cmd/rsonperf/run.sh --workload scan|repeat|http|ndjson|all --seed N [--seconds 20] [--trace 0|1] [--out DIR] [--spans FILE]
//	bash cmd/rsonperf/run.sh compare A/*.json B/*.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is 0 only when
// the run completed and every operation returned the oracle's answer.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rsonpath/internal/simd"
)

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"scan", "repeat", "http", "ndjson"}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, the ones BENCHMARK.json
// bounds. Every workload reports all of them; README.md defines what an
// operation and an item are on each.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"gb_per_s", "GB/s"},
	{"p50_ms", "ms"},
	{"p95_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	// daemon is the rsonpathd binary the http and ndjson workloads start.
	daemon string
	// out is the directory that receives the stamped result file; "" = none.
	out string
	// spans is the JSONL file a traced run writes its spans to.
	spans string
	// scale multiplies the scan and repeat dataset sizes (1 = the jsongen
	// defaults the workloads are defined at); the self-test shrinks it.
	scale float64
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit for the self-test.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("rsonperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "scan, repeat, http, ndjson, or all")
	seed := fs.Int64("seed", 1, "seed of the generated inputs and of the order of operations")
	seconds := fs.Int("seconds", 20, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1 = traced run: replay each operation's layer calls and report per-layer metrics")
	daemon := fs.String("rsonpathd", ".bench_build/rsonpathd", "rsonpathd binary for the http and ndjson workloads")
	out := fs.String("out", "", "directory for the stamped result file (<workload>-seed<N>[-trace].json)")
	spans := fs.String("spans", "", "span file of a traced run (default .bench_build/spans-<workload>-seed<N>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "rsonperf: usage: rsonperf --workload NAME --seed N [--seconds S] [--trace 0|1] [--out DIR] [--spans FILE]")
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		duration: time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		daemon:   *daemon,
		out:      *out,
		spans:    *spans,
		scale:    1,
	}
	if cfg.workload == "all" {
		return runAll(cfg, stdout, stderr)
	}
	if cfg.trace && cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	}
	res, err := runWorkload(ctx, cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "rsonperf:", err)
		return 1
	}
	if err := emit(stdout, cfg, res); err != nil {
		fmt.Fprintln(stderr, "rsonperf:", err)
		return 1
	}
	if !res.Correct {
		for _, f := range res.Failures {
			fmt.Fprintln(stderr, "rsonperf: wrong result:", f)
		}
		return 1
	}
	return 0
}

// newWorkload builds the named workload.
func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "scan":
		return &scan{cfg: cfg}, nil
	case "repeat":
		return &repeat{cfg: cfg}, nil
	case "http":
		return &httpLoad{served: served{cfg: cfg, client: newClient()}}, nil
	case "ndjson":
		return &ndjsonLoad{served: served{cfg: cfg, client: newClient()}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s or all)", cfg.workload, strings.Join(workloadNames, ", "))
}

// runWorkload measures one workload and stamps the result.
func runWorkload(ctx context.Context, cfg config, progress io.Writer) (*result, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	st := newStamp(cfg)
	start := time.Now()
	res, err := measure(ctx, w, cfg, progress)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	st.WallSeconds = time.Since(start).Seconds()
	res.Context = st
	return res, nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is the operation or span count behind a percentile or rate.
	Samples int `json:"samples,omitempty"`
}

// result is what a run writes to its result file; the last stdout line
// carries its first four fields.
type result struct {
	Workload  string            `json:"workload"`
	Context   stamp             `json:"context"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Ledger is a traced run's per-span-name breakdown, beyond the per-layer
	// metrics BENCHMARK.json lists.
	Ledger []ledgerRow `json:"ledger,omitempty"`
	// Counters are deltas of the daemon's /metrics over the timed phase.
	Counters map[string]float64 `json:"counters,omitempty"`
	// Failures describes the first wrong results, if any.
	Failures []string `json:"failures,omitempty"`
	// HostGBps is the median of the run's host-speed readings (host.go).
	HostGBps float64 `json:"host_gbps"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]summaryMetric `json:"metrics"`
}

type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the metric lines, the ledger and the summary line, and writes
// the result file when -out is set.
func emit(w io.Writer, cfg config, res *result) error {
	for _, row := range res.Ledger {
		fmt.Fprintln(w, row)
	}
	counters := make([]string, 0, len(res.Counters))
	for name := range res.Counters {
		counters = append(counters, name)
	}
	slices.Sort(counters)
	for _, name := range counters {
		fmt.Fprintf(w, "counter %s %.6g\n", name, res.Counters[name])
	}
	names := metricNames(res.Metrics, cfg.trace)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%s %.6g %s (n=%d)\n", name, m.Value, m.Unit, m.Samples)
	}
	fmt.Fprintf(w, "fail_ratio %.6g (%d of %d operations)\n", failRatio(res), res.Failed, res.Attempted)
	if cfg.out != "" {
		if err := writeResult(cfg, res); err != nil {
			return err
		}
	}
	s := summary{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]summaryMetric{}}
	for _, name := range names {
		s.Metrics[name] = summaryMetric{Value: res.Metrics[name].Value, Unit: res.Metrics[name].Unit}
	}
	line, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// metricNames orders a run's metrics as BENCHMARK.json lists them.
func metricNames(ms map[string]metric, traced bool) []string {
	defs := endToEnd
	if traced {
		defs = layerDefs
	}
	var names []string
	for _, d := range defs {
		if _, ok := ms[d.name]; ok {
			names = append(names, d.name)
		}
	}
	return names
}

func failRatio(res *result) float64 {
	if res.Attempted == 0 {
		return 0
	}
	return float64(res.Failed) / float64(res.Attempted)
}

func writeResult(cfg config, res *result) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed)
	if cfg.trace {
		name += "-trace"
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.out, name+".json"), append(data, '\n'), 0o644)
}

// runAll re-executes the binary once per workload, so each workload gets a
// fresh heap and its own peak RSS, and folds the children's summary lines
// into one whose metric names are prefixed with the workload.
func runAll(cfg config, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "rsonperf:", err)
		return 1
	}
	all := summary{Correct: true, Metrics: map[string]summaryMetric{}}
	code := 0
	for _, name := range workloadNames {
		args := []string{"-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.Itoa(int(cfg.duration / time.Second)),
			"-rsonpathd", cfg.daemon, "-out", cfg.out}
		if cfg.trace {
			args = append(args, "-trace", "1")
		}
		var buf bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "rsonperf: workload %s: %v\n", name, err)
			code = 1
		}
		var s summary
		if err := json.Unmarshal(lastLine(buf.Bytes()), &s); err != nil {
			all.Correct = false
			code = 1
			continue
		}
		all.Correct = all.Correct && s.Correct
		all.Attempted += s.Attempted
		all.Failed += s.Failed
		for k, v := range s.Metrics {
			all.Metrics[name+"."+k] = v
		}
	}
	line, _ := json.Marshal(all)
	fmt.Fprintf(stdout, "%s\n", line)
	return code
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

// stamp is the run's context, recorded in every result file.
type stamp struct {
	Workload     string   `json:"workload"`
	Seed         int64    `json:"seed"`
	Trace        bool     `json:"trace"`
	Seconds      float64  `json:"seconds"`
	WallSeconds  float64  `json:"wall_seconds"`
	Started      string   `json:"started"`
	Nproc        int      `json:"nproc"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	CPU          string   `json:"cpu"`
	SimdBackend  string   `json:"simd_backend"`
	SimdBackends []string `json:"simd_backends"`
	GoVersion    string   `json:"go_version"`
	Commit       string   `json:"commit"`
	Dirty        bool     `json:"dirty"`
}

func newStamp(cfg config) stamp {
	s := stamp{
		Workload:     cfg.workload,
		Seed:         cfg.seed,
		Trace:        cfg.trace,
		Seconds:      cfg.duration.Seconds(),
		Started:      time.Now().UTC().Format(time.RFC3339),
		Nproc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPU:          cpuModel(),
		SimdBackend:  simd.Backend(),
		SimdBackends: simd.Backends(),
		GoVersion:    runtime.Version(),
		Commit:       "unknown",
	}
	// Outside a git checkout (or without git) the commit stays unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		s.Commit = strings.TrimSpace(string(out))
		if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			s.Dirty = len(bytes.TrimSpace(out)) > 0
		}
	}
	return s
}

// cpuModel reads the processor model from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
