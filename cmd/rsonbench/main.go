// Command rsonbench regenerates every table and figure of the paper's
// evaluation (§5) on the synthetic datasets. See DESIGN.md for the
// experiment index and EXPERIMENTS.md for recorded results.
//
// Usage:
//
//	rsonbench -exp all
//	rsonbench -exp a            # Experiment A (Table 4 / Figure 4)
//	rsonbench -exp b -scale 0.5 # Experiment B at half the default size
//	rsonbench -exp table2
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rsonpath/internal/bench"
	"rsonpath/internal/cluster"
	"rsonpath/internal/server"
	"rsonpath/internal/simd"
)

// chaosWorkerEnv re-enters this binary as one chaos-cluster worker process:
// the chaos experiment re-execs rsonbench itself with this variable set to
// the worker's unix socket path (plus chaosShardEnv for its shard index),
// because the experiment needs real killable OS processes, not goroutines.
const (
	chaosWorkerEnv = "RSONBENCH_CLUSTER_WORKER"
	chaosShardEnv  = "RSONBENCH_CLUSTER_SHARD"
)

func main() {
	if sock := os.Getenv(chaosWorkerEnv); sock != "" {
		os.Exit(chaosWorkerMain(sock, os.Getenv(chaosShardEnv)))
	}
	var (
		exp     = flag.String("exp", "all", "experiment: a, b, c, d, grid, multiquery, parallel_lines, swar, serve, planner, overload, chaos, table2, table3, semantics, ablation, stackless, or all")
		scale   = flag.Float64("scale", 1.0, "dataset size factor relative to DESIGN.md defaults")
		samples = flag.Int("samples", 5, "timed samples per measurement")
		seed    = flag.Int64("seed", 42, "dataset generation seed")
		jsonDir = flag.String("json", "", "directory for machine-readable results (BENCH_<exp>.json)")
	)
	flag.Parse()

	h := bench.NewHarness()
	h.SizeFactor = *scale
	h.Samples = *samples
	h.Seed = *seed

	for _, e := range strings.Split(*exp, ",") {
		if err := run(h, e, *jsonDir); err != nil {
			fmt.Fprintln(os.Stderr, "rsonbench:", err)
			os.Exit(1)
		}
	}
}

// stamp records where a BENCH file was measured: figures from different
// hosts, backends, toolchains or commits do not compare.
type stamp struct {
	Nproc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	SimdBackend string `json:"simd_backend"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"commit"`
	Dirty       bool   `json:"dirty"`
}

func newStamp() stamp {
	s := stamp{
		Nproc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		SimdBackend: simd.Backend(),
		GoVersion:   runtime.Version(),
		Commit:      "unknown",
	}
	// Outside a git checkout (or without git) the commit stays unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		s.Commit = strings.TrimSpace(string(out))
		if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			s.Dirty = len(strings.TrimSpace(string(out))) > 0
		}
	}
	return s
}

// writeJSON dumps v, stamped, as DIR/BENCH_<name>.json when -json is set:
// {"stamp": {...}, "results": v}.
func writeJSON(dir, name string, v any) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Stamp   stamp `json:"stamp"`
		Results any   `json:"results"`
	}{newStamp(), v}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "BENCH_"+name+".json"), append(data, '\n'), 0o644)
}

func run(h *bench.Harness, exp, jsonDir string) error {
	w := os.Stdout
	switch exp {
	case "all":
		for _, e := range []string{"table2", "table3", "a", "b", "c", "d", "semantics", "ablation", "stackless", "multiquery", "parallel_lines", "swar", "serve", "planner", "overload", "grid"} {
			if err := run(h, e, jsonDir); err != nil {
				return err
			}
		}
		return nil

	case "table2":
		fmt.Fprintln(w, "== Table 2: naive vs lookup-table classification ==")
		bench.RenderTable2(w, bench.RunTable2())
		return nil

	case "table3":
		fmt.Fprintln(w, "== Table 3: dataset characteristics ==")
		rows, err := h.RunTable3()
		if err != nil {
			return err
		}
		bench.RenderTable3(w, rows, h)
		return nil

	case "a":
		results, err := h.RunGrid(bench.ExperimentSpecs("A"))
		if err != nil {
			return err
		}
		bench.RenderFigure(w, "Experiment A (Table 4 / Figure 4): descendant-free queries", results)
		return nil

	case "b":
		specs := bench.ExperimentSpecs("B")
		// Include the originals next to their rewritings, as Figure 5 does.
		var full []bench.Spec
		for _, s := range specs {
			if orig, ok := bench.SpecByID(s.RewritingOf); ok {
				full = append(full, orig)
			}
			full = append(full, s)
		}
		results, err := h.RunGrid(full)
		if err != nil {
			return err
		}
		bench.RenderFigure(w, "Experiment B (Table 5 / Figure 5): descendant rewritings", results)
		return nil

	case "c":
		results, err := h.RunGrid(bench.ExperimentSpecs("C"))
		if err != nil {
			return err
		}
		bench.RenderFigure(w, "Experiment C (Table 6 / Figure 6): limitations and opportunities", results)
		return nil

	case "d":
		fmt.Fprintln(w, "== Experiment D (Table 7): scalability, $..affiliation..name on Crossref ==")
		points, err := h.RunScalability([]float64{0.25, 0.5, 1, 2})
		if err != nil {
			return err
		}
		bench.RenderScalability(w, points)
		return nil

	case "semantics":
		fmt.Fprintln(w, "== Appendix D / Table 9: node vs path semantics ==")
		return bench.RenderSemantics(w)

	case "ablation":
		fmt.Fprintln(w, "== Ablation: skipping techniques toggled off ==")
		var specs []bench.Spec
		for _, id := range []string{"B1r", "C2r", "Tsr", "A2", "W2"} {
			if s, ok := bench.SpecByID(id); ok {
				specs = append(specs, s)
			}
		}
		results, err := h.RunAblation(specs)
		if err != nil {
			return err
		}
		bench.RenderAblation(w, results)
		return nil

	case "stackless":
		fmt.Fprintln(w, "== Simulation strategies (§3.2): depth-stack vs depth-registers ==")
		results, err := h.RunStackless()
		if err != nil {
			return err
		}
		bench.RenderAblation(w, results)
		return nil

	case "multiquery":
		fmt.Fprintln(w, "== Multi-query: one-pass QuerySet vs N independent runs ==")
		results, err := h.RunMultiQuery(bench.MultiSpecs)
		if err != nil {
			return err
		}
		bench.RenderMultiQuery(w, results)
		return writeJSON(jsonDir, "multiquery", results)

	case "parallel_lines":
		fmt.Fprintln(w, "== Parallel lines: JSON Lines worker pool vs sequential scan ==")
		results, err := h.RunParallelLines(bench.ParallelSpecs)
		if err != nil {
			return err
		}
		bench.RenderParallelLines(w, results)
		return writeJSON(jsonDir, "parallel_lines", results)

	case "swar":
		fmt.Fprintln(w, "== SWAR: batched vs per-block classification; head-skip seeker; indexed repeat queries ==")
		kernels, err := h.RunSWARKernels([]string{"crossref", "ast"})
		if err != nil {
			return err
		}
		seekers, err := h.RunSeekers()
		if err != nil {
			return err
		}
		repeat, err := h.RunIndexedRepeat("crossref", []int{1, 8, 32})
		if err != nil {
			return err
		}
		rep := bench.SWARReport{
			Backend:       simd.Backend(),
			Backends:      simd.Backends(),
			Kernels:       kernels,
			Seekers:       seekers,
			IndexedRepeat: repeat,
		}
		bench.RenderSWAR(w, rep)
		if err := writeJSON(jsonDir, "swar", rep); err != nil {
			return err
		}
		// The acceptance gate doubles as the CI smoke check: hardware
		// kernels that fail to clear the SWAR fallback by the DESIGN.md §16
		// floors fail the run.
		return bench.CheckSimd(rep)

	case "serve":
		fmt.Fprintln(w, "== Serving: rsonpathd query-cache and document-index hot paths ==")
		rep, err := h.RunServe()
		if err != nil {
			return err
		}
		bench.RenderServe(w, rep)
		return writeJSON(jsonDir, "serve", rep)

	case "planner":
		fmt.Fprintln(w, "== Planner: adaptive auto vs forced strategies ==")
		rep, err := h.RunPlanner()
		if err != nil {
			return err
		}
		bench.RenderPlanner(w, rep)
		if err := writeJSON(jsonDir, "planner", rep); err != nil {
			return err
		}
		// The acceptance gate doubles as the CI smoke check: a plan layer
		// that loses to a forced strategy fails the run.
		return bench.CheckPlanner(rep)

	case "overload":
		fmt.Fprintln(w, "== Overload: open-loop arrivals past saturation, admission control ==")
		rep, err := h.RunOverload()
		if err != nil {
			return err
		}
		bench.RenderOverload(w, rep)
		if err := writeJSON(jsonDir, "overload", rep); err != nil {
			return err
		}
		// The acceptance gate doubles as the CI overload smoke: any 5xx,
		// zero sheds past saturation, or collapsed goodput fails the run.
		return bench.CheckOverload(rep)

	case "chaos":
		fmt.Fprintln(w, "== Chaos: worker kills under open-loop load, crash isolation ==")
		exe, err := os.Executable()
		if err != nil {
			return fmt.Errorf("chaos: locating own binary for worker re-exec: %w", err)
		}
		// -scale shrinks the kill count so CI can run the full gate in a
		// fraction of the recorded experiment's ~50s; the invariants checked
		// per kill are identical. The floor keeps at least a couple of
		// supervised recoveries in even the smallest smoke.
		cycles := int(20*h.SizeFactor + 0.5)
		if cycles < 2 {
			cycles = 2
		}
		rep, err := h.RunChaos(func(shard int, socket string) *exec.Cmd {
			cmd := exec.Command(exe)
			cmd.Env = append(os.Environ(),
				chaosWorkerEnv+"="+socket,
				chaosShardEnv+"="+strconv.Itoa(shard))
			return cmd
		}, bench.ChaosOptions{KillCycles: cycles, Log: os.Stderr})
		if err != nil {
			return err
		}
		bench.RenderChaos(w, rep)
		if err := writeJSON(jsonDir, "chaos", rep); err != nil {
			return err
		}
		// The acceptance gate doubles as the CI chaos check: any 5xx, an
		// unrecovered kill, or a parent goroutine/fd leak fails the run.
		return bench.CheckChaos(rep)

	case "grid":
		fmt.Fprintln(w, "== Appendix C: full result grid ==")
		results, err := h.RunGrid(bench.Specs)
		if err != nil {
			return err
		}
		bench.RenderGrid(w, results)
		return nil

	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

// chaosWorkerMain is the hidden worker mode: serve one shard's daemon on the
// given unix socket until the supervisor's SIGTERM (or a chaos SIGKILL ends
// things less politely).
func chaosWorkerMain(socket, shard string) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := cluster.RunWorker(ctx, server.Config{
		Timeout: 10 * time.Second,
		Shard:   shard,
		Version: "bench",
	}, socket, 10*time.Second)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rsonbench worker:", err)
		return 1
	}
	return 0
}
