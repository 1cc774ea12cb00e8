package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// setupRuns is how many times a run performs the program's set-up; setup_s
// is the median.
const setupRuns = 5

// A run is cut into windows of whole rounds lasting at least windowLength,
// each preceded by a reading of the host's speed (host.go). Rates and
// latencies are reported at the reference host speed. Windows are short
// because the host's speed changes within seconds.
const windowLength = 250 * time.Millisecond

// maxFailures bounds the wrong results a run describes.
const maxFailures = 5

// workload is one named workload. A run calls prepare once, setUp
// setupRuns times, round until the duration is spent, then close.
type workload interface {
	// prepare makes the inputs from the seed and computes the expected
	// results with the DOM oracle. This is benchmark work, not program
	// work, and is excluded from setup_s.
	prepare(ctx context.Context) error
	// setUp performs the program's set-up and returns how long it took;
	// each call replaces the previous set-up.
	setUp(ctx context.Context) (time.Duration, error)
	// round runs one round of operations. A round is a whole cycle of the
	// workload's mix, so every run measures the same mix.
	round(ctx context.Context, r *recorder) error
	// pid is the process running the program, whose peak RSS is reported.
	pid() int
	// cpus is how many vCPUs the program keeps busy: 1 for a library
	// workload, which runs it on the calling goroutine; all for the daemon.
	cpus() int
	// path names the replayed calls that lie on an operation's own path
	// through the program; an operation's time minus theirs is its
	// transport residual.
	path() []string
	// close stops what setUp started, checking the program's own counters
	// into r first.
	close(r *recorder) error
}

// recorder accumulates one run's (or one connection's) operations.
type recorder struct {
	// trace is non-nil in a traced run; traced is set during its traced
	// rounds, which alternate with untraced ones.
	trace  *tracer
	traced bool

	lat       []float64 // ms per operation of untraced rounds
	tracedLat []float64 // ms per operation of traced rounds
	items     int64
	bytes     int64
	attempted int64
	failed    int64
	failures  []string
	// counters are what close read from the program (daemon /metrics).
	counters map[string]float64
}

// op records one timed operation: its items and document bytes count
// towards throughput, err (a transport failure or a wrong result) towards
// fail_ratio. In a traced round it opens the operation's span and returns
// its id, which the caller's layer replays use as parent; otherwise 0.
func (r *recorder) op(name string, start time.Time, d time.Duration, items, bytes int, err error) int {
	r.attempted++
	r.items += int64(items)
	r.bytes += int64(bytes)
	if err != nil {
		r.fail(err)
	}
	ms := float64(d) / float64(time.Millisecond)
	if !r.traced {
		r.lat = append(r.lat, ms)
		return 0
	}
	r.tracedLat = append(r.tracedLat, ms)
	return r.trace.op(name, start, d, items, bytes)
}

func (r *recorder) fail(err error) {
	r.failed++
	if len(r.failures) < maxFailures {
		r.failures = append(r.failures, err.Error())
	}
}

// merge folds a connection's recorder into r.
func (r *recorder) merge(o *recorder) {
	r.lat = append(r.lat, o.lat...)
	r.tracedLat = append(r.tracedLat, o.tracedLat...)
	r.items += o.items
	r.bytes += o.bytes
	r.attempted += o.attempted
	r.failed += o.failed
	for _, f := range o.failures {
		if len(r.failures) < maxFailures {
			r.failures = append(r.failures, f)
		}
	}
}

// measure runs one workload: inputs and oracle, set-up, then rounds until
// the duration is spent, then the verdict over every operation.
func measure(ctx context.Context, w workload, cfg config, progress io.Writer) (*result, error) {
	if err := w.prepare(ctx); err != nil {
		return nil, fmt.Errorf("preparing inputs: %w", err)
	}
	r := &recorder{}
	res, err := timed(ctx, w, cfg, r, progress)
	if cerr := w.close(r); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed, res.Failures, res.Counters = r.attempted, r.failed, r.failures, r.counters
	res.Correct = r.failed == 0
	if cfg.trace {
		if err := r.trace.finish(cfg, r, w.path(), res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// timed performs the set-up runs and the measured rounds and computes the
// end-to-end metrics. A traced run alternates untraced and traced rounds,
// so trace.overhead_share compares operations of the same run.
func timed(ctx context.Context, w workload, cfg config, r *recorder, progress io.Writer) (*result, error) {
	setups := make([]float64, setupRuns)
	for i := range setups {
		before := hostSpeed(w.cpus())
		d, err := w.setUp(ctx)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[i] = d.Seconds() * hostScale((before+hostSpeed(w.cpus()))/2)
	}
	// Drop the oracle's garbage so the peak RSS below starts from the
	// program's own resident set.
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(w.pid()); err != nil {
		return nil, err
	}

	if cfg.trace {
		r.trace = newTracer()
	}
	var wins []window
	start := time.Now()
	for rounds := 0; time.Since(start) < cfg.duration || len(wins) < 2; {
		win := window{host: hostSpeed(w.cpus()), from: len(r.lat), items: r.items, bytes: r.bytes}
		winStart := time.Now()
		for ; time.Since(winStart) < windowLength; rounds++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r.traced = cfg.trace && rounds%2 == 1
			if err := w.round(ctx, r); err != nil {
				return nil, err
			}
		}
		win.wall = time.Since(winStart)
		win.to, win.items, win.bytes = len(r.lat), r.items-win.items, r.bytes-win.bytes
		wins = append(wins, win)
	}
	wall := time.Since(start)
	last := hostSpeed(w.cpus())
	peak, err := peakRSS(w.pid())
	if err != nil {
		return nil, err
	}
	res := &result{Workload: cfg.workload, Metrics: map[string]metric{}}
	fmt.Fprintf(progress, "%s: %d operations in %.1f s, set-up %.3f s\n", cfg.workload, r.attempted, wall.Seconds(), median(setups))

	// A window's times are scaled by its host speed, the mean of the
	// readings before and after it, to times at the reference speed.
	var secs float64
	var lat, hosts []float64
	for i, win := range wins {
		after := last
		if i+1 < len(wins) {
			after = wins[i+1].host
		}
		scale := hostScale((win.host + after) / 2)
		hosts = append(hosts, win.host)
		secs += win.wall.Seconds() * scale
		for _, ms := range r.lat[win.from:win.to] {
			lat = append(lat, ms*scale)
		}
	}
	res.HostGBps = median(hosts)
	if !cfg.trace {
		res.Metrics["ops_per_s"] = metric{float64(r.items) / secs, "1/s", int(r.items)}
		res.Metrics["gb_per_s"] = metric{float64(r.bytes) / secs / 1e9, "GB/s", len(lat)}
		res.Metrics["p50_ms"] = metric{percentile(lat, 50), "ms", len(lat)}
		res.Metrics["p95_ms"] = metric{percentile(lat, 95), "ms", len(lat)}
		res.Metrics["setup_s"] = metric{median(setups), "s", len(setups)}
		res.Metrics["peak_rss_mb"] = metric{peak, "MiB", 1}
	}
	return res, nil
}

// window is a stretch of whole rounds: the host speed read before it, its
// wall time, its items and bytes, and its operations' latencies
// r.lat[from:to].
type window struct {
	host         float64
	wall         time.Duration
	items, bytes int64
	from, to     int
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(rank)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (rank-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// resetPeakRSS restarts the kernel's high-water mark of pid's resident set
// at its current size.
func resetPeakRSS(pid int) error {
	if err := os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSS reads pid's resident-set high-water mark (VmHWM) in MiB.
func peakRSS(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
