package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"rsonpath/internal/loadgen"
	"rsonpath/internal/server"
)

// Overload experiment: boot a daemon with a deliberately small admission
// budget, find its closed-loop saturation throughput, then drive open-loop
// arrivals at 1× and 4× that rate. A closed-loop generator cannot overload
// anything — it slows down with the server — so the open-loop points are
// where the admission gate and queue actually earn their keep.
// CheckOverload is the acceptance gate CI runs: past saturation the daemon
// must shed (429) rather than break (5xx/transport errors), and goodput
// must hold up rather than collapse under the extra offered load.
//
// The load is NDJSON bulk on purpose. The generator shares the machine
// with the daemon under test, so a request must cost the server far more
// than it costs the client, or the generator saturates itself first and
// "4× saturation" never overloads anything (a lesson this experiment
// learned empirically: with single-document queries the engine's GB/s scan
// rate means the per-request HTTP cost dominates on both sides equally).
// One bulk request is one cheap ~200 KB upload for the client but
// thousands of per-record evaluations for the server — exactly the
// asymmetry real overload has.
//
// The daemon under test runs rsonpathd's own overload policy: the
// admission gate, its bounded deadline-aware queue and its bytes budget,
// with every shed decided by the gate.

// overloadCapacity and overloadQueue size the daemon under test: one slot
// and a short queue, so shedding starts the moment a handful of bulk
// requests pile up.
const (
	overloadCapacity = 1
	overloadQueue    = 4
)

// overloadRecords sizes the NDJSON batch. ~50 bytes per record keeps the
// body near 200 KB — under net/http's 256 KiB post-handler drain limit, so
// a shed request's unread body still fits the server's drain and rejected
// requests keep their connections alive instead of forcing a dial per
// arrival. Shedding must stay cheap or it is not shedding.
const overloadRecords = 4000

// overloadProbe and overloadPoint are the wall-clock lengths of the
// closed-loop saturation probe and of each open-loop point.
const (
	overloadProbe = 1 * time.Second
	overloadPoint = 1500 * time.Millisecond
)

// OverloadPoint is one load run against the constrained daemon.
type OverloadPoint struct {
	Name string `json:"name"`
	// RateRPS is the configured open-loop arrival rate (0 for the
	// closed-loop saturation probe).
	RateRPS float64        `json:"rate_rps,omitempty"`
	Load    loadgen.Report `json:"load"`
}

// OverloadReport is the overload experiment's machine-readable record
// (BENCH_overload.json).
type OverloadReport struct {
	// DocBytes is the NDJSON body size; Records its line count.
	DocBytes int `json:"doc_bytes"`
	Records  int `json:"records"`
	// Capacity and QueueDepth are the daemon's admission settings: weight
	// capacity of the gate and slots in the wait queue.
	Capacity   int `json:"capacity"`
	QueueDepth int `json:"queue_depth"`
	// SaturationRPS is the closed-loop throughput the probe measured; the
	// open-loop points offer 1× and 4× this rate.
	SaturationRPS float64         `json:"saturation_rps"`
	Points        []OverloadPoint `json:"points"`
}

// overloadBody builds the NDJSON batch: overloadRecords small records,
// each matching the query once.
func overloadBody() []byte {
	var body bytes.Buffer
	for i := 0; i < overloadRecords; i++ {
		fmt.Fprintf(&body, `{"a": {"b": %d}, "pad": "%024d"}`+"\n", i, i)
	}
	return body.Bytes()
}

// RunOverload measures the daemon's behavior at and past saturation.
func (h *Harness) RunOverload() (OverloadReport, error) {
	rep := OverloadReport{Capacity: overloadCapacity, QueueDepth: overloadQueue, Records: overloadRecords}
	doc := overloadBody()
	rep.DocBytes = len(doc)

	base, stop, err := startServeDaemon(server.Config{
		Timeout:        10 * time.Second,
		MaxConcurrency: overloadCapacity,
		AdmissionQueue: overloadQueue,
	})
	if err != nil {
		return rep, err
	}
	defer stop()
	url := base + "/v1/query"
	const query = "$.a.b"

	// Closed loop with as many workers as the daemon has admission slots:
	// enough to keep the gate busy, few enough that the queue absorbs them
	// without shedding. The measured throughput is the saturation point.
	sat, err := loadgen.Run(context.Background(), loadgen.Config{
		URL: url, Query: query, Mode: "count", Document: doc,
		RawContentType: "application/x-ndjson",
		Concurrency:    overloadCapacity + overloadQueue,
		Duration:       overloadProbe,
	})
	if err != nil {
		return rep, fmt.Errorf("saturation probe: %w", err)
	}
	rep.SaturationRPS = sat.Throughput
	rep.Points = append(rep.Points, OverloadPoint{Name: "closed_saturation", Load: sat})
	if rep.SaturationRPS <= 0 {
		return rep, fmt.Errorf("saturation probe measured zero throughput: %+v", sat)
	}

	// Open loop at 1× and 4× saturation. The generator's in-flight bound
	// sits well above the daemon's admission slots — every shed decision is
	// the server's, not the client's — but low enough that the generator
	// does not strangle the very slot it is measuring.
	for _, mult := range []float64{1, 4} {
		rate := mult * rep.SaturationRPS
		load, err := loadgen.Run(context.Background(), loadgen.Config{
			URL: url, Query: query, Mode: "count", Document: doc,
			RawContentType: "application/x-ndjson",
			Rate:           rate,
			Concurrency:    32,
			Duration:       overloadPoint,
		})
		if err != nil {
			return rep, fmt.Errorf("open-loop %gx: %w", mult, err)
		}
		rep.Points = append(rep.Points, OverloadPoint{
			Name: fmt.Sprintf("open_%gx", mult), RateRPS: rate, Load: load,
		})
	}
	return rep, nil
}

// CheckOverload is the acceptance gate over an overload run. Three
// invariants: the daemon never breaks (no transport errors, no non-200
// responses other than 429 sheds), the admission layer engages past
// saturation (an overloaded daemon that never sheds is just queueing its
// way to a timeout), and goodput at 4× offered load stays within a factor
// of goodput at 1× (load shedding that collapses throughput is not
// shedding, it is thrashing).
func CheckOverload(rep OverloadReport) error {
	var bad []string
	points := make(map[string]loadgen.Report, len(rep.Points))
	for _, p := range rep.Points {
		points[p.Name] = p.Load
		if p.Load.Errors > 0 || p.Load.NonOK > 0 {
			bad = append(bad, fmt.Sprintf("%s: %d transport errors, %d non-200/non-429 responses (statuses %v)",
				p.Name, p.Load.Errors, p.Load.NonOK, p.Load.StatusCounts))
		}
	}
	over, ok := points["open_4x"]
	if !ok {
		bad = append(bad, "open_4x point missing")
	} else {
		if over.Shed == 0 {
			bad = append(bad, "open_4x: zero sheds at 4x saturation; admission control never engaged")
		}
		if at, ok := points["open_1x"]; ok && over.GoodputRPS < 0.25*at.GoodputRPS {
			bad = append(bad, fmt.Sprintf(
				"open_4x goodput %.0f req/s collapsed below ¼ of open_1x goodput %.0f req/s",
				over.GoodputRPS, at.GoodputRPS))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("overload acceptance failed:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

// RenderOverload prints the experiment as an aligned table.
func RenderOverload(w io.Writer, rep OverloadReport) {
	fmt.Fprintf(w, "daemon: capacity %d, queue %d; NDJSON batch %d records, %d bytes\n",
		rep.Capacity, rep.QueueDepth, rep.Records, rep.DocBytes)
	fmt.Fprintf(w, "closed-loop saturation: %.0f req/s\n", rep.SaturationRPS)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "point\toffered\tthroughput\tgoodput\tshed\tdropped\taccepted p50\taccepted p99")
	for _, p := range rep.Points {
		offered := "-"
		if p.Load.OfferedRPS > 0 {
			offered = fmt.Sprintf("%.0f/s", p.Load.OfferedRPS)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.0f/s\t%.0f/s\t%d\t%d\t%.2fms\t%.2fms\n",
			p.Name, offered, p.Load.Throughput, p.Load.GoodputRPS,
			p.Load.Shed, p.Load.Dropped, p.Load.AcceptedP50MS, p.Load.AcceptedP99MS)
	}
	tw.Flush()
}
