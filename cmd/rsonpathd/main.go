// Command rsonpathd is the JSONPath query daemon: a long-running HTTP/JSON
// service that keeps compiled queries hot in an LRU cache, optionally
// indexes documents it sees repeatedly, runs every request under the
// execution supervisor with a per-request deadline, and reports degraded
// requests in responses and metrics. See DESIGN.md §12.
//
// Usage:
//
//	rsonpathd [flags]
//
// Endpoints:
//
//	POST /v1/query   evaluate a query (JSON envelope, raw document with
//	                 ?query=..., or NDJSON body with ?query=...)
//	GET  /healthz    liveness probe
//	GET  /metrics    Prometheus-style counters
//	GET  /version    build identification
//
// Examples:
//
//	rsonpathd -addr :8077 -timeout 2s
//	rsonpathd -addr :8077 -shards 4
//	curl -s localhost:8077/v1/query -d '{"query": "$..price", "document": {"price": 9}, "mode": "count"}'
//	curl -s 'localhost:8077/v1/query?query=%24..price&mode=count' --data-binary @doc.json
//	curl -s 'localhost:8077/v1/query?query=%24.event' -H 'Content-Type: application/x-ndjson' --data-binary @log.jsonl
//
// With -shards N > 1 the daemon becomes a crash-isolated cluster
// (DESIGN.md §15): it re-execs itself as N shared-nothing worker processes
// on per-worker unix sockets and serves as their supervisor and front
// router. Workers that crash are restarted under exponential backoff
// (100ms doubling to 5s); a worker that crashes 5 times in a row within 1s
// of starting is quarantined and the service degrades to the surviving
// shards.
//
// Signals: SIGINT/SIGTERM drain gracefully — the listener closes
// immediately, in-flight requests finish under the -drain deadline, then
// remaining connections are closed forcibly (in cluster mode the workers
// are then drained one at a time, never two down at once). SIGHUP flushes
// the caches and closes the fallback breaker without restarting — fanned
// out to every worker in cluster mode, where it also revives quarantined
// shards.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"rsonpath/internal/cluster"
	"rsonpath/internal/server"
	"rsonpath/internal/simd"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit so tests can drive the
// daemon in-process: ctx cancellation plays the role of SIGINT/SIGTERM.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rsonpathd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", ":8077", "listen address")
		queryCache = fs.Int("query-cache", 256, "compiled-query LRU capacity")
		docCache   = fs.Int("doc-cache", 128, "indexed-document LRU capacity (0 = off); a document is indexed on its second sighting")
		timeout    = fs.Duration("timeout", 2*time.Second, "watchdog deadline per request (per record for NDJSON; 0 = none)")
		fallback   = fs.String("fallback", "on", "degrade to the DOM oracle on internal faults: on or off")
		maxDepth   = fs.Int("max-depth", 0, "document nesting limit (0 = default, negative = unlimited)")
		maxMatch   = fs.Int("max-matches", 0, "abort a run after this many matches (0 = unlimited)")
		maxBytes   = fs.Int("max-doc-bytes", 0, "largest document accepted by a run, in bytes (0 = unlimited)")
		maxBody    = fs.Int64("max-body-bytes", server.DefaultMaxBodyBytes, "largest HTTP request body accepted, in bytes")
		maxConc    = fs.Int("max-concurrency", 0, "admission gate weight capacity (0 = 8 x GOMAXPROCS)")
		admitQueue = fs.Int("admission-queue", 0, "admission wait-queue depth (0 = 2 x capacity, negative = no queue)")
		maxBytes2  = fs.Int64("max-inflight-bytes", 0, "summed payload bytes admitted concurrently (0 = default budget, negative = unlimited)")
		breaker    = fs.Bool("breaker", true, "circuit-break the DOM-oracle fallback when internal faults flood")
		docBytes   = fs.Int64("doc-cache-bytes", 0, "resident-byte bound on the indexed-document cache (0 = entry-count bound only)")
		bodyRead   = fs.Duration("body-read-timeout", 30*time.Second, "deadline for reading an admitted request body (0 = none)")
		parallel   = fs.Int("parallel", 0, "NDJSON worker-pool width (0 = GOMAXPROCS)")
		simdPick   = fs.String("simd", os.Getenv(simd.EnvBackend), "force a classification kernel backend (swar, avx2; default: best for this CPU, or $"+simd.EnvBackend+"); reported by /version and /metrics")
		drain      = fs.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests")
		version    = fs.String("version", "dev", "version string reported by /version")

		// Cluster mode (parent) flags.
		shards    = fs.Int("shards", 1, "worker processes; >1 runs the crash-isolated cluster")
		socketDir = fs.String("socket-dir", "", "directory for per-worker unix sockets (empty = private temp dir)")

		// Worker mode flags, set by the parent's re-exec; not for operators.
		workerSocket = fs.String("worker-socket", "", "serve one cluster shard on this unix socket (internal)")
		workerShard  = fs.Int("worker-shard", 0, "shard index reported by this worker (internal)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "rsonpathd: unexpected arguments:", fs.Args())
		return 2
	}
	if *fallback != "on" && *fallback != "off" {
		fmt.Fprintf(stderr, "rsonpathd: -fallback must be on or off, not %q\n", *fallback)
		return 2
	}
	if *simdPick != "" {
		// Applied before any server (or worker re-exec: workerArgs forwards
		// the flag) touches a document; also covers the cluster parent.
		if err := simd.SetBackend(*simdPick); err != nil {
			fmt.Fprintln(stderr, "rsonpathd:", err)
			return 2
		}
	}
	if *shards > 1 && *workerSocket != "" {
		fmt.Fprintln(stderr, "rsonpathd: -shards and -worker-socket are mutually exclusive")
		return 2
	}

	if *shards > 1 {
		return runCluster(ctx, fs, clusterOpts{
			addr: *addr, shards: *shards, socketDir: *socketDir,
			maxBody: *maxBody, drain: *drain, version: *version,
		}, stdout, stderr)
	}

	listenAddr := *addr
	shardName := ""
	if *workerSocket != "" {
		listenAddr = "unix:" + *workerSocket
		shardName = strconv.Itoa(*workerShard)
	}

	srv := server.New(server.Config{
		Addr:             listenAddr,
		Shard:            shardName,
		QueryCacheSize:   *queryCache,
		DocCacheSize:     *docCache,
		Timeout:          *timeout,
		FallbackOff:      *fallback == "off",
		MaxDepth:         *maxDepth,
		MaxMatches:       *maxMatch,
		MaxDocBytes:      *maxBytes,
		MaxBodyBytes:     *maxBody,
		MaxConcurrency:   *maxConc,
		AdmissionQueue:   *admitQueue,
		MaxInflightBytes: *maxBytes2,
		Breaker:          *breaker,
		DocCacheBytes:    *docBytes,
		BodyReadTimeout:  *bodyRead,
		Workers:          *parallel,
		Version:          *version,
	})
	if err := srv.Listen(); err != nil {
		fmt.Fprintln(stderr, "rsonpathd:", err)
		return 1
	}
	fmt.Fprintf(stdout, "rsonpathd: listening on %s\n", srv.Addr())

	// SIGHUP: flush caches, close the breaker, keep serving.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	hupDone := make(chan struct{})
	defer close(hupDone)
	go func() {
		for {
			select {
			case <-hup:
				srv.Flush()
				fmt.Fprintln(stderr, "rsonpathd: SIGHUP: flushed caches and reset admission state")
			case <-hupDone:
				return
			}
		}
	}()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	select {
	case err := <-serveErr:
		if err != nil {
			fmt.Fprintln(stderr, "rsonpathd:", err)
			return 1
		}
		return 0
	case <-ctx.Done():
		fmt.Fprintf(stderr, "rsonpathd: shutting down, draining for up to %s\n", *drain)
		dctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(dctx); err != nil {
			fmt.Fprintln(stderr, "rsonpathd: drain deadline exceeded; connections closed")
		}
		if err := <-serveErr; err != nil {
			fmt.Fprintln(stderr, "rsonpathd:", err)
			return 1
		}
		return 0
	}
}

// clusterOpts carries the parsed cluster-parent flags.
type clusterOpts struct {
	addr      string
	shards    int
	socketDir string
	maxBody   int64
	drain     time.Duration
	version   string
}

// clusterOnlyFlags are the flags that steer the parent and must not be
// forwarded to workers (a forwarded -shards would fork-bomb).
var clusterOnlyFlags = map[string]bool{
	"shards": true, "addr": true, "socket-dir": true,
}

// workerArgs rebuilds the command line for a worker re-exec: every server
// flag the operator set, minus the cluster-only ones, plus the worker
// identity. Rebuilding from parsed values (rather than scrubbing the raw
// argv) handles both -flag value and -flag=value spellings for free.
func workerArgs(fs *flag.FlagSet, shard int, socket string) []string {
	var argv []string
	fs.Visit(func(f *flag.Flag) {
		if clusterOnlyFlags[f.Name] {
			return
		}
		argv = append(argv, "-"+f.Name+"="+f.Value.String())
	})
	return append(argv,
		"-worker-socket="+socket,
		"-worker-shard="+strconv.Itoa(shard))
}

// runCluster is the -shards N parent: supervisor plus front router.
func runCluster(ctx context.Context, fs *flag.FlagSet, o clusterOpts, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "rsonpathd: cannot locate own binary for worker re-exec:", err)
		return 1
	}
	cl, err := cluster.New(cluster.Config{
		Shards:    o.shards,
		Addr:      o.addr,
		SocketDir: o.socketDir,
		WorkerCommand: func(shard int, socket string) *exec.Cmd {
			cmd := exec.Command(exe, workerArgs(fs, shard, socket)...)
			// The marker lets a test binary hosting run() recognize its own
			// re-exec and dispatch back into run() instead of the test driver;
			// the production binary ignores it.
			cmd.Env = append(os.Environ(), "RSONPATHD_WORKER=1")
			cmd.Stdout = stdout
			cmd.Stderr = stderr
			return cmd
		},
		DrainTimeout: o.drain,
		MaxBodyBytes: o.maxBody,
		Version:      o.version,
		Log:          stderr,
	})
	if err != nil {
		fmt.Fprintln(stderr, "rsonpathd:", err)
		return 1
	}
	if err := cl.Start(); err != nil {
		fmt.Fprintln(stderr, "rsonpathd:", err)
		return 1
	}
	fmt.Fprintf(stdout, "rsonpathd: listening on %s\n", cl.Addr())
	fmt.Fprintf(stdout, "rsonpathd: cluster mode, %d worker shards\n", o.shards)

	// SIGHUP fans out to the workers and revives quarantined shards.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	hupDone := make(chan struct{})
	defer close(hupDone)
	go func() {
		for {
			select {
			case <-hup:
				cl.SignalWorkers(syscall.SIGHUP)
				fmt.Fprintln(stderr, "rsonpathd: SIGHUP: flushing worker caches, reviving quarantined shards")
			case <-hupDone:
				return
			}
		}
	}()

	serveErr := make(chan error, 1)
	go func() { serveErr <- cl.Serve() }()

	select {
	case err := <-serveErr:
		if err != nil {
			fmt.Fprintln(stderr, "rsonpathd:", err)
			return 1
		}
		return 0
	case <-ctx.Done():
		fmt.Fprintf(stderr, "rsonpathd: shutting down, rolling worker drain for up to %s each\n", o.drain)
		dctx, cancel := context.WithTimeout(context.Background(), o.drain)
		defer cancel()
		if err := cl.Shutdown(dctx); err != nil {
			fmt.Fprintln(stderr, "rsonpathd: drain deadline exceeded; connections closed")
		}
		if err := <-serveErr; err != nil {
			fmt.Fprintln(stderr, "rsonpathd:", err)
			return 1
		}
		return 0
	}
}
