// Command rsonpath runs JSONPath queries over a JSON document (a file or
// standard input) and prints the matched values, offsets, or counts.
//
// Usage:
//
//	rsonpath [flags] <query> [file]
//	rsonpath [flags] -e <query> [-e <query>...] [-queries file] [file]
//
// Examples:
//
//	rsonpath '$..user.name' tweets.json
//	rsonpath -count '$.products[*].id' products.json
//	cat doc.json | rsonpath -offsets '$..url'
//	cat huge.json | rsonpath -count '$..id' -    # explicit stdin, streamed
//	rsonpath -lines '$.event' log.jsonl     # newline-delimited JSON
//	rsonpath -e '$..name' -e '$..id' products.json
//	rsonpath -queries queries.txt -count products.json
//	rsonpath -max-matches 10 '$..id' huge.json   # stop after ten matches
//	rsonpath -timeout 2s -count '$..id' huge.json    # watchdog deadline
//	rsonpath -lines -parallel 4 '$.event' log.jsonl  # worker pool
//	rsonpath -index -e '$..name' -e '$..id' products.json  # classify once, query many
//	rsonpath -explain -count '$..user.name' tweets.json  # print the execution plan
//	rsonpath -engine stackless -count '$..a..b' doc.json # pin an engine
//
// The default engine is the accelerated rsonpath engine; -engine selects
// another, and -explain prints the execution plan and its rationale to
// stderr (DESIGN.md §13).
//
// With -e or -queries the queries are compiled into a QuerySet and the
// document is scanned once for all of them; every output line is prefixed
// with the zero-based index of the query it belongs to ("2:..."). With
// -index the document is instead buffered and classified once into a
// reusable mask index (rsonpath.Index) and each query runs against the
// index in turn — the right shape when queries arrive over time rather
// than all at once.
//
// Runs over a named file (count and offsets modes) execute under the
// execution supervisor: an internal fault in the chosen engine transparently
// re-runs the query on the DOM oracle (disable with -fallback off). A run
// answered by the fallback prints a warning to stderr and exits with code 6,
// so pipelines can tell a degraded success from a clean one.
//
// Exit codes:
//
//	0  success (matching nothing is still success)
//	1  input/output failure (unreadable file, broken pipe, ...)
//	2  usage error (bad flags, bad query, unknown engine)
//	3  malformed JSON input (the byte offset is printed to stderr)
//	4  a configured resource limit was exceeded
//	5  internal error (a contained library fault; please report it)
//	6  answered, but by the DOM fallback after an internal fault
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"rsonpath"
	"rsonpath/internal/simd"
)

// Exit codes; documented in the package comment and the usage text.
const (
	exitOK        = 0
	exitIO        = 1
	exitUsage     = 2
	exitMalformed = 3
	exitLimit     = 4
	exitInternal  = 5
	exitDegraded  = 6
)

// queryList collects repeated -e flags.
type queryList []string

func (q *queryList) String() string { return strings.Join(*q, ", ") }

func (q *queryList) Set(v string) error {
	*q = append(*q, v)
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main with its environment made explicit, so the tests can drive
// the whole command without a subprocess. It returns the process exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rsonpath", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var exprs queryList
	var (
		count    = fs.Bool("count", false, "print only the number of matches")
		offsets  = fs.Bool("offsets", false, "print byte offsets instead of values")
		engine   = fs.String("engine", "rsonpath", "engine: rsonpath, surfer, ski, stackless, or dom")
		explain  = fs.Bool("explain", false, "print the chosen execution plan and its rationale per query to stderr")
		lines    = fs.Bool("lines", false, "treat input as newline-delimited JSON records (bad records are skipped with a warning)")
		qfile    = fs.String("queries", "", "file with one query per line (# comments); combined after -e queries")
		maxDepth = fs.Int("max-depth", 0, "document nesting limit (0 = default, negative = unlimited)")
		maxMatch = fs.Int("max-matches", 0, "stop with an error after this many matches (0 = unlimited)")
		maxBytes = fs.Int("max-doc-bytes", 0, "largest document size accepted, in bytes (0 = unlimited)")
		timeout  = fs.Duration("timeout", 0, "watchdog deadline per run (per record with -lines; 0 = none)")
		fallback = fs.String("fallback", "on", "degrade to the DOM oracle on internal faults: on or off")
		parallel = fs.Int("parallel", 1, "with -lines: evaluate records with this many workers (0 = GOMAXPROCS)")
		index    = fs.Bool("index", false, "with -e/-queries: buffer the document, classify it once into a reusable mask index, and evaluate each query against the index")
		simdPick = fs.String("simd", os.Getenv(simd.EnvBackend), "force a classification kernel backend (swar, avx2; default: best for this CPU, or $"+simd.EnvBackend+")")
	)
	fs.Var(&exprs, "e", "query expression (repeatable; scans the document once for all queries)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: rsonpath [flags] <query> [file]\n")
		fmt.Fprintf(stderr, "       rsonpath [flags] -e <query> [-e <query>...] [-queries file] [file]\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, "exit codes: 0 success, 1 I/O failure, 2 usage, 3 malformed input, 4 limit exceeded, 5 internal error, 6 degraded to fallback\n")
	}
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *simdPick != "" {
		if err := simd.SetBackend(*simdPick); err != nil {
			fmt.Fprintln(stderr, "rsonpath:", err)
			return exitUsage
		}
	}
	if *explain {
		fmt.Fprintf(stderr, "rsonpath: simd backend: %s (available: %s)\n",
			simd.Backend(), strings.Join(simd.Backends(), ", "))
	}

	queries := []string(exprs)
	if *qfile != "" {
		fromFile, err := readQueryFile(*qfile)
		if err != nil {
			return fail(stderr, err)
		}
		queries = append(queries, fromFile...)
	}
	multi := len(queries) > 0

	var file string
	switch {
	case multi && fs.NArg() <= 1:
		file = fs.Arg(0)
	case !multi && fs.NArg() >= 1 && fs.NArg() <= 2:
		queries = []string{fs.Arg(0)}
		file = fs.Arg(1)
	default:
		fs.Usage()
		return exitUsage
	}

	kind, err := engineKind(*engine)
	if err != nil {
		fmt.Fprintln(stderr, "rsonpath:", err)
		return exitUsage
	}
	opts := []rsonpath.Option{rsonpath.WithEngine(kind)}
	if *maxDepth != 0 {
		opts = append(opts, rsonpath.WithMaxDepth(*maxDepth))
	}
	if *maxMatch != 0 {
		opts = append(opts, rsonpath.WithMaxMatches(*maxMatch))
	}
	if *maxBytes != 0 {
		opts = append(opts, rsonpath.WithMaxDocBytes(*maxBytes))
	}
	if *timeout > 0 {
		opts = append(opts, rsonpath.WithTimeout(*timeout))
	}
	switch *fallback {
	case "on":
	case "off":
		opts = append(opts, rsonpath.WithFallback(rsonpath.FallbackOff))
	default:
		fmt.Fprintf(stderr, "rsonpath: -fallback must be on or off, not %q\n", *fallback)
		return exitUsage
	}
	if *parallel != 1 && !*lines {
		fmt.Fprintln(stderr, "rsonpath: -parallel requires -lines")
		return exitUsage
	}
	if *index && (!multi || *lines) {
		fmt.Fprintln(stderr, "rsonpath: -index requires -e/-queries and is incompatible with -lines")
		return exitUsage
	}

	var in io.Reader = stdin
	if file != "" && file != "-" {
		f, err := os.Open(file)
		if err != nil {
			return fail(stderr, err)
		}
		defer f.Close()
		in = f
	}

	out := bufio.NewWriter(stdout)
	defer out.Flush()

	if multi {
		if *lines {
			fmt.Fprintln(stderr, "rsonpath: multiple queries are not supported with -lines")
			return exitUsage
		}
		if *index {
			if err := runIndexed(queries, opts, in, out, stderr, *count, *offsets, *explain); err != nil {
				if _, bad := err.(*badQueryError); bad {
					fmt.Fprintln(stderr, "rsonpath:", err)
					return exitUsage
				}
				return fail(stderr, err)
			}
			return exitOK
		}
		set, err := rsonpath.CompileSet(queries, opts...)
		if err != nil {
			fmt.Fprintln(stderr, "rsonpath:", err)
			return exitUsage
		}
		if *explain {
			fmt.Fprintln(stderr, "rsonpath: plan:", set.Explain(rsonpath.DocStats{}))
		}
		if err := runSet(set, in, out, *count, *offsets); err != nil {
			return fail(stderr, err)
		}
		return exitOK
	}

	q, err := rsonpath.Compile(queries[0], opts...)
	if err != nil {
		fmt.Fprintln(stderr, "rsonpath:", err)
		return exitUsage
	}
	if *explain {
		// The cold-run plan: document stats are unknown before the scan.
		fmt.Fprintln(stderr, "rsonpath: plan:", q.Explain(rsonpath.DocStats{}))
	}

	if *lines {
		return runLines(q, in, out, stderr, *count, *offsets, *parallel)
	}

	if kind == rsonpath.EngineDOM {
		if err := runOneBuffered(q, in, out, *count, *offsets); err != nil {
			return fail(stderr, err)
		}
		return exitOK
	}
	if file != "" && file != "-" && (*count || *offsets) {
		// A named file can be reopened, so the degradation ladder can re-run
		// the query from the start on an internal fault.
		return runOneSupervised(q, file, out, stderr, *count)
	}
	if err := runOne(q, in, out, *count, *offsets); err != nil {
		return fail(stderr, err)
	}
	return exitOK
}

// runOneSupervised evaluates count or offsets mode over a reopenable file
// under the execution supervisor. Output is delivered only once the run
// settles; a degraded run warns on stderr and exits with exitDegraded.
func runOneSupervised(q *rsonpath.Query, path string, out *bufio.Writer, stderr io.Writer, count bool) int {
	open := func() (io.Reader, error) { return os.Open(path) }
	n := 0
	emit := func(pos int) { fmt.Fprintln(out, pos) }
	if count {
		emit = func(int) { n++ }
	}
	oc, err := q.RunReaderSupervised(context.Background(), open, emit)
	if err != nil {
		return fail(stderr, err)
	}
	if count {
		fmt.Fprintln(out, n)
	}
	if oc.Degraded() {
		fmt.Fprintf(stderr, "rsonpath: degraded to the %s oracle after %d attempt(s): %v\n",
			oc.Engine, oc.Attempts, oc.FallbackReason)
		return exitDegraded
	}
	return exitOK
}

// fail prints the error and maps it to the documented exit code. The typed
// errors carry their byte offset in the message.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "rsonpath:", err)
	var me *rsonpath.MalformedError
	var le *rsonpath.LimitError
	var ie *rsonpath.InternalError
	switch {
	case errors.As(err, &me):
		return exitMalformed
	case errors.As(err, &le):
		return exitLimit
	case errors.As(err, &ie):
		return exitInternal
	default:
		return exitIO
	}
}

// runOne streams the document through the query with memory bounded by the
// stream window, whatever the document size.
func runOne(q *rsonpath.Query, in io.Reader, out *bufio.Writer, count, offsets bool) error {
	switch {
	case count:
		n, err := q.CountReader(in)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, n)
		return nil
	case offsets:
		return q.RunReader(in, func(pos int) {
			fmt.Fprintln(out, pos)
		})
	default:
		return q.RunReaderValues(in, func(_ int, v []byte) {
			out.Write(v)
			out.WriteByte('\n')
		})
	}
}

// runOneBuffered reads the whole document first — the only mode EngineDOM
// supports.
func runOneBuffered(q *rsonpath.Query, in io.Reader, out *bufio.Writer, count, offsets bool) error {
	data, err := io.ReadAll(in)
	if err != nil {
		return err
	}
	switch {
	case count:
		n, err := q.Count(data)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, n)
	case offsets:
		offs, err := q.MatchOffsets(data)
		if err != nil {
			return err
		}
		for _, o := range offs {
			fmt.Fprintln(out, o)
		}
	default:
		var runErr error
		err := q.Run(data, func(pos int) {
			if runErr != nil {
				return
			}
			v, err := rsonpath.ValueAt(data, pos)
			if err != nil {
				runErr = err
				return
			}
			out.Write(v)
			out.WriteByte('\n')
		})
		if err != nil {
			return err
		}
		if runErr != nil {
			return runErr
		}
	}
	return nil
}

// runSet evaluates a QuerySet in one pass, tagging every output line with
// the query's index. Counts and offsets stream with bounded memory; value
// output buffers the document, since extraction needs to revisit matches
// after the shared pass has moved on.
func runSet(set *rsonpath.QuerySet, in io.Reader, out *bufio.Writer, count, offsets bool) error {
	switch {
	case count:
		counts := make([]int, set.Len())
		if err := set.RunReader(in, func(q, _ int) { counts[q]++ }); err != nil {
			return err
		}
		for i, n := range counts {
			fmt.Fprintf(out, "%d:%d\n", i, n)
		}
	case offsets:
		if err := set.RunReader(in, func(q, pos int) {
			fmt.Fprintf(out, "%d:%d\n", q, pos)
		}); err != nil {
			return err
		}
	default:
		data, err := io.ReadAll(in)
		if err != nil {
			return err
		}
		var runErr error
		err = set.Run(data, func(q, pos int) {
			if runErr != nil {
				return
			}
			v, err := rsonpath.ValueAt(data, pos)
			if err != nil {
				runErr = err
				return
			}
			fmt.Fprintf(out, "%d:", q)
			out.Write(v)
			out.WriteByte('\n')
		})
		if err != nil {
			return err
		}
		if runErr != nil {
			return runErr
		}
	}
	return nil
}

// badQueryError marks a compile failure in runIndexed so run can map it to
// the usage exit code like the other compile paths.
type badQueryError struct{ err error }

func (e *badQueryError) Error() string { return e.err.Error() }
func (e *badQueryError) Unwrap() error { return e.err }

// runIndexed buffers the whole document, classifies it once into a reusable
// mask index, and evaluates each query against the index in turn — the
// repeated-query counterpart of runSet's one shared pass. Output lines carry
// the query index prefix, like runSet.
func runIndexed(queries []string, opts []rsonpath.Option, in io.Reader, out *bufio.Writer, stderr io.Writer, count, offsets, explain bool) error {
	data, err := io.ReadAll(in)
	if err != nil {
		return err
	}
	doc, err := rsonpath.Index(data)
	if err != nil {
		return err
	}
	for i, src := range queries {
		q, err := rsonpath.Compile(src, opts...)
		if err != nil {
			return &badQueryError{fmt.Errorf("query %d (%s): %w", i, src, err)}
		}
		if explain {
			fmt.Fprintf(stderr, "rsonpath: plan %d: %s\n", i,
				q.Explain(rsonpath.DocStats{Bytes: len(data), Indexed: true}))
		}
		switch {
		case count:
			n, err := q.CountIndexed(doc)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%d:%d\n", i, n)
		case offsets:
			if err := q.RunIndexed(doc, func(pos int) {
				fmt.Fprintf(out, "%d:%d\n", i, pos)
			}); err != nil {
				return err
			}
		default:
			var runErr error
			err := q.RunIndexed(doc, func(pos int) {
				if runErr != nil {
					return
				}
				v, err := rsonpath.ValueAt(data, pos)
				if err != nil {
					runErr = err
					return
				}
				fmt.Fprintf(out, "%d:", i)
				out.Write(v)
				out.WriteByte('\n')
			})
			if err != nil {
				return err
			}
			if runErr != nil {
				return runErr
			}
		}
	}
	return nil
}

// readQueryFile loads one query per line, skipping blank lines and
// #-comments.
func readQueryFile(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var queries []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		queries = append(queries, line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return queries, nil
}

// runLines streams newline-delimited records with bounded memory, with a
// worker pool when workers != 1. A record that fails to evaluate is reported
// to stderr with its line number and skipped; a record rescued by the
// degradation ladder is reported but its matches still count. The scan
// continues either way, and the exit code reflects the worst record seen
// (malformed input wins over a tripped limit; a degraded record alone yields
// exitDegraded).
func runLines(q *rsonpath.Query, in io.Reader, out *bufio.Writer, stderr io.Writer, count, offsets bool, workers int) int {
	total := 0
	bad := 0
	degraded := 0
	code := exitOK
	visit := func(m rsonpath.LineMatch) error {
		if m.Err != nil {
			bad++
			fmt.Fprintf(stderr, "rsonpath: line %d: %v\n", m.Line, m.Err)
			if c := fail(io.Discard, m.Err); code == exitOK || code == exitDegraded || c == exitMalformed {
				code = c
			}
			return nil
		}
		if m.Outcome != nil && m.Outcome.Degraded() {
			degraded++
			fmt.Fprintf(stderr, "rsonpath: line %d: degraded to the %s oracle: %v\n",
				m.Line, m.Outcome.Engine, m.Outcome.FallbackReason)
		}
		switch {
		case count:
			total += len(m.Offsets)
		case offsets:
			for _, o := range m.Offsets {
				fmt.Fprintf(out, "%d:%d\n", m.Line, o)
			}
		default:
			for _, o := range m.Offsets {
				v, err := rsonpath.ValueAt(m.Record, o)
				if err != nil {
					return err
				}
				out.Write(v)
				out.WriteByte('\n')
			}
		}
		return nil
	}
	var err error
	if workers == 1 {
		err = q.RunLines(in, visit)
	} else {
		err = q.RunLinesParallel(in, workers, visit)
	}
	if err != nil {
		return fail(stderr, err)
	}
	if count {
		fmt.Fprintln(out, total)
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "rsonpath: %d record(s) skipped\n", bad)
	}
	if code == exitOK && degraded > 0 {
		code = exitDegraded
	}
	return code
}

// engineKind resolves the -engine flag.
func engineKind(name string) (rsonpath.EngineKind, error) {
	switch name {
	case "rsonpath":
		return rsonpath.EngineRsonpath, nil
	case "surfer":
		return rsonpath.EngineSurfer, nil
	case "ski":
		return rsonpath.EngineSki, nil
	case "stackless":
		return rsonpath.EngineStackless, nil
	case "dom":
		return rsonpath.EngineDOM, nil
	default:
		return 0, fmt.Errorf("unknown engine %q (want rsonpath, surfer, ski, stackless, or dom)", name)
	}
}
