package rsonpath

// Edge cases and a differential fuzzer for the lines family's chunked
// reader: every entry point must deliver exactly what a record-wise
// reference delivers — split on newlines, trimmed of JSON whitespace, each
// record its own RunSupervised — however the input is torn, wherever the
// chunk cuts fall, and whatever the records contain.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"rsonpath/internal/input"
)

// visited is one visit call flattened for exact comparison: the error's
// text pins its class, kind and offset.
type visited struct {
	line     int
	record   string
	offsets  string
	err      string
	degraded bool
	engine   string
}

func visitOf(line int, record []byte, offsets any, err error, oc *Outcome) visited {
	v := visited{line: line, record: string(record), offsets: fmt.Sprint(offsets),
		degraded: oc.Degraded(), engine: oc.Engine}
	if err != nil {
		v.err = err.Error()
	}
	return v
}

// jsonSpace is the whitespace JSON allows around a record; newline is the
// separator.
const jsonSpace = " \t\r"

// recordwise is the reference for the Query lines family.
func recordwise(q *Query, data []byte) []visited {
	var out []visited
	for i, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		record := bytes.Trim(line, jsonSpace)
		if len(record) == 0 {
			continue
		}
		var offs []int
		oc, err := q.RunSupervised(context.Background(), record, func(pos int) { offs = append(offs, pos) })
		if err != nil {
			offs = nil
		}
		if err == nil && len(offs) == 0 && !oc.Degraded() {
			continue
		}
		out = append(out, visitOf(i+1, record, offs, err, &oc))
	}
	return out
}

// recordwiseSet is the reference for the QuerySet lines family.
func recordwiseSet(s *QuerySet, data []byte) []visited {
	var out []visited
	for i, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		record := bytes.Trim(line, jsonSpace)
		if len(record) == 0 {
			continue
		}
		var offs [][]int
		oc, err := s.RunSupervised(context.Background(), record, func(q, pos int) {
			if offs == nil {
				offs = make([][]int, s.Len())
			}
			offs[q] = append(offs[q], pos)
		})
		if err != nil {
			offs = nil
		}
		if err == nil && offs == nil && !oc.Degraded() {
			continue
		}
		out = append(out, visitOf(i+1, record, offs, err, &oc))
	}
	return out
}

func collectVisits(t *testing.T, run func(visit func(m LineMatch) error) error) []visited {
	t.Helper()
	var out []visited
	if err := run(func(m LineMatch) error {
		out = append(out, visitOf(m.Line, m.Record, m.Offsets, m.Err, m.Outcome))
		return nil
	}); err != nil {
		t.Fatalf("lines run: %v", err)
	}
	return out
}

func collectSetVisits(t *testing.T, run func(visit func(m SetLineMatch) error) error) []visited {
	t.Helper()
	var out []visited
	if err := run(func(m SetLineMatch) error {
		out = append(out, visitOf(m.Line, m.Record, m.Offsets, m.Err, m.Outcome))
		return nil
	}); err != nil {
		t.Fatalf("set lines run: %v", err)
	}
	return out
}

func diffVisits(t *testing.T, name string, got, want []visited) {
	t.Helper()
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(got):
			t.Fatalf("%s: visit %d missing, want %+v", name, i, want[i])
		case i >= len(want):
			t.Fatalf("%s: extra visit %d: %+v", name, i, got[i])
		case got[i] != want[i]:
			t.Fatalf("%s: visit %d = %+v, want %+v", name, i, got[i], want[i])
		}
	}
}

// tornReader returns its data in pieces cut at random points.
type tornReader struct {
	data []byte
	rng  *rand.Rand
}

func (r *tornReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := 1 + r.rng.Intn(min(len(p), len(r.data)))
	n = copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// tearings are the readers every lines entry point is fed through.
var tearings = []struct {
	name string
	open func(data []byte, seed int64) io.Reader
}{
	{"whole", func(data []byte, _ int64) io.Reader { return bytes.NewReader(data) }},
	{"onebyte", func(data []byte, _ int64) io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) }},
	{"half", func(data []byte, _ int64) io.Reader { return iotest.HalfReader(bytes.NewReader(data)) }},
	{"torn", func(data []byte, seed int64) io.Reader {
		return &tornReader{data: data, rng: rand.New(rand.NewSource(seed))}
	}},
}

// checkLinesRecordwise runs every lines entry point over data, read through
// the tearing, and compares each with the record-wise reference.
func checkLinesRecordwise(t *testing.T, data []byte, tearing int, seed int64) {
	q := MustCompile("$..a")
	s := MustCompileSet([]string{"$..a", "$.b", "$[*]"})
	want, wantSet := recordwise(q, data), recordwiseSet(s, data)
	name := tearings[tearing].name
	open := func() io.Reader { return tearings[tearing].open(data, seed) }
	diffVisits(t, name+"/RunLines", collectVisits(t, func(v func(LineMatch) error) error {
		return q.RunLines(open(), v)
	}), want)
	diffVisits(t, name+"/QuerySet.RunLines", collectSetVisits(t, func(v func(SetLineMatch) error) error {
		return s.RunLines(open(), v)
	}), wantSet)
	for _, workers := range []int{1, 2, 4} {
		diffVisits(t, fmt.Sprintf("%s/RunLinesParallel(%d)", name, workers),
			collectVisits(t, func(v func(LineMatch) error) error {
				return q.RunLinesParallel(open(), workers, v)
			}), want)
		diffVisits(t, fmt.Sprintf("%s/QuerySet.RunLinesParallel(%d)", name, workers),
			collectSetVisits(t, func(v func(SetLineMatch) error) error {
				return s.RunLinesParallel(open(), workers, v)
			}), wantSet)
	}
}

// padRecords writes records of about size bytes each until the stream
// holds at least total bytes.
func padRecords(sb *strings.Builder, size, total int) {
	for i := 0; sb.Len() < total; i++ {
		pad := strings.Repeat("x", max(size-40, 0))
		fmt.Fprintf(sb, `{"a": %d, "pad": "%s", "b": {"a": [%d]}}`+"\n", i, pad, i)
	}
}

func linesSeeds() [][]byte {
	var straddle, large, huge strings.Builder
	// Records of 1000 bytes put the 64 KiB cut inside the 66th record.
	padRecords(&straddle, 1000, 3*chunkSize)
	padRecords(&large, 100, chunkSize/2)
	padRecords(&large, 3*chunkSize/2, 2*chunkSize)
	padRecords(&large, 100, 3*chunkSize)
	padRecords(&huge, 100, chunkSize)
	padRecords(&huge, DefaultStreamWindow+4096, 2*DefaultStreamWindow)
	padRecords(&huge, 100, 2*DefaultStreamWindow+chunkSize)
	return [][]byte{
		[]byte(straddle.String()),
		[]byte(large.String()),
		[]byte(huge.String()),
		[]byte("{\"a\": \"unterminated\n{\"a\": 1}\n{\"b\": {\"a\": 2}}\n"),
		[]byte("{\"a\": 1}\r\n\r\n  \t\n{\"a\": [2, 3]}\r\n\n{\"b\": 4}"),
		[]byte(" {\"a\": 1} \n\t[{\"a\": 2}]\t\r\n {\"a\": 3}\n\v{\"a\": 4}\f\n"),
		[]byte("\n\n"),
		[]byte("{\"a\": [1, 2}\n[1, 2]\n{\"a\": {\"a\": {\"a\": 5}}}"),
	}
}

// TestLinesRecordwiseSeeds runs the fuzzer's seed corpus through every
// tearing as a plain test, so the large seeds are checked on every run.
func TestLinesRecordwiseSeeds(t *testing.T) {
	for i, data := range linesSeeds() {
		for tearing := range tearings {
			t.Run(fmt.Sprint(i, tearings[tearing].name), func(t *testing.T) {
				checkLinesRecordwise(t, data, tearing, int64(i))
			})
		}
	}
}

// FuzzLinesRecordwise is the differential property of the chunked lines
// family: RunLines, RunLinesParallel at 1, 2 and 4 workers and the QuerySet
// pair, fed through a torn reader the seed picks, deliver exactly the
// record-wise reference's visits — lines, records, offsets, errors and
// outcomes.
func FuzzLinesRecordwise(f *testing.F) {
	for i, data := range linesSeeds() {
		f.Add(data, int64(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) > 1<<20 {
			return
		}
		checkLinesRecordwise(t, data, int(uint64(seed)%uint64(len(tearings))), seed)
	})
}

// TestLinesTrimOnlyJSONWhitespace: a record padded with whitespace JSON
// does not allow is the same malformed document Count and the oracle see,
// while space, tab and CRLF padding stay invisible.
func TestLinesTrimOnlyJSONWhitespace(t *testing.T) {
	q := MustCompile("$.a")
	oracle := MustCompile("$.a", WithEngine(EngineDOM))
	for _, pad := range []string{"\u00a0", "\v", "\f", "\u0085"} {
		record := pad + `{"a": 1}` + pad
		_, countErr := q.Count([]byte(record))
		_, oracleErr := oracle.Count([]byte(record))
		var me *MalformedError
		if !errors.As(countErr, &me) || !errors.As(oracleErr, &me) {
			t.Fatalf("%q: Count %v, oracle %v; want both malformed", pad, countErr, oracleErr)
		}
		total, failures, err := q.CountLines(strings.NewReader(record + "\n"))
		if err != nil || total != 0 || len(failures) != 1 {
			t.Fatalf("%q: CountLines = %d, %v, %v; want one failed record", pad, total, failures, err)
		}
		if failures[0].Err.Error() != countErr.Error() {
			t.Fatalf("%q: lines error %v, Count error %v", pad, failures[0].Err, countErr)
		}
	}
	total, failures, err := q.CountLines(strings.NewReader(" {\"a\": 1}\t\r\n\t{\"a\": 2} \r\n"))
	if err != nil || total != 2 || len(failures) != 0 {
		t.Fatalf("CRLF and JSON padding: CountLines = %d, %v, %v; want 2 matches", total, failures, err)
	}
}

// TestRunLinesTrickle: a writer that sends one record and waits until visit
// has seen it before sending the next. A chunker that waits for a full
// buffer would deadlock here.
func TestRunLinesTrickle(t *testing.T) {
	q := MustCompile("$.a")
	for _, workers := range []int{0, 1, 2} {
		pr, pw := io.Pipe()
		seen := make(chan int)
		go func() {
			for i := 1; i <= 3; i++ {
				fmt.Fprintf(pw, `{"a": %d}`+"\n", i)
				select {
				case <-seen:
				case <-time.After(5 * time.Second):
					pw.CloseWithError(errors.New("visit never saw the record"))
					return
				}
			}
			pw.Close()
		}()
		visit := func(m LineMatch) error {
			seen <- m.Line
			return nil
		}
		done := make(chan error, 1)
		go func() {
			if workers == 0 {
				done <- q.RunLines(pr, visit)
			} else {
				done <- q.RunLinesParallel(pr, workers, visit)
			}
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("workers=%d: lines scan hung on a trickling source", workers)
		}
	}
}

// TestRunLinesReadErrorAfterPartialRecord: every record read before a
// reader error — the partial last one included — is delivered before the
// error is returned.
func TestRunLinesReadErrorAfterPartialRecord(t *testing.T) {
	boom := errors.New("stream torn")
	q := MustCompile("$.a")
	s := MustCompileSet([]string{"$.a"})
	for _, tail := range []string{`{"a": 2}`, `{"a": `} {
		open := func() io.Reader {
			return io.MultiReader(strings.NewReader(`{"a": 1}`+"\n"+tail), errReader{err: boom})
		}
		runs := map[string]func(visit func(line int, err error)) error{
			"RunLines": func(v func(int, error)) error {
				return q.RunLines(open(), func(m LineMatch) error { v(m.Line, m.Err); return nil })
			},
			"RunLinesParallel": func(v func(int, error)) error {
				return q.RunLinesParallel(open(), 2, func(m LineMatch) error { v(m.Line, m.Err); return nil })
			},
			"QuerySet.RunLines": func(v func(int, error)) error {
				return s.RunLines(open(), func(m SetLineMatch) error { v(m.Line, m.Err); return nil })
			},
			"QuerySet.RunLinesParallel": func(v func(int, error)) error {
				return s.RunLinesParallel(open(), 2, func(m SetLineMatch) error { v(m.Line, m.Err); return nil })
			},
		}
		for name, run := range runs {
			var lines []int
			var lastErr error
			err := run(func(line int, err error) { lines, lastErr = append(lines, line), err })
			if !errors.Is(err, boom) {
				t.Fatalf("%s %q: err %v, want the stream error", name, tail, err)
			}
			if fmt.Sprint(lines) != "[1 2]" {
				t.Fatalf("%s %q: lines %v, want both records before the tear", name, tail, lines)
			}
			var me *MalformedError
			if malformed := errors.As(lastErr, &me); malformed != (tail == `{"a": `) {
				t.Fatalf("%s %q: partial record's error %v", name, tail, lastErr)
			}
		}
	}
}

// TestLinesExpiredDeadline: a deadline that has passed before a record
// starts fails that record with the caller's verdict — never the ladder.
func TestLinesExpiredDeadline(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&sb, `{"a": %d}`+"\n", i)
	}
	q := MustCompile("$.a", WithTimeout(time.Nanosecond))
	s := MustCompileSet([]string{"$.a"}, WithTimeout(time.Nanosecond))
	check := func(name string, line int, err error, oc *Outcome) {
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s line %d: err %v, want ErrCanceled and context.DeadlineExceeded", name, line, err)
		}
		if oc.Degraded() || oc.Attempts != 1 {
			t.Fatalf("%s line %d: outcome %+v, want one undegraded attempt", name, line, oc)
		}
	}
	for _, workers := range []int{0, 2} {
		name := fmt.Sprintf("workers=%d", workers)
		n := 0
		visit := func(m LineMatch) error { n++; check(name, m.Line, m.Err, m.Outcome); return nil }
		setVisit := func(m SetLineMatch) error { n++; check("set "+name, m.Line, m.Err, m.Outcome); return nil }
		var errs []error
		if workers == 0 {
			errs = append(errs, q.RunLines(strings.NewReader(sb.String()), visit),
				s.RunLines(strings.NewReader(sb.String()), setVisit))
		} else {
			errs = append(errs, q.RunLinesParallel(strings.NewReader(sb.String()), workers, visit),
				s.RunLinesParallel(strings.NewReader(sb.String()), workers, setVisit))
		}
		if err := errors.Join(errs...); err != nil || n != 100 {
			t.Fatalf("%s: %d visits, err %v; want every record of both scans to fail", name, n, err)
		}
	}
}

// stallRunner delays the first match of every run until the run's deadline
// has passed, so only a run that observes its context mid-run stops early.
type stallRunner struct {
	inner runner
	stall time.Duration
}

func (r *stallRunner) hook(emit func(pos int)) func(pos int) {
	first := true
	return func(pos int) {
		if first {
			first = false
			time.Sleep(r.stall)
		}
		emit(pos)
	}
}

func (r *stallRunner) Run(data []byte, emit func(pos int)) error {
	return r.inner.Run(data, r.hook(emit))
}

func (r *stallRunner) RunInput(in input.Input, emit func(pos int)) error {
	return r.inner.(inputRunner).RunInput(in, r.hook(emit))
}

// TestLinesWindowedRecordDeadline: a record larger than the stream window
// still gets a context carrying its deadline and stops at the next window
// refill after it passes, while its small neighbour, which gets no timer,
// still completes under its own deadline.
func TestLinesWindowedRecordDeadline(t *testing.T) {
	const window = 4096
	big := `{"a": [` + strings.Repeat("1, ", 8*window) + `1]}`
	data := big + "\n" + `{"a": [1]}` + "\n"
	for _, workers := range []int{0, 2} {
		q := MustCompile("$.a[*]", WithStreamWindow(window), WithTimeout(50*time.Millisecond))
		q.run = &stallRunner{inner: q.run, stall: 100 * time.Millisecond}
		var got []visited
		visit := func(m LineMatch) error {
			got = append(got, visitOf(m.Line, nil, len(m.Offsets), m.Err, m.Outcome))
			if m.Line == 1 && (!errors.Is(m.Err, ErrCanceled) || !errors.Is(m.Err, context.DeadlineExceeded)) {
				t.Errorf("workers=%d: windowed record err %v, want its deadline", workers, m.Err)
			}
			return nil
		}
		var err error
		if workers == 0 {
			err = q.RunLines(strings.NewReader(data), visit)
		} else {
			err = q.RunLinesParallel(strings.NewReader(data), workers, visit)
		}
		if err != nil || len(got) != 2 || got[0].degraded || got[1].err != "" || got[1].offsets != "1" {
			t.Fatalf("workers=%d: err %v, visits %+v; want the big record stopped and the small one matched", workers, err, got)
		}
	}
}

// TestLinesVisitPanicNoLeak: a panicking visit unwinds through the pool,
// whose deferred cancellation must still wind down the dispatcher and the
// workers.
func TestLinesVisitPanicNoLeak(t *testing.T) {
	var sb strings.Builder
	padRecords(&sb, 100, 8*chunkSize)
	before := runtime.NumGoroutine()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("visit panic did not propagate")
			}
		}()
		MustCompile("$.a").RunLinesParallel(strings.NewReader(sb.String()), 2, func(LineMatch) error {
			panic("visit fault")
		})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines %d after a visit panic, %d before", n, before)
	}
}
