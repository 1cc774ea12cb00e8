package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rsonpath"
)

// waitMetric polls /metrics until name reaches want or the timeout expires.
// Admission slots are released on the handler's way out, which races the
// response the client already read — polling is the honest way to assert
// "drains to zero".
func waitMetric(t *testing.T, url, name string, want int64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		got := metricValue(t, url, name)
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServeBurstOverload fires a burst far past a tiny admission gate and
// asserts the overload contract: every request is answered 200 or 429
// (never 500), 429s carry Retry-After and the "overload" error kind, the
// admission counters account for every arrival, and the gate drains to zero
// with no goroutine growth. Run under -race this is also the concurrency
// audit of the admission path.
func TestServeBurstOverload(t *testing.T) {
	before := runtime.NumGoroutine()
	s, url := startServer(t, Config{MaxConcurrency: 1, AdmissionQueue: 2, Timeout: 2 * time.Second})
	s.compileQuery = func(string) (queryRunner, error) {
		return &slowRunner{delay: 50 * time.Millisecond}, nil
	}

	const n = 24
	statuses := make([]int, n)
	bodies := make([]errorBody, n)
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := strings.NewReader(`{"query": "$.a", "document": {"a": 1}, "mode": "count"}`)
			resp, err := client.Post(url+"/v1/query", "application/json", body)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode == http.StatusTooManyRequests {
				if resp.Header.Get("Retry-After") == "" {
					t.Errorf("request %d: 429 without Retry-After", i)
				}
				json.Unmarshal(raw, &bodies[i])
			}
		}(i)
	}
	wg.Wait()

	var ok200, shed429 int
	for i, st := range statuses {
		switch st {
		case http.StatusOK:
			ok200++
		case http.StatusTooManyRequests:
			shed429++
			if bodies[i].Error.Kind != "overload" {
				t.Errorf("request %d: 429 kind = %q, want overload", i, bodies[i].Error.Kind)
			}
		case 0: // request error, already reported
		default:
			t.Errorf("request %d: status %d (the overload contract allows only 200 and 429)", i, st)
		}
	}
	if ok200 == 0 || shed429 == 0 {
		t.Fatalf("burst produced 200=%d 429=%d; want both (the gate neither admitted-all nor shed-all)", ok200, shed429)
	}

	if got := metricValue(t, url, "rsonpathd_errors_overload_total"); got != int64(shed429) {
		t.Errorf("errors_overload_total = %d, want %d", got, shed429)
	}
	admitted := metricValue(t, url, "rsonpathd_admission_admitted_total")
	shedQ := metricValue(t, url, "rsonpathd_admission_shed_queue_full_total")
	shedD := metricValue(t, url, "rsonpathd_admission_shed_deadline_total")
	if admitted != int64(ok200) {
		t.Errorf("admitted_total = %d, want %d", admitted, ok200)
	}
	if shedQ+shedD != int64(shed429) {
		t.Errorf("shed counters %d+%d do not account for %d 429s", shedQ, shedD, shed429)
	}
	waitMetric(t, url, "rsonpathd_admission_inflight_weight", 0, 2*time.Second)
	waitMetric(t, url, "rsonpathd_admission_queue_depth", 0, 2*time.Second)
	if got := metricValue(t, url, "rsonpathd_errors_internal_total"); got != 0 {
		t.Errorf("burst produced %d internal errors", got)
	}

	// Goroutine accounting: the burst must not leave workers behind.
	client.CloseIdleConnections()
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if now := runtime.NumGoroutine(); now <= before+10 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before burst, %d after", before, now)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServeSlowLoris opens a connection that sends headers and then
// dribbles nothing: with BodyReadTimeout set the daemon must cut the read,
// answer (or close), reclaim the admission slot, and keep serving others.
func TestServeSlowLoris(t *testing.T) {
	s, url := startServer(t, Config{BodyReadTimeout: 150 * time.Millisecond})
	_ = s
	addr := strings.TrimPrefix(url, "http://")

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/query?query=$.a HTTP/1.1\r\nHost: rsonpathd\r\n"+
		"Content-Type: application/json\r\nContent-Length: 4096\r\n\r\n{\"a\"")
	// Stall. The daemon's read deadline fires; it must not wait for us.
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err == nil && !strings.HasPrefix(string(buf[:n]), "HTTP/1.1 4") {
		t.Fatalf("slow-loris got a non-4xx response: %q", buf[:n])
	}

	// The slot is back and the daemon still answers clean traffic.
	waitMetric(t, url, "rsonpathd_admission_inflight_weight", 0, 2*time.Second)
	status, resp, _, _ := postQuery(t, url, queryRequest{
		Query: "$.a", Document: json.RawMessage(`{"a": 7}`), Mode: "count"})
	if status != http.StatusOK || resp.Count != 1 {
		t.Fatalf("clean request after slow-loris: status %d count %d", status, resp.Count)
	}
	if got := metricValue(t, url, "rsonpathd_errors_internal_total"); got != 0 {
		t.Errorf("slow-loris produced %d internal errors", got)
	}
}

// TestServeTornUploads sends bodies that die mid-transfer (declared length
// never delivered) and asserts the daemon sheds them as client errors —
// never 500s — drains every admission slot, and keeps serving.
func TestServeTornUploads(t *testing.T) {
	s, url := startServer(t, Config{})
	_ = s
	addr := strings.TrimPrefix(url, "http://")
	for i := 0; i < 5; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "POST /v1/query?query=$.a HTTP/1.1\r\nHost: rsonpathd\r\n"+
			"Content-Type: application/json\r\nContent-Length: 1000\r\n\r\n{\"a\": 1")
		conn.Close() // torn: 992 declared bytes never arrive
	}

	waitMetric(t, url, "rsonpathd_admission_inflight_weight", 0, 2*time.Second)
	if got := metricValue(t, url, "rsonpathd_errors_internal_total"); got != 0 {
		t.Errorf("torn uploads produced %d internal errors", got)
	}
	status, resp, _, _ := postQuery(t, url, queryRequest{
		Query: "$.a", Document: json.RawMessage(`{"a": 7}`), Mode: "count"})
	if status != http.StatusOK || resp.Count != 1 {
		t.Fatalf("clean request after torn uploads: status %d count %d", status, resp.Count)
	}
}

// TestServeDeclaredTooLarge asserts the body cap is enforced before any
// read: a Content-Length over the limit is 413 without the upload being
// consumed (the "body" here is never sent).
func TestServeDeclaredTooLarge(t *testing.T) {
	s, url := startServer(t, Config{MaxBodyBytes: 64})
	_ = s
	addr := strings.TrimPrefix(url, "http://")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Declare 1 MB, send nothing: the verdict must arrive anyway.
	fmt.Fprintf(conn, "POST /v1/query?query=$.a HTTP/1.1\r\nHost: rsonpathd\r\n"+
		"Content-Type: application/json\r\nContent-Length: 1048576\r\n\r\n")
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	rd := bufio.NewReader(conn)
	line, err := rd.ReadString('\n')
	if err != nil {
		t.Fatalf("no response to oversized declaration: %v", err)
	}
	if !strings.Contains(line, "413") {
		t.Fatalf("status line %q, want 413", strings.TrimSpace(line))
	}
}

// TestServeNDJSONTooLarge pins the NDJSON path's oversize mapping: the body
// limit surfaces mid-read there (the engine owns the reader), and must
// still be a 413 "limit" — not an internal 500.
func TestServeNDJSONTooLarge(t *testing.T) {
	s, url := startServer(t, Config{MaxBodyBytes: 64})
	_ = s
	body := strings.Repeat(`{"a": 1}`+"\n", 40) // 360 bytes against a 64-byte cap
	resp, err := http.Post(url+"/v1/query?query=$.a", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || eb.Error.Kind != "limit" {
		t.Fatalf("status %d kind %q, want 413 limit", resp.StatusCode, eb.Error.Kind)
	}
	if got := metricValue(t, url, "rsonpathd_errors_internal_total"); got != 0 {
		t.Errorf("oversized NDJSON counted as %d internal errors", got)
	}
}

// TestServeHealthzQueueFull pins the overload report the gate drives: with
// the one slot held and the one queue place taken, /healthz answers 200
// "overloaded", the next arrival is shed with 429 and Retry-After: 1, and
// the report returns to "ok" once the held work drains.
func TestServeHealthzQueueFull(t *testing.T) {
	s, url := startServer(t, Config{MaxConcurrency: 1, AdmissionQueue: 1})
	hold := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(hold) }) }
	t.Cleanup(unblock) // runs before the server's drain, which would wait on hold
	s.compileQuery = func(string) (queryRunner, error) {
		<-hold // compile runs after admission, so this holds the slot
		return &plainRunner{engine: "rsonpath", offsets: []int{6}}, nil
	}

	waitStatus := func(want string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			resp, err := http.Get(url + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			var rep healthReport
			err = json.NewDecoder(resp.Body).Decode(&rep)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode == http.StatusOK && rep.Status == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("healthz never answered 200 %q: status %d %+v", want, resp.StatusCode, rep)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	const body = `{"query": "$.a", "document": {"a": 7}, "mode": "count"}`
	statuses := make(chan int, 2)
	post := func() {
		resp, err := http.Post(url+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Errorf("post: %v", err)
			statuses <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		statuses <- resp.StatusCode
	}

	go post() // takes the slot and parks in compile
	waitMetric(t, url, "rsonpathd_admission_inflight_weight", 1, 5*time.Second)
	go post() // parks in the wait queue
	waitStatus("overloaded")

	status, _, eb, hdr := postQuery(t, url, queryRequest{
		Query: "$.a", Document: json.RawMessage(`{"a": 7}`), Mode: "count"})
	if status != http.StatusTooManyRequests || hdr.Get("Retry-After") != "1" || eb.Error.Kind != "overload" {
		t.Fatalf("arrival at a full queue: status %d Retry-After %q kind %q, want 429, 1, overload",
			status, hdr.Get("Retry-After"), eb.Error.Kind)
	}

	unblock()
	for i := 0; i < 2; i++ {
		if st := <-statuses; st != http.StatusOK {
			t.Errorf("held request %d: status %d, want 200", i, st)
		}
	}
	waitStatus("ok")
}

// plainRunner is a trivial compile-seam fake: clean runs on a named engine.
type plainRunner struct {
	engine  string
	offsets []int
}

func (p *plainRunner) RunSupervised(_ context.Context, _ []byte, emit func(pos int)) (rsonpath.Outcome, error) {
	for _, pos := range p.offsets {
		emit(pos)
	}
	return rsonpath.Outcome{Attempts: 1, Engine: p.engine}, nil
}

func (p *plainRunner) RunIndexedSupervised(_ context.Context, doc *rsonpath.IndexedDocument, emit func(pos int)) (rsonpath.Outcome, error) {
	return p.RunSupervised(nil, doc.Bytes(), emit)
}

func (p *plainRunner) RunContext(_ context.Context, _ []byte, emit func(pos int)) error {
	for _, pos := range p.offsets {
		emit(pos)
	}
	return nil
}

func (p *plainRunner) RunLinesParallel(io.Reader, int, func(m rsonpath.LineMatch) error) error {
	return nil
}

func (p *plainRunner) Explain(rsonpath.DocStats) rsonpath.Plan {
	return rsonpath.Plan{Strategy: "scan", Engine: rsonpath.EngineRsonpath, Rule: "test-fake"}
}

// blockingRunner emits one match, then parks until released — the streaming
// proof: the client must hold the first frame while the run is still
// provably in flight.
type blockingRunner struct {
	emitted chan struct{} // closed after the first emit
	release chan struct{} // the run blocks here before finishing
}

func (b *blockingRunner) RunContext(_ context.Context, _ []byte, emit func(pos int)) error {
	emit(1)
	close(b.emitted)
	<-b.release
	emit(5)
	return nil
}

func (b *blockingRunner) RunSupervised(context.Context, []byte, func(pos int)) (rsonpath.Outcome, error) {
	return rsonpath.Outcome{}, errors.New("buffered path must not be used")
}

func (b *blockingRunner) RunIndexedSupervised(context.Context, *rsonpath.IndexedDocument, func(pos int)) (rsonpath.Outcome, error) {
	return rsonpath.Outcome{}, errors.New("buffered path must not be used")
}

func (b *blockingRunner) RunLinesParallel(io.Reader, int, func(m rsonpath.LineMatch) error) error {
	return errors.New("buffered path must not be used")
}

func (b *blockingRunner) Explain(rsonpath.DocStats) rsonpath.Plan {
	return rsonpath.Plan{Strategy: "scan", Engine: rsonpath.EngineRsonpath, Rule: "test-fake"}
}

// TestServeStreamFirstByte proves streamed responses deliver the first
// frame before the evaluation finishes: the run parks after its first emit,
// and the client reads that frame while the run is still parked.
func TestServeStreamFirstByte(t *testing.T) {
	s, url := startServer(t, Config{})
	br := &blockingRunner{emitted: make(chan struct{}), release: make(chan struct{})}
	s.compileQuery = func(string) (queryRunner, error) { return br, nil }

	client := &http.Client{Transport: &http.Transport{ResponseHeaderTimeout: 5 * time.Second}}
	resp, err := client.Post(url+"/v1/query?query=$.*&stream=1", "application/json",
		strings.NewReader(`[10, 20]`))
	if err != nil {
		t.Fatalf("streamed post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	rd := bufio.NewReader(resp.Body)
	line, err := rd.ReadString('\n')
	if err != nil {
		t.Fatalf("first frame: %v", err)
	}
	if strings.TrimSpace(line) != `{"value":10}` {
		t.Fatalf("first frame %q", strings.TrimSpace(line))
	}
	// The frame arrived while the run is parked: first byte beat the
	// evaluation's end by construction. emitted closes only after the first
	// emit has flushed the frame, so the client may read it a moment before
	// the close: wait for it rather than poll.
	select {
	case <-br.emitted:
	case <-time.After(5 * time.Second):
		t.Fatal("the run never returned from its first emit")
	}
	select {
	case <-br.release:
		t.Fatal("release closed early")
	default:
	}

	close(br.release)
	if line, err = rd.ReadString('\n'); err != nil || strings.TrimSpace(line) != `{"value":20}` {
		t.Fatalf("second frame %q, %v", strings.TrimSpace(line), err)
	}
	line, err = rd.ReadString('\n')
	if err != nil {
		t.Fatalf("done trailer: %v", err)
	}
	var fr streamFrame
	if err := json.Unmarshal([]byte(line), &fr); err != nil || fr.Done == nil || fr.Done.Count != 2 {
		t.Fatalf("done trailer %q: %v", strings.TrimSpace(line), err)
	}
	if got := metricValue(t, url, "rsonpathd_streamed_responses_total"); got != 1 {
		t.Errorf("streamed_responses_total = %d, want 1", got)
	}
}

// TestServeStreamLargeResult streams a result set far larger than the write
// buffer and asserts (a) completeness — every match arrives, then the done
// trailer — and (b) bounded memory: the daemon's heap peak stays well under
// what buffering the response (offsets slice + one giant marshal) would
// cost. The threshold is generous; the buffered path at this scale measured
// several times higher.
func TestServeStreamLargeResult(t *testing.T) {
	const n = 1 << 21 // ~2M matches, ~4 MB document
	var sb strings.Builder
	sb.Grow(2*n + 2)
	sb.WriteByte('[')
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteByte('7')
	}
	sb.WriteByte(']')
	doc := sb.String()

	s, url := startServer(t, Config{})
	_ = s

	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stop := make(chan struct{})
	samplerDone := make(chan struct{})
	var peak uint64
	go func() {
		defer close(samplerDone)
		var m runtime.MemStats
		for {
			select {
			case <-stop:
				return
			default:
				runtime.ReadMemStats(&m)
				if m.HeapAlloc > peak {
					peak = m.HeapAlloc
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()

	resp, err := http.Post(url+"/v1/query?query=$.*&stream=1&mode=offsets", "application/json",
		strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	frames := 0
	var done *streamDone
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<10)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"done"`)) || bytes.Contains(line, []byte(`"error"`)) {
			var fr streamFrame
			if err := json.Unmarshal(line, &fr); err != nil {
				t.Fatal(err)
			}
			if fr.Error != nil {
				t.Fatalf("error trailer: %+v", fr.Error)
			}
			done = fr.Done
			continue
		}
		frames++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-samplerDone

	if done == nil || done.Count != n || frames != n {
		t.Fatalf("stream incomplete: frames=%d done=%+v, want %d", frames, done, n)
	}
	// Buffering this response means an n-entry offsets slice plus its JSON
	// marshal (>40 MB live at once); the streamed path holds the document
	// and a 32 KiB write buffer.
	const budget = 40 << 20
	if delta := int64(peak) - int64(m0.HeapAlloc); delta > budget {
		t.Errorf("heap peak grew %d bytes during streaming (budget %d): response is being buffered", delta, int64(budget))
	}
}
