package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ghostbusters/internal/hspan"
	"ghostbusters/internal/obs"
)

// traceTree fetches a job's trace and reconstructs the span forest.
func traceTree(t *testing.T, ts *httptest.Server, id string) []*hspan.Node {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Job-Id"); got != id {
		t.Fatalf("trace X-Job-Id = %q, want %q", got, id)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("trace response has no X-Request-Id")
	}
	recs, err := hspan.ParseJSONL(resp.Body)
	if err != nil {
		t.Fatalf("parsing trace: %v", err)
	}
	return hspan.BuildTree(recs)
}

// requireChild finds exactly-one child span by name under a node.
func requireChild(t *testing.T, n *hspan.Node, name string) *hspan.Node {
	t.Helper()
	var found *hspan.Node
	for _, c := range n.Children {
		if c.Name == name {
			if found != nil {
				t.Fatalf("span %q has multiple %q children", n.Name, name)
			}
			found = c
		}
	}
	if found == nil {
		names := make([]string, 0, len(n.Children))
		for _, c := range n.Children {
			names = append(names, c.Name)
		}
		t.Fatalf("span %q has no %q child (children: %v)", n.Name, name, names)
	}
	return found
}

// hotProg loops long enough for its block to cross the translation
// threshold, so the attempt span carries a translate/execute split
// (quickProg is interpreted end to end and never translates).
const hotProg = `
main:
	li s1, 0
	li s2, 20000
loop:
	addi s1, s1, 1
	blt s1, s2, loop
	li a0, 5
	ecall
`

// TestTraceReplayAfterCompletion proves the replay path: a finished
// job's trace is the complete span tree — admission, queue wait, the
// cell and its attempt with the translate/execute split — terminated
// by the root record, and a second fetch replays it identically.
func TestTraceReplayAfterCompletion(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, st := postJob(t, ts, JobRequest{Tenant: "alice", Kind: KindRun, Program: hotProg}, "?wait=1")
	if resp.StatusCode != http.StatusAccepted || st.State != StateDone {
		t.Fatalf("job = %d %+v", resp.StatusCode, st)
	}
	if got := resp.Header.Get("X-Job-Id"); got != st.ID {
		t.Fatalf("submit X-Job-Id = %q, want %q", got, st.ID)
	}
	if got := resp.Header.Get("X-Tenant"); got != "alice" {
		t.Fatalf("submit X-Tenant = %q", got)
	}

	for fetch := 0; fetch < 2; fetch++ {
		roots := traceTree(t, ts, st.ID)
		if len(roots) != 1 || roots[0].Name != "job" {
			t.Fatalf("fetch %d: got %d roots, want one job span", fetch, len(roots))
		}
		root := roots[0]
		if a, ok := root.Attr("tenant"); !ok || a.Str != "alice" {
			t.Fatalf("root tenant attr = %+v", a)
		}
		if a, ok := root.Attr("state"); !ok || a.Str != StateDone {
			t.Fatalf("root state attr = %+v, want done", a)
		}
		requireChild(t, root, "admission")
		qw := requireChild(t, root, "queue-wait")
		if qw.End < qw.Start {
			t.Fatalf("queue-wait span runs backwards: %d..%d", qw.Start, qw.End)
		}
		// A run job is a one-cell matrix: its attempt hangs off the
		// cell span, exactly as a sweep's do.
		cell := requireChild(t, root, "cell")
		if a, ok := cell.Attr("bench"); !ok || a.Str != "program" {
			t.Fatalf("cell bench attr = %+v, want program", a)
		}
		if a, ok := cell.Attr("mode"); !ok || a.Str != "unsafe" {
			t.Fatalf("cell mode attr = %+v, want unsafe", a)
		}
		at := requireChild(t, cell, "attempt")
		if a, ok := at.Attr("outcome"); !ok || a.Str != "ok" {
			t.Fatalf("attempt outcome = %+v", a)
		}
		tr := requireChild(t, at, "translate")
		ex := requireChild(t, at, "execute")
		if tr.End != ex.Start {
			t.Fatalf("translate/execute not consecutive: translate ends %d, execute starts %d", tr.End, ex.Start)
		}
		if _, ok := ex.Attr("cycles"); !ok {
			t.Fatal("execute span has no cycles attr")
		}
	}
}

// TestTraceLiveStream opens the trace while the job is still running:
// the stream must deliver the buffered prefix immediately, stay open,
// then terminate on its own once the root record lands.
func TestTraceLiveStream(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()

	s := newTestServer(t, nil)
	s.testHookBeforeRun = func(*Job) { <-gate }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, st := postJob(t, ts, JobRequest{Tenant: "bob", Kind: KindRun, Program: quickProg}, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}

	tr, err := ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	sc := bufio.NewScanner(tr.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)

	// Header plus the admission record are available before the job has
	// run at all (the worker is gated).
	if !sc.Scan() {
		t.Fatalf("no header line: %v", sc.Err())
	}
	if !strings.Contains(sc.Text(), obs.SpanSchema) {
		t.Fatalf("header %q does not carry the schema", sc.Text())
	}
	if !sc.Scan() {
		t.Fatalf("no first record: %v", sc.Err())
	}
	if !strings.Contains(sc.Text(), `"admission"`) {
		t.Fatalf("first record %q, want the admission span", sc.Text())
	}

	// Release the worker; the stream must terminate with the root last.
	release()
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("stream ended without further records")
	}
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"name":"job"`) {
		t.Fatalf("last record %q, want the job root span", last)
	}
}

// TestTraceCanceledJob: a job canceled before it ran still yields a
// complete, terminated trace whose root carries the canceled state.
func TestTraceCanceledJob(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()

	// One worker, gated: the second job is guaranteed to be canceled
	// while still queued.
	s := newTestServer(t, func(c *Config) { c.Workers = 1 })
	s.testHookBeforeRun = func(*Job) { <-gate }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, first := postJob(t, ts, JobRequest{Tenant: "carol", Kind: KindRun, Program: quickProg}, "")
	_, second := postJob(t, ts, JobRequest{Tenant: "carol", Kind: KindRun, Program: quickProg}, "")

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+second.ID, nil)
	dresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	release()

	for _, id := range []string{first.ID, second.ID} {
		j := s.lookup(id)
		waitJob(t, s, j)
	}

	roots := traceTree(t, ts, second.ID)
	if len(roots) != 1 {
		t.Fatalf("canceled job: %d roots, want 1", len(roots))
	}
	root := roots[0]
	if a, ok := root.Attr("state"); !ok || a.Str != StateCanceled {
		t.Fatalf("canceled root state attr = %+v", a)
	}
	qw := requireChild(t, root, "queue-wait")
	if a, ok := qw.Attr("outcome"); !ok || a.Str != "canceled" {
		t.Fatalf("queue-wait outcome = %+v, want canceled", a)
	}
}

// TestTraceNotFound: unknown job IDs 404 like every other job route.
func TestTraceNotFound(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, _ := getBody(t, ts, "/v1/jobs/j-999999/trace"); code != http.StatusNotFound {
		t.Fatalf("missing job trace = %d, want 404", code)
	}
}

// TestTraceConcurrent runs many jobs on an 8-worker fleet with a live
// trace reader per job — the lock discipline (s.mu vs the per-job span
// lock) is the real subject; run it under -race.
func TestTraceConcurrent(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Workers = 8
		c.QueueDepth = 64
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const jobs = 24
	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", i%4)
			j, _, aerr := s.admit(JobRequest{Tenant: tenant, Kind: KindRun, Program: quickProg})
			if aerr != nil {
				errs <- fmt.Errorf("admit: %v", aerr)
				return
			}
			resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + j.ID + "/trace")
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			recs, err := hspan.ParseJSONL(resp.Body)
			if err != nil {
				errs <- fmt.Errorf("%s: %v", j.ID, err)
				return
			}
			roots := hspan.BuildTree(recs)
			if len(roots) != 1 || roots[0].Name != "job" {
				errs <- fmt.Errorf("%s: %d roots", j.ID, len(roots))
				return
			}
			if a, ok := roots[0].Attr("tenant"); !ok || a.Str != tenant {
				errs <- fmt.Errorf("%s: tenant attr %+v", j.ID, a)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("concurrent trace readers did not finish")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTraceHostileTenantIsValidJSON submits a job whose tenant name
// holds a control byte and DEL: every line of its /trace stream and of
// the span file must still be valid JSON, and the name must parse back.
// The X-Tenant header carries the name quoted.
func TestTraceHostileTenantIsValidJSON(t *testing.T) {
	const tenant = "t\x01\x7f"
	var file bytes.Buffer
	tr := hspan.New()
	sw := obs.NewSpanWriter(&file, nil, tr.Base())
	s := newTestServer(t, func(c *Config) { c.Spans = tr.Fork(sw.Write) })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, st := postJob(t, ts, JobRequest{Tenant: tenant, Kind: KindRun, Program: quickProg}, "?wait=1")
	if resp.StatusCode != http.StatusAccepted || st.State != StateDone {
		t.Fatalf("job = %d %+v", resp.StatusCode, st)
	}
	if got, want := resp.Header.Get("X-Tenant"), `"t\x01\x7f"`; got != want {
		t.Fatalf("X-Tenant = %s, want %s", got, want)
	}
	code, body := getBody(t, ts, "/v1/jobs/"+st.ID+"/trace") // ends after the root span
	if code != http.StatusOK {
		t.Fatalf("trace status %d", code)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	for src, text := range map[string]string{"trace": body, "span file": file.String()} {
		var roots int
		for i, line := range strings.Split(strings.TrimSpace(text), "\n") {
			if !json.Valid([]byte(line)) {
				t.Fatalf("%s line %d is not valid JSON: %q", src, i, line)
			}
			var rec struct {
				Name  string         `json:"name"`
				Attrs map[string]any `json:"attrs"`
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatal(err)
			}
			if rec.Name == "job" {
				roots++
				if rec.Attrs["tenant"] != tenant {
					t.Fatalf("%s: root tenant attr = %q, want %q", src, rec.Attrs["tenant"], tenant)
				}
			}
		}
		if roots != 1 {
			t.Fatalf("%s holds %d job root spans, want 1", src, roots)
		}
	}
}
