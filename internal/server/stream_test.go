package server

import (
	"bytes"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// flushRecorder is a ResponseWriter that records what the client has
// received: the body as of each Flush.
type flushRecorder struct {
	mu      sync.Mutex
	header  http.Header
	body    bytes.Buffer
	flushed []string
}

func (f *flushRecorder) Header() http.Header { return f.header }
func (f *flushRecorder) WriteHeader(int)     {}

func (f *flushRecorder) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.body.Write(p)
}

func (f *flushRecorder) Flush() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flushed = append(f.flushed, f.body.String())
}

// received returns the body as of the last flush and the flush count.
func (f *flushRecorder) received() (string, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.flushed) == 0 {
		return "", 0
	}
	return f.flushed[len(f.flushed)-1], len(f.flushed)
}

// TestStreamLineReachesClientBeforeRunEnds checks the streamed re-run's
// flushing while the run is still going (before close): the first race
// line is flushed as it is written, a later one within the flush interval
// without any further write, and nothing is flushed after close.
func TestStreamLineReachesClientBeforeRunEnds(t *testing.T) {
	rec := &flushRecorder{header: http.Header{}}
	lw := newLineWriter(rec)

	lw.write(streamEvent{Type: "race", Race: "first"})
	if got, n := rec.received(); n != 1 || !strings.Contains(got, `"race":"first"`) {
		t.Fatalf("after the first line: %d flushes, client has %q", n, got)
	}

	lw.write(streamEvent{Type: "race", Race: "second"})
	lw.write(streamEvent{Type: "race", Race: "third"})
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, n := rec.received()
		if strings.Contains(got, `"race":"third"`) {
			if n > 3 {
				t.Errorf("%d flushes for three lines", n)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("later lines never flushed before the run ended: client has %q", got)
		}
		time.Sleep(lineFlushInterval)
	}

	lw.write(streamEvent{Type: "summary", Count: 3})
	lw.close()
	got, n := rec.received()
	if !strings.HasSuffix(got, "\"summary\",\"count\":3}\n") {
		t.Fatalf("close did not flush the summary: client has %q", got)
	}
	if want := `{"type":"race","race":"first"}` + "\n" + `{"type":"race","race":"second"}` + "\n" +
		`{"type":"race","race":"third"}` + "\n" + `{"type":"summary","count":3}` + "\n"; got != want {
		t.Errorf("client received\n%s\nwant\n%s", got, want)
	}
	time.Sleep(5 * lineFlushInterval)
	if _, after := rec.received(); after != n {
		t.Errorf("%d flushes after close", after-n)
	}
}
