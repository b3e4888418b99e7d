package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ppd/internal/server"
)

// cmdServe runs the multi-session debugging daemon. With -smoke it
// instead starts the daemon on an ephemeral port, drives one session
// through the whole debugging surface over real HTTP (create → races →
// flowback → what-if → metrics → delete), scrapes /metrics, and shuts
// down cleanly — the CI liveness gate (`make serve-smoke`).
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "listen address")
	cacheDir := fs.String("cache-dir", os.Getenv("PPD_CACHE_DIR"),
		"persistent artifact cache shared by all sessions (empty disables; default $PPD_CACHE_DIR)")
	ttl := fs.Duration("ttl", 15*time.Minute, "idle-session eviction TTL (<= 0 disables)")
	maxSessions := fs.Int("max-sessions", 1024, "live-session cap (creation beyond it is refused)")
	workers := fs.Int("workers", 0, "concurrent heavy operations (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "admission queue bound before 429 (0 = 4x workers)")
	smoke := fs.Bool("smoke", false, "self-test: drive one session end-to-end, then exit")
	fs.Parse(args)

	cfg := server.Config{
		CacheDir:    *cacheDir,
		MaxSessions: *maxSessions,
		SessionTTL:  *ttl,
		Workers:     *workers,
		MaxQueue:    *queue,
	}
	if *smoke {
		return serveSmoke(cfg)
	}

	srv := server.New(cfg)
	srv.Start()
	defer srv.Close()

	httpSrv := newHTTPServer(*addr, srv.Handler())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "ppd serve: listening on %s (ttl %v, max-sessions %d)\n",
		*addr, *ttl, *maxSessions)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "ppd serve: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return httpSrv.Shutdown(shutCtx)
	}
}

// Read deadlines for every connection the daemon accepts. A client that
// trickles its request headers, or its body, holds a connection and a
// goroutine until the deadline cuts it off; an idle keep-alive connection
// is bounded by readTimeout too. Neither bounds a handler: a long run or
// race analysis still answers after readTimeout has passed (the request
// was fully read before the handler started), and request bodies are
// already capped at 16 MiB by the server's MaxBytesReader.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
)

// newHTTPServer is the one constructor for the daemon's http.Servers, so
// the served daemon and the -smoke self-test share the same limits.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
	}
}

// smokeProgram fails with a division by zero whose flowback and what-if
// are both interesting — the same shape as examples/flowback.
const smokeProgram = `
var g = 1;
func f(a int) int {
	g = g + a;
	return g * 2;
}
func main() {
	var r = f(20) / (g - 21);
	print(r);
}
`

func serveSmoke(cfg server.Config) error {
	srv := server.New(cfg)
	srv.Start()
	defer srv.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := newHTTPServer("", srv.Handler())
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 30 * time.Second}

	call := func(method, path string, body any, out any) error {
		var rd io.Reader
		if body != nil {
			b, err := json.Marshal(body)
			if err != nil {
				return err
			}
			rd = bytes.NewReader(b)
		}
		req, err := http.NewRequest(method, base+path, rd)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode >= 300 {
			return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, data)
		}
		if out != nil {
			return json.Unmarshal(data, out)
		}
		return nil
	}

	// healthz
	if err := call("GET", "/healthz", nil, nil); err != nil {
		return err
	}
	// create
	var created struct {
		ID     string `json:"id"`
		Failed string `json:"failed"`
	}
	if err := call("POST", "/v1/sessions",
		map[string]any{"filename": "smoke.mpl", "source": smokeProgram}, &created); err != nil {
		return err
	}
	if created.Failed == "" {
		return fmt.Errorf("smoke: expected the program to fail, it did not")
	}
	fmt.Printf("smoke: session %s created (failure: %s)\n", created.ID, created.Failed)
	// races
	var races struct {
		Count  int    `json:"count"`
		Report string `json:"report"`
	}
	if err := call("GET", "/v1/sessions/"+created.ID+"/races", nil, &races); err != nil {
		return err
	}
	fmt.Printf("smoke: races count=%d\n", races.Count)
	// flowback
	var fb struct {
		Interval int    `json:"interval"`
		Fragment string `json:"fragment"`
	}
	if err := call("POST", "/v1/sessions/"+created.ID+"/flowback",
		map[string]any{"pid": 0, "depth": 3}, &fb); err != nil {
		return err
	}
	if fb.Fragment == "" {
		return fmt.Errorf("smoke: empty flowback fragment")
	}
	fmt.Printf("smoke: flowback interval=%d fragment=%d byte(s)\n", fb.Interval, len(fb.Fragment))
	// what-if: override g so the division no longer traps
	var wi struct {
		OriginalErr string `json:"original_err"`
		ModifiedErr string `json:"modified_err"`
	}
	if err := call("POST", "/v1/sessions/"+created.ID+"/whatif",
		map[string]any{"pid": 0, "prelog": -1, "global": "g", "value": 5}, &wi); err != nil {
		return err
	}
	if wi.OriginalErr == "" || wi.ModifiedErr != "" {
		return fmt.Errorf("smoke: what-if outcome unexpected (orig=%q mod=%q)", wi.OriginalErr, wi.ModifiedErr)
	}
	fmt.Printf("smoke: what-if ok (original reproduces %q, modified succeeds)\n", wi.OriginalErr)
	// vet + stats + list
	if err := call("GET", "/v1/sessions/"+created.ID+"/vet", nil, nil); err != nil {
		return err
	}
	if err := call("GET", "/v1/sessions/"+created.ID+"/stats", nil, nil); err != nil {
		return err
	}
	var list struct {
		Count int `json:"count"`
	}
	if err := call("GET", "/v1/sessions", nil, &list); err != nil {
		return err
	}
	if list.Count != 1 {
		return fmt.Errorf("smoke: session list count = %d, want 1", list.Count)
	}
	// metrics
	var metrics struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := call("GET", "/metrics", nil, &metrics); err != nil {
		return err
	}
	for _, key := range []string{"server.sessions.created", "exec.steps", "debug.cache.misses"} {
		if metrics.Counters[key] == 0 {
			return fmt.Errorf("smoke: /metrics counter %s = 0, want non-zero", key)
		}
	}
	fmt.Printf("smoke: /metrics ok (%d counters)\n", len(metrics.Counters))
	// delete
	if err := call("DELETE", "/v1/sessions/"+created.ID, nil, nil); err != nil {
		return err
	}
	if err := call("GET", "/v1/sessions/"+created.ID, nil, nil); err == nil {
		return fmt.Errorf("smoke: deleted session still answers")
	}
	fmt.Println("smoke: OK")
	return nil
}
