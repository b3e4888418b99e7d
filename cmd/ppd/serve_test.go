package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServeDropsSlowClients sends the daemon's http.Server half a request
// header and then stalls, as a slow or hostile client would: the server
// must close the connection once readHeaderTimeout passes instead of
// holding it, and its goroutine, open indefinitely. Request bodies are
// bounded the same way by readTimeout.
func TestServeDropsSlowClients(t *testing.T) {
	srv := newHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 {
		t.Fatalf("http.Server without read deadlines: header %v, request %v",
			srv.ReadHeaderTimeout, srv.ReadTimeout)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: ppd\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled client still connected after %v: %v", time.Since(start).Round(time.Millisecond), err)
	}
	if d := time.Since(start); d < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the %v header deadline", d, readHeaderTimeout)
	}
}
