package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"

	"ppd"
	"ppd/internal/dynpdg"
	"ppd/internal/eblock"
	"ppd/internal/emulation"
	"ppd/internal/mplgen"
	"ppd/internal/server"
)

// serve drives the `ppd serve` daemon in-process over loopback HTTP with
// two closed-loop clients. One op is one client session: create, a
// streaming re-run (the online race detector's NDJSON stream), one
// flowback query and delete. Even ops open a freshly generated mplgen
// program (a cold compile, an artifact-cache miss and a store); odd ops
// re-open a triage family program under a new seed (a cache hit). The
// daemon is configured so that nothing is refused or evicted: a 429 or
// 409 is a failed op.
type serve struct {
	sz    size
	seed  int64
	dir   string
	progs []program
	// probeDir is the traced run's in-process probes' own artifact cache,
	// warmed like the daemon's, so a probe compiles cold exactly when the
	// daemon did.
	probeDir string

	srv    *server.Server
	ts     *httptest.Server
	client *http.Client

	mu   sync.Mutex // guards done and the tally
	done *journal[serveDone]

	fragmentOrderDiffs int

	logRuns, logBytes int64 // the logOps prefix, measured by check

	traceAt *ppd.Stats
	t       *tally
}

const serveClients = 2

type serveDone struct {
	I, Seed, RunSeed int64
	PID, Interval    int32
	Report, Output   uint64
	Fragment         string
}

func (w *serve) clients() int { return serveClients }

// warmups covers 14 fresh mplgen programs: their sizes vary with the seed,
// and averaging over that many keeps setup_s from following the seed.
func (w *serve) warmups() int { return 4 * len(w.progs) }

func (w *serve) setup(seed int64, dir string) error {
	w.seed, w.dir = seed, dir
	w.t = newTally()
	var err error
	if w.done, err = newJournal[serveDone](dir, "serve.answers"); err != nil {
		return err
	}
	w.progs = families(w.sz)
	if err := coldCompile(w.progs, dir); err != nil {
		return err
	}
	w.srv = server.New(server.Config{
		CacheDir:    dir,
		MaxSessions: 16 * serveClients,
		SessionTTL:  -1,
		MaxQueue:    16 * serveClients,
	})
	w.srv.Start()
	w.ts = httptest.NewServer(w.srv.Handler())
	w.client = w.ts.Client()
	return nil
}

// program returns op i's input: a fresh mplgen program for even i, one
// of the seven triage families for odd i. (The cache-hit half leaves out
// triage's seed-drawn programs; the fresh half already covers mplgen.)
func (w *serve) program(i int) program {
	if i%2 == 1 {
		return w.progs[(i/2)%len(w.progs)]
	}
	cfg := mplgen.ParallelConfig()
	if (i/2)%2 == 0 {
		cfg = mplgen.RacyConfig()
	}
	if w.sz.tiny {
		cfg.Workers = 2
	}
	return program{name: fmt.Sprintf("gen-%d", i), src: mplgen.Generate(opSeed(w.seed, i), cfg), quantum: 3}
}

// call sends one JSON request and decodes a JSON reply; any non-2xx
// status (including 409 busy and 429 saturated) is an error.
func (w *serve) call(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, w.ts.URL+path, rd)
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, data)
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// streamSummary is one NDJSON line of a streaming re-run; the fields read
// are those of the final summary (or error) line.
type streamSummary struct {
	Type   string `json:"type"`
	Report string `json:"report"`
	Output string `json:"output"`
	Error  string `json:"error"`
}

// streamRun posts a streaming re-run and reads the NDJSON stream (race
// lines as the online detector finds them) to its summary line.
func (w *serve) streamRun(id string, body any) (*streamSummary, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Post(w.ts.URL+"/v1/sessions/"+id+"/run?stream=1", "application/json", bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("run: %s: %s", resp.Status, data)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		var ev streamSummary
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, err
		}
		switch ev.Type {
		case "summary":
			return &ev, nil
		case "error":
			return nil, fmt.Errorf("run: %s", ev.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("run: stream ended without a summary")
}

type runReq struct {
	Seed    int64 `json:"seed"`
	Quantum int   `json:"quantum"`
}

func (w *serve) op(c *opCtx) error {
	p := w.program(c.i)
	rng := rand.New(rand.NewSource(opSeed(w.seed, c.i)))
	seed, runSeed := rng.Int63(), rng.Int63()

	var created struct {
		ID    string `json:"id"`
		Procs int    `json:"procs"`
	}
	c.begin("server", "server.create")
	err := w.call("POST", "/v1/sessions", map[string]any{
		"filename": p.name + ".mpl", "source": p.src, "seed": seed, "quantum": p.quantum,
	}, &created)
	c.end()
	if err != nil {
		return err
	}
	c.begin("server", "server.run")
	sum, err := w.streamRun(created.ID, runReq{Seed: runSeed, Quantum: p.quantum})
	c.end()
	if err != nil {
		return err
	}
	pid := rng.Intn(created.Procs)
	var fb struct {
		Interval int    `json:"interval"`
		Fragment string `json:"fragment"`
	}
	c.begin("server", "server.flowback")
	err = w.call("POST", "/v1/sessions/"+created.ID+"/flowback", map[string]int{"pid": pid, "depth": walkDepth}, &fb)
	c.end()
	if err != nil {
		return err
	}
	c.begin("server", "server.delete")
	err = w.call("DELETE", "/v1/sessions/"+created.ID, nil, nil)
	c.end()
	if err != nil {
		return err
	}

	d := serveDone{I: int64(c.i), Seed: seed, RunSeed: runSeed, PID: int32(pid), Interval: int32(fb.Interval),
		Report: hashOf(sum.Report), Output: hashOf(sum.Output), Fragment: fb.Fragment}
	c.after(func() {
		w.mu.Lock()
		w.done.add(d)
		w.mu.Unlock()
	})
	if c.traced() {
		c.after(func() { w.traceAfter(c, p, d) })
	}
	return nil
}

// traceAfter probes the same calls in-process — the daemon's work without
// HTTP, for server.http_overhead_ms — and a cold compile of the source.
func (w *serve) traceAfter(c *opCtx, p program, d serveDone) {
	opts := ppd.Options{Seed: d.Seed, Quantum: p.quantum, CacheDir: w.probeDir}
	var sess *ppd.Session
	c.probe("server", "inproc.create", func() { sess, _ = ppd.OpenSession(p.name+".mpl", p.src, opts) })
	if sess == nil {
		return
	}
	opts.Seed = d.RunSeed
	var res *ppd.StreamResult
	c.probe("stream", "stream.monitored_run", func() { res, _ = sess.StreamRaces(context.Background(), opts, nil) })
	c.probe("server", "inproc.flowback", func() { _, _ = sess.Flowback(int(d.PID), walkDepth) })
	c.probe("server", "inproc.delete", func() { sess.Close() })
	c.probe("compile", "compile.cold", func() {
		_, _ = ppd.CompileOpts(p.name+".mpl", p.src, eblock.DefaultConfig(), ppd.Options{})
	})
	w.mu.Lock()
	defer w.mu.Unlock()
	if res != nil {
		w.t.streamRuns++
		w.t.streamEv += res.Events
		w.t.streamRet += res.Retired
		w.t.streamHigh += res.Highwater
	}
}

// startTrace warms the probes' artifact cache and snapshots the daemon's
// counters before the traced phase.
func (w *serve) startTrace() error {
	w.probeDir = filepath.Join(w.dir, "probe")
	if err := coldCompile(w.progs, w.probeDir); err != nil {
		return err
	}
	w.traceAt = w.srv.Metrics()
	return nil
}

// repeatCounts reads the daemon's counters after the warm-up; every
// session was deleted, so they hold each session's final (streamed) run.
func (w *serve) repeatCounts() map[string]float64 {
	s := w.srv.Metrics()
	n := float64(w.warmups())
	return map[string]float64{
		"warmup.log_kib_per_run": float64(s.Counter("exec.log.bytes")) / n / 1024,
		"vm.steps_per_run":       float64(s.Counter("exec.steps")) / n,
		"race.pairs_per_run":     float64(s.Counter("stream.pairs")) / n,
		"parallel.edges_per_run": 0,
		"dynpdg.nodes_per_graph": 0,
		"emulations":             float64(s.Counter("debug.cache.misses")),
	}
}

// logKiB is the mean encoded log of the streamed re-runs, measured on
// the oracle's identical in-process runs.
func (w *serve) logKiB() float64 {
	return float64(w.logBytes) / float64(max(1, w.logRuns)) / 1024
}

func (w *serve) layerCounters(ls *layerSplit) map[string]float64 {
	w.t.add(delta(w.srv.Metrics(), w.traceAt))
	w.t.runs = ls.ops
	m := w.t.metrics(ls.ops)
	var http, inproc float64
	for _, r := range []string{"create", "run", "flowback", "delete"} {
		http += meanMS(ls.calls["server."+r])
	}
	for _, r := range []string{"inproc.create", "stream.monitored_run", "inproc.flowback", "inproc.delete"} {
		inproc += meanMS(ls.probes[r])
	}
	m["server.http_overhead_ms"] = http - inproc
	return m
}

// check replays every op in-process: the daemon's streamed output and
// race report must be byte-identical to ppd.OpenSession + RaceReport on
// the same (source, seed, quantum) — the online detector against the
// batch one. Its flowback must name Session.FocusInterval's interval, and
// its fragment must be a rendering (checkFragment) of the dynamic graph
// built from that interval's trace under Emulator.Generic. A fragment
// that passes but differs from Session.Flowback's text differs in sibling
// order only (see flowback.check); those are counted and reported.
func (w *serve) check() (int, error) {
	failed := 0
	err := w.done.each(func(d serveDone) {
		if err := w.checkOne(d); err != nil {
			failed++
			if failed <= 3 {
				fmt.Fprintf(errOut, "serve: op %d (%s): %v\n", d.I, w.program(int(d.I)).name, err)
			}
		}
	})
	if w.fragmentOrderDiffs > 0 {
		fmt.Fprintf(errOut, "serve: %d flowback fragment(s) differ from Session.Flowback's in edge order only\n", w.fragmentOrderDiffs)
	}
	return failed, err
}

func (w *serve) checkOne(d serveDone) error {
	p := w.program(int(d.I))
	var out strings.Builder
	sess, err := ppd.OpenSession(p.name+".mpl", p.src, ppd.Options{
		Seed: d.RunSeed, Quantum: p.quantum, CacheDir: w.dir, Output: &out,
	})
	if err != nil {
		return err
	}
	defer sess.Close()
	if d.I < int64(w.warmups()+logOps) {
		w.logRuns++
		w.logBytes += int64(sess.Execution().Log().Stats().TotalBytes())
	}
	report, err := sess.RaceReport()
	if err != nil {
		return err
	}
	frag, err := sess.Flowback(int(d.PID), walkDepth)
	if err != nil {
		return err
	}
	interval, err := sess.FocusInterval(int(d.PID))
	if err != nil {
		return err
	}
	wantG, root, err := genericGraph(sess, int(d.PID), interval)
	if err != nil {
		return err
	}
	switch {
	case hashOf(report) != d.Report:
		return fmt.Errorf("streamed race report differs from the batch report")
	case hashOf(out.String()) != d.Output:
		return fmt.Errorf("streamed output differs from the in-process run")
	case p.output != "" && out.String() != p.output:
		return fmt.Errorf("output %q, want %q", out.String(), p.output)
	case interval != int(d.Interval):
		return fmt.Errorf("flowback interval %d, Session.FocusInterval %d", d.Interval, interval)
	}
	if err := checkFragment(d.Fragment, wantG, root, walkDepth); err != nil {
		return fmt.Errorf("flowback fragment is not the generic trace's graph: %w", err)
	}
	if d.Fragment != frag {
		w.fragmentOrderDiffs++
	}
	return nil
}

// genericGraph builds the dynamic graph of pid's interval idx from its
// trace under Emulator.Generic, and returns it with the session's focus
// node of it.
func genericGraph(sess *ppd.Session, pid, idx int) (*dynpdg.Graph, dynpdg.NodeID, error) {
	ctl, err := sess.Controller()
	if err != nil {
		return nil, 0, err
	}
	art := sess.Program().Artifacts()
	book := sess.Execution().Log().Books[pid]
	gen := emulation.New(art.Prog, book)
	gen.Generic = true
	res, err := gen.Emulate(idx)
	if err != nil {
		return nil, 0, err
	}
	prog := art.Prog
	fn := prog.Funcs[prog.Blocks[book.Records[idx].Block].FuncIdx].Name
	g := dynpdg.Build(art, res.Trace, fn)
	return g, ctl.FocusNode(g, pid).ID, nil
}

func (w *serve) close() {
	w.done.close()
	if w.ts != nil {
		w.ts.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
}
