package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"ppd"
	"ppd/internal/eblock"
)

// routes installs the HTTP surface:
//
//	POST   /v1/sessions             create: compile (cached) + run logged
//	GET    /v1/sessions             list live sessions
//	GET    /v1/sessions/{id}        attach: session info, refreshes TTL
//	DELETE /v1/sessions/{id}        close and remove the session
//	POST   /v1/sessions/{id}/run    re-run under new options (exclusive)
//	GET    /v1/sessions/{id}/races  race detection (memoized)
//	POST   /v1/sessions/{id}/flowback  flowback fragment for a process
//	POST   /v1/sessions/{id}/whatif    what-if re-execution (§5.7)
//	GET    /v1/sessions/{id}/vet    static analysis (memoized)
//	GET    /v1/sessions/{id}/log    binary log download
//	GET    /v1/sessions/{id}/stats  the session's own obs snapshot
//	POST   /v1/compile              compile-only probe (cache check)
//	GET    /metrics                 daemon-wide obs snapshot (JSON)
//	GET    /healthz                 liveness
func (s *Server) routes(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	mux.HandleFunc("GET /v1/sessions", s.handleList)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleAttach)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	mux.HandleFunc("POST /v1/sessions/{id}/run", s.handleRerun)
	mux.HandleFunc("GET /v1/sessions/{id}/races", s.handleRaces)
	mux.HandleFunc("POST /v1/sessions/{id}/flowback", s.handleFlowback)
	mux.HandleFunc("POST /v1/sessions/{id}/whatif", s.handleWhatIf)
	mux.HandleFunc("GET /v1/sessions/{id}/vet", s.handleVet)
	mux.HandleFunc("GET /v1/sessions/{id}/log", s.handleLog)
	mux.HandleFunc("GET /v1/sessions/{id}/stats", s.handleStats)
	mux.HandleFunc("POST /v1/compile", s.handleCompile)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// statusFor maps an error to its HTTP status and stable machine code.
func statusFor(err error) (int, string) {
	switch {
	case errors.Is(err, ppd.ErrInvalidOptions):
		return http.StatusBadRequest, "invalid_options"
	case errors.Is(err, ppd.ErrSessionNotFound):
		return http.StatusNotFound, "session_not_found"
	case errors.Is(err, ppd.ErrSessionBusy):
		return http.StatusConflict, "session_busy"
	case errors.Is(err, ppd.ErrSessionClosed):
		return http.StatusGone, "session_closed"
	case errors.Is(err, ppd.ErrServerSaturated):
		return http.StatusTooManyRequests, "server_saturated"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, "cancelled"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	status, code := statusFor(err)
	writeJSON(w, status, errorBody{Error: err.Error(), Code: code})
}

// writeErrorCode is writeError with the status/code forced — for errors
// whose class the handler knows better than statusFor (compile errors).
func writeErrorCode(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, errorBody{Error: err.Error(), Code: code})
}

func readJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: malformed request body: %v", ppd.ErrInvalidOptions, err)
	}
	return nil
}

// runOptions are the client-settable execution knobs, shared by create
// and re-run requests.
type runOptions struct {
	Seed     int64 `json:"seed"`
	Quantum  int   `json:"quantum"`
	MaxSteps int64 `json:"max_steps"`
	NoFusion bool  `json:"no_fusion"`
	// StopAtFirstRace cancels the run as soon as the online pipeline
	// reports a race (implies monitoring). StreamBatch tunes the tee's
	// record batch size; 0 keeps the default.
	StopAtFirstRace bool `json:"stop_at_first_race"`
	StreamBatch     int  `json:"stream_batch"`
}

// options resolves the request knobs plus the server-wide policy knobs
// into ppd.Options. Output capture is the caller's.
func (s *Server) options(ro runOptions) ppd.Options {
	return ppd.Options{
		Seed:            ro.Seed,
		Quantum:         ro.Quantum,
		MaxSteps:        ro.MaxSteps,
		NoFusion:        ro.NoFusion,
		StopAtFirstRace: ro.StopAtFirstRace,
		StreamBatch:     ro.StreamBatch,
		CacheBound:      s.cfg.CacheBound,
		CacheDir:        s.cfg.CacheDir,
	}
}

// sessionInfo is the listing/attach view of a session.
type sessionInfo struct {
	ID         string    `json:"id"`
	Filename   string    `json:"filename"`
	Created    time.Time `json:"created"`
	IdleNS     int64     `json:"idle_ns"`
	Seed       int64     `json:"seed"`
	Quantum    int       `json:"quantum"`
	Procs      int       `json:"procs"`
	Failed     string    `json:"failed,omitempty"`
	Deadlocked bool      `json:"deadlocked"`
}

func (ss *session) info(now time.Time) sessionInfo {
	info := sessionInfo{
		ID:       ss.id,
		Filename: ss.filename,
		Created:  ss.created,
		IdleNS:   now.UnixNano() - ss.lastUsed.Load(),
		Seed:     ss.seed.Load(),
		Quantum:  int(ss.quantum.Load()),
	}
	if info.IdleNS < 0 {
		info.IdleNS = 0
	}
	exec := ss.sess.Execution()
	info.Procs = exec.Log().NumProcs()
	info.Deadlocked = exec.Deadlocked()
	if err := ss.sess.Failed(); err != nil {
		info.Failed = err.Error()
	}
	return info
}

type createRequest struct {
	Filename string `json:"filename"`
	Source   string `json:"source"`
	runOptions
}

type createResponse struct {
	sessionInfo
	Output string `json:"output"`
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	s.cQueries.Inc()
	var req createRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Source == "" {
		writeError(w, fmt.Errorf("%w: request field \"source\" is empty", ppd.ErrInvalidOptions))
		return
	}
	if req.Filename == "" {
		req.Filename = "session.mpl"
	}
	// Claim a table slot before the expensive compile+run: a server at
	// MaxSessions refuses immediately instead of compiling first.
	res, err := s.reserve()
	if err != nil {
		writeError(w, err)
		return
	}
	defer res.release()
	release, err := s.admit(r.Context().Done())
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()

	var out limitedBuffer
	opts := s.options(req.runOptions)
	opts.Output = &out
	sess, err := ppd.OpenSessionContext(r.Context(), req.Filename, req.Source, opts)
	if err != nil {
		if errors.Is(err, ppd.ErrCompile) {
			writeErrorCode(w, http.StatusBadRequest, "compile_error", err)
		} else {
			// Options, server-state, cancellation, or run-phase
			// infrastructure errors keep their own class.
			writeError(w, err)
		}
		return
	}
	now := time.Now()
	ss := &session{
		id:       newID(),
		filename: req.Filename,
		created:  now,
		sess:     sess,
	}
	ss.seed.Store(req.Seed)
	ss.quantum.Store(int64(req.Quantum))
	ss.touch(now)
	s.insert(ss, res)
	s.cCreated.Inc()
	writeJSON(w, http.StatusCreated, createResponse{sessionInfo: ss.info(now), Output: out.String()})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.cQueries.Inc()
	now := time.Now()
	s.mu.Lock()
	infos := make([]sessionInfo, 0, len(s.sessions))
	live := make([]*session, 0, len(s.sessions))
	for _, ss := range s.sessions {
		live = append(live, ss)
	}
	s.mu.Unlock()
	for _, ss := range live {
		infos = append(infos, ss.info(now))
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": infos, "count": len(infos)})
}

func (s *Server) handleAttach(w http.ResponseWriter, r *http.Request) {
	s.cQueries.Inc()
	ss, err := s.lookup(r.PathValue("id"), time.Now())
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ss.info(time.Now()))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	s.cQueries.Inc()
	ss, err := s.remove(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	s.retire(ss, s.cClosed)
	writeJSON(w, http.StatusOK, map[string]any{"closed": ss.id})
}

func (s *Server) handleRerun(w http.ResponseWriter, r *http.Request) {
	s.cQueries.Inc()
	var req runOptions
	if err := readJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	ss, err := s.lookup(r.PathValue("id"), time.Now())
	if err != nil {
		writeError(w, err)
		return
	}
	// Worker slot first, session lock second — the same order withSession
	// uses. The reverse order can deadlock the pool: queries holding
	// every slot block on the session lock while the rerun holds the lock
	// waiting for a slot.
	release, err := s.admit(r.Context().Done())
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()
	// Re-run is exclusive: instead of queueing behind a long query (and
	// invalidating the execution it is looking at), answer busy.
	if !ss.mu.TryLock() {
		s.cBusy.Inc()
		writeError(w, fmt.Errorf("%w: %q has an operation in flight", ppd.ErrSessionBusy, ss.id))
		return
	}
	defer ss.mu.Unlock()
	if r.URL.Query().Get("stream") == "1" {
		s.streamRerun(w, r, ss, req)
		return
	}
	var out limitedBuffer
	opts := s.options(req)
	opts.Output = &out
	if err := ss.sess.Rerun(r.Context(), opts); err != nil {
		writeError(w, err)
		return
	}
	ss.seed.Store(req.Seed)
	ss.quantum.Store(int64(req.Quantum))
	writeJSON(w, http.StatusOK, createResponse{sessionInfo: ss.info(time.Now()), Output: out.String()})
}

// streamEvent is one NDJSON line of a streaming re-run: type "race" lines
// arrive incrementally while the program is still running, then exactly
// one "summary" (or "error") line closes the stream.
type streamEvent struct {
	Type string `json:"type"`

	// type "race"
	Race string `json:"race,omitempty"`

	// type "summary"
	Count         int    `json:"count,omitempty"`
	Report        string `json:"report,omitempty"`
	StoppedAtRace bool   `json:"stopped_at_race,omitempty"`
	Batches       int64  `json:"stream_batches,omitempty"`
	Highwater     int64  `json:"stream_frontier_highwater,omitempty"`
	Retired       int64  `json:"stream_events_retired,omitempty"`
	Output        string `json:"output,omitempty"`

	// type "error"
	Error string `json:"error,omitempty"`
}

// streamRerun is the ?stream=1 branch of handleRerun: the re-run happens
// with the online analysis pipeline attached and each race is written to
// the response — NDJSON, the first line flushed at once and later ones
// within a millisecond (lineWriter) — while the program is still
// executing. The caller holds the session's exclusive lock and a worker
// slot. Because the 200 header is committed before the run starts, a
// failing run is reported as a final "error" line rather than a status.
func (s *Server) streamRerun(w http.ResponseWriter, r *http.Request, ss *session, req runOptions) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	lw := newLineWriter(w)
	defer lw.close()
	var out limitedBuffer
	opts := s.options(req)
	opts.Output = &out
	// The callback runs on the pipeline's feeding goroutine; StreamRaces
	// does not return until that goroutine has drained (the tee joins it),
	// so every race line precedes the summary below.
	res, err := ss.sess.StreamRaces(r.Context(), opts, func(ev ppd.RaceEvent) {
		lw.write(streamEvent{Type: "race", Race: ev.String()})
	})
	if err != nil {
		lw.write(streamEvent{Type: "error", Error: err.Error()})
		return
	}
	ss.seed.Store(req.Seed)
	ss.quantum.Store(int64(req.Quantum))
	exec := ss.sess.Execution()
	report := exec.OnlineRaceReport()
	lw.write(streamEvent{
		Type:          "summary",
		Count:         len(res.Races),
		Report:        report,
		StoppedAtRace: exec.StoppedAtRace(),
		Batches:       res.Batches,
		Highwater:     res.Highwater,
		Retired:       res.Retired,
		Output:        out.String(),
	})
}

// lineFlushInterval bounds how long a streamed line waits in the response
// buffer after the first: a run that finds thousands of races pays one
// flush per interval instead of one per race.
const lineFlushInterval = time.Millisecond

// lineWriter encodes NDJSON lines onto a response and flushes them with
// bounded latency: the first line at once, later ones at most once per
// lineFlushInterval through one timer. One mutex orders the encoder's
// writes and the timer's flushes, which run on different goroutines.
type lineWriter struct {
	mu      sync.Mutex
	enc     *json.Encoder
	flusher http.Flusher // nil when the writer cannot flush
	timer   *time.Timer
	first   bool // the first line has been flushed
	pending bool // lines written since the last flush, with a flush scheduled
	closed  bool
}

func newLineWriter(w http.ResponseWriter) *lineWriter {
	f, _ := w.(http.Flusher)
	return &lineWriter{enc: json.NewEncoder(w), flusher: f}
}

// write encodes one line and flushes it now (the first line) or schedules
// a flush within lineFlushInterval.
func (lw *lineWriter) write(ev streamEvent) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	_ = lw.enc.Encode(ev)
	switch {
	case lw.flusher == nil || lw.pending:
	case !lw.first:
		lw.first = true
		lw.flusher.Flush()
	case lw.timer == nil:
		lw.pending = true
		lw.timer = time.AfterFunc(lineFlushInterval, lw.tick)
	default:
		lw.pending = true
		lw.timer.Reset(lineFlushInterval)
	}
}

// tick is the timer's scheduled flush.
func (lw *lineWriter) tick() {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.closed || !lw.pending {
		return
	}
	lw.pending = false
	lw.flusher.Flush()
}

// close stops the timer and flushes what is left. It must run before the
// handler returns: after close no tick touches the response.
func (lw *lineWriter) close() {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	lw.closed = true
	if lw.timer != nil {
		lw.timer.Stop()
	}
	if lw.flusher != nil {
		lw.flusher.Flush()
	}
}

type racesResponse struct {
	Count  int      `json:"count"`
	Report string   `json:"report"`
	Races  []string `json:"races"`
}

func (s *Server) handleRaces(w http.ResponseWriter, r *http.Request) {
	s.withSession(w, r, func(ss *session) (any, error) {
		races, err := ss.sess.Races()
		if err != nil {
			return nil, err
		}
		report, err := ss.sess.RaceReport()
		if err != nil {
			return nil, err
		}
		resp := racesResponse{Count: len(races), Report: report}
		for _, rc := range races {
			resp.Races = append(resp.Races, rc.String())
		}
		return resp, nil
	})
}

type flowbackRequest struct {
	PID   int `json:"pid"`
	Depth int `json:"depth"`
}

func (s *Server) handleFlowback(w http.ResponseWriter, r *http.Request) {
	var req flowbackRequest
	if err := readJSON(r, &req); err != nil {
		s.cQueries.Inc()
		writeError(w, err)
		return
	}
	if req.Depth <= 0 {
		req.Depth = 4
	}
	s.withSession(w, r, func(ss *session) (any, error) {
		frag, err := ss.sess.Flowback(req.PID, req.Depth)
		if err != nil {
			return nil, err
		}
		interval, err := ss.sess.FocusInterval(req.PID)
		if err != nil {
			return nil, err
		}
		return map[string]any{"pid": req.PID, "interval": interval, "depth": req.Depth, "fragment": frag}, nil
	})
}

type whatIfRequest struct {
	PID    int    `json:"pid"`
	Prelog int    `json:"prelog"` // < 0 selects the focus interval
	Global string `json:"global"`
	Value  int64  `json:"value"`
}

type whatIfResponse struct {
	OriginalErr    string `json:"original_err,omitempty"`
	ModifiedErr    string `json:"modified_err,omitempty"`
	ChangedGlobals []int  `json:"changed_globals"`
}

func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	var req whatIfRequest
	if err := readJSON(r, &req); err != nil {
		s.cQueries.Inc()
		writeError(w, err)
		return
	}
	s.withSession(w, r, func(ss *session) (any, error) {
		res, err := ss.sess.WhatIf(req.PID, req.Prelog, req.Global, req.Value)
		if err != nil {
			return nil, err
		}
		resp := whatIfResponse{ChangedGlobals: res.ChangedGlobals}
		if res.ChangedGlobals == nil {
			resp.ChangedGlobals = []int{}
		}
		if res.Original.Err != nil {
			resp.OriginalErr = res.Original.Err.Error()
		}
		if res.Modified.Err != nil {
			resp.ModifiedErr = res.Modified.Err.Error()
		}
		return resp, nil
	})
}

func (s *Server) handleVet(w http.ResponseWriter, r *http.Request) {
	s.withSession(w, r, func(ss *session) (any, error) {
		res, err := ss.sess.Vet()
		if err != nil {
			return nil, err
		}
		return map[string]any{
			"clean":       res.Clean(),
			"diagnostics": len(res.Diagnostics),
			"text":        res.Text(),
		}, nil
	})
}

func (s *Server) handleLog(w http.ResponseWriter, r *http.Request) {
	s.cQueries.Inc()
	ss, err := s.lookup(r.PathValue("id"), time.Now())
	if err != nil {
		writeError(w, err)
		return
	}
	release, err := s.admit(r.Context().Done())
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()
	var buf limitedBuffer
	buf.limit = 1 << 30
	if err := ss.sess.WriteLog(&buf); err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(buf.Len()))
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.cQueries.Inc()
	ss, err := s.lookup(r.PathValue("id"), time.Now())
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ss.sess.Stats())
}

type compileRequest struct {
	Filename string `json:"filename"`
	Source   string `json:"source"`
	NoFusion bool   `json:"no_fusion"`
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	s.cQueries.Inc()
	var req compileRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Filename == "" {
		req.Filename = "probe.mpl"
	}
	release, err := s.admit(r.Context().Done())
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()
	prog, err := ppd.CompileOpts(req.Filename, req.Source, eblock.DefaultConfig(),
		ppd.Options{CacheDir: s.cfg.CacheDir, NoFusion: req.NoFusion})
	if err != nil {
		if errors.Is(err, ppd.ErrCompile) {
			writeErrorCode(w, http.StatusBadRequest, "compile_error", err)
		} else {
			writeError(w, err)
		}
		return
	}
	cs := prog.CompileStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"filename":     req.Filename,
		"funcs":        cs.Counter("compile.funcs"),
		"instrs":       cs.Counter("compile.instrs"),
		"eblocks":      cs.Counter("compile.eblocks"),
		"cache_hits":   cs.Counter("compile.cache.hits"),
		"cache_misses": cs.Counter("compile.cache.misses"),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "sessions": n})
}

// withSession is the shared shape of the per-session query handlers:
// lookup (touching the TTL clock), admission control, the per-session
// lock (concurrent queries on one session serialize; exclusive
// operations observe them as busy), run the query, and encode the reply
// or the mapped error.
func (s *Server) withSession(w http.ResponseWriter, r *http.Request, fn func(*session) (any, error)) {
	s.cQueries.Inc()
	ss, err := s.lookup(r.PathValue("id"), time.Now())
	if err != nil {
		writeError(w, err)
		return
	}
	release, err := s.admit(r.Context().Done())
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()
	ss.mu.Lock()
	defer ss.mu.Unlock()
	resp, err := fn(ss)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// limitedBuffer captures program output with a cap, so a print-heavy
// program cannot balloon a session-creation response.
type limitedBuffer struct {
	buf       []byte
	limit     int
	truncated bool
}

func (b *limitedBuffer) Write(p []byte) (int, error) {
	limit := b.limit
	if limit == 0 {
		limit = 1 << 20
	}
	if room := limit - len(b.buf); room > 0 {
		if len(p) <= room {
			b.buf = append(b.buf, p...)
		} else {
			b.buf = append(b.buf, p[:room]...)
			b.truncated = true
		}
	} else if len(p) > 0 {
		b.truncated = true
	}
	return len(p), nil
}

func (b *limitedBuffer) String() string {
	if b.truncated {
		return string(b.buf) + "\n[output truncated]\n"
	}
	return string(b.buf)
}

func (b *limitedBuffer) Bytes() []byte { return b.buf }
func (b *limitedBuffer) Len() int      { return len(b.buf) }
