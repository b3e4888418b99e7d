// Package server implements the `ppd serve` daemon: a long-running
// HTTP/JSON service that manages many concurrent debugging sessions over
// the public ppd.Session API. It is the composition layer the ROADMAP's
// north star calls for — the pieces it glues together all predate it:
//
//   - the content-addressed artifact cache (Config.CacheDir) is shared by
//     every session, so identical source compiles once across the whole
//     daemon's lifetime;
//   - each session owns a ppd.Session — compiled program, logged
//     execution, and a Controller with its LRU-bounded emulation cache;
//   - heavy work (compile+run, race detection, flowback, what-if, vet)
//     passes admission control: a bounded worker pool with a bounded
//     wait queue, and 429 backpressure once both are full;
//   - idle sessions are evicted by a TTL janitor, releasing their
//     emulation caches deterministically;
//   - every obs snapshot — live sessions, retired sessions, and the
//     server's own counters — is exported at /metrics.
//
// Error mapping (ppd sentinel → HTTP status):
//
//	ppd.ErrInvalidOptions   400 invalid_options
//	ppd.ErrSessionNotFound  404 session_not_found
//	ppd.ErrSessionBusy      409 session_busy
//	ppd.ErrSessionClosed    410 session_closed
//	ppd.ErrServerSaturated  429 server_saturated
//	(anything else)         500 internal
//
// Compile/parse failures (ppd.ErrCompile) map to 400 compile_error; a
// creation error that is neither a compile failure nor one of the
// sentinels above is a run-phase infrastructure failure and maps to 500
// internal — never to compile_error.
package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ppd"
	"ppd/internal/obs"
)

// Config tunes a Server. The zero value serves: GOMAXPROCS workers, a
// 4×workers admission queue, 1024 sessions, a 15-minute idle TTL, and no
// persistent artifact cache.
type Config struct {
	// CacheDir enables the persistent artifact cache, shared by every
	// session: two sessions over identical source compile once. Empty
	// disables (each session still compiles normally).
	CacheDir string

	// MaxSessions caps live sessions; creation beyond it is refused with
	// ppd.ErrServerSaturated. <= 0 selects 1024.
	MaxSessions int

	// SessionTTL evicts sessions idle longer than this, releasing their
	// emulation caches. 0 selects 15 minutes; < 0 disables eviction.
	SessionTTL time.Duration

	// Workers bounds concurrently executing heavy operations (session
	// creation, re-run, races, flowback, what-if, vet, log download).
	// <= 0 selects GOMAXPROCS.
	Workers int

	// MaxQueue bounds requests waiting for a worker slot; beyond it the
	// request is refused with ppd.ErrServerSaturated. 0 selects
	// 4×Workers; < 0 refuses immediately once all workers are busy.
	MaxQueue int

	// CacheBound caps each session's emulation LRU
	// (ppd.Options.CacheBound). 0 leaves the per-session default.
	CacheBound int
}

// withDefaults resolves the zero-value knobs.
func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 15 * time.Minute
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 4 * c.Workers
	}
	return c
}

// session is one managed debugging session. Its mutex serializes the
// operations the HTTP surface runs against it; exclusive operations
// (re-run, delete) TryLock and answer ErrSessionBusy instead of queueing
// behind a long query.
type session struct {
	id       string
	filename string
	created  time.Time

	mu   sync.Mutex
	sess *ppd.Session

	// lastUsed is the admission timestamp of the most recent request that
	// touched the session (atomic UnixNano; the janitor reads it without
	// taking mu, so a long-running query cannot stall eviction scans).
	lastUsed atomic.Int64

	// seed/quantum record the options of the current execution for
	// listings and for the race-report identity contract. Atomics: list
	// and attach read them without the session lock, re-run writes them.
	seed    atomic.Int64
	quantum atomic.Int64
}

func (ss *session) touch(now time.Time) { ss.lastUsed.Store(now.UnixNano()) }

// Server is the daemon: a session table, an admission-controlled worker
// pool, a TTL janitor, and the HTTP surface over both.
type Server struct {
	cfg  Config
	sink *obs.Sink

	sem    chan struct{} // worker slots
	queued atomic.Int64  // requests waiting for a slot

	mu       sync.Mutex
	sessions map[string]*session
	reserved int           // table slots claimed by in-flight creates
	retired  *obs.Snapshot // final stats of closed/expired sessions

	janitorStop chan struct{}
	janitorDone chan struct{}

	// Resolved counters (the sink outlives every request).
	cCreated   *obs.Counter
	cClosed    *obs.Counter
	cExpired   *obs.Counter
	cQueries   *obs.Counter
	cSaturated *obs.Counter
	cBusy      *obs.Counter
}

// New builds a Server. Call Start to launch the TTL janitor and Close to
// shut everything down; Handler returns the HTTP surface.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	sink := obs.New()
	return &Server{
		cfg:        cfg,
		sink:       sink,
		sem:        make(chan struct{}, cfg.Workers),
		sessions:   make(map[string]*session),
		retired:    &obs.Snapshot{Counters: map[string]int64{}, Timers: map[string]obs.TimerStat{}},
		cCreated:   sink.Counter("server.sessions.created"),
		cClosed:    sink.Counter("server.sessions.closed"),
		cExpired:   sink.Counter("server.sessions.expired"),
		cQueries:   sink.Counter("server.queries"),
		cSaturated: sink.Counter("server.rejected.saturated"),
		cBusy:      sink.Counter("server.rejected.busy"),
	}
}

// Start launches the TTL janitor. It is a no-op when eviction is
// disabled, and must not be called twice without an intervening Close.
func (s *Server) Start() {
	if s.cfg.SessionTTL <= 0 {
		return
	}
	s.janitorStop = make(chan struct{})
	s.janitorDone = make(chan struct{})
	period := s.cfg.SessionTTL / 4
	if period < time.Second {
		period = time.Second
	}
	go func() {
		defer close(s.janitorDone)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-s.janitorStop:
				return
			case now := <-tick.C:
				s.SweepIdle(now)
			}
		}
	}()
}

// Close stops the janitor and closes every live session, folding their
// final stats into the retired aggregate (still visible at /metrics
// until the Server itself is dropped).
func (s *Server) Close() {
	if s.janitorStop != nil {
		close(s.janitorStop)
		<-s.janitorDone
		s.janitorStop = nil
	}
	s.mu.Lock()
	victims := make([]*session, 0, len(s.sessions))
	for id, ss := range s.sessions {
		victims = append(victims, ss)
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	for _, ss := range victims {
		s.retire(ss, s.cClosed)
	}
}

// SweepIdle evicts every session idle since before now−TTL and returns
// how many were evicted. The janitor calls it periodically; tests call
// it directly with a synthetic clock.
func (s *Server) SweepIdle(now time.Time) int {
	if s.cfg.SessionTTL <= 0 {
		return 0
	}
	deadline := now.Add(-s.cfg.SessionTTL).UnixNano()
	s.mu.Lock()
	var victims []*session
	for id, ss := range s.sessions {
		if ss.lastUsed.Load() < deadline {
			victims = append(victims, ss)
			delete(s.sessions, id)
		}
	}
	s.mu.Unlock()
	for _, ss := range victims {
		s.retire(ss, s.cExpired)
	}
	return len(victims)
}

// retire closes a session already removed from the table and folds its
// final observability snapshot (which includes the cache release the
// Close performs) into the retired aggregate. It waits for the session's
// in-flight operation, never holding the server lock while doing so.
func (s *Server) retire(ss *session, counter *obs.Counter) {
	ss.mu.Lock()
	_ = ss.sess.Close()
	final := ss.sess.Stats()
	ss.mu.Unlock()
	counter.Inc()
	s.mu.Lock()
	s.retired.Merge(final)
	s.mu.Unlock()
}

// admit acquires a worker slot, queueing up to MaxQueue waiters, and
// returns the release func. Beyond the queue bound — or if the request's
// context dies while waiting — it fails without running the work.
func (s *Server) admit(done <-chan struct{}) (func(), error) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		s.cSaturated.Inc()
		return nil, ppd.ErrServerSaturated
	}
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	case <-done:
		return nil, fmt.Errorf("ppd: request cancelled while queued for a worker")
	}
}

// lookup finds a live session and touches its idle clock.
func (s *Server) lookup(id string, now time.Time) (*session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ss, ok := s.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ppd.ErrSessionNotFound, id)
	}
	ss.touch(now)
	return ss, nil
}

// remove unlinks a session from the table (for DELETE).
func (s *Server) remove(id string) (*session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ss, ok := s.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ppd.ErrSessionNotFound, id)
	}
	delete(s.sessions, id)
	return ss, nil
}

// reservation is a claimed slot in the session table: reserve takes it
// before the expensive compile+run so MaxSessions refuses work before
// performing it, insert transfers it to the live table, and release
// (safe to defer unconditionally) returns it if the session never
// materialized.
type reservation struct {
	s    *Server
	done bool // consumed by insert or returned by release; guarded by s.mu
}

// reserve claims a table slot, enforcing MaxSessions against live
// sessions plus in-flight creates.
func (s *Server) reserve() (*reservation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.sessions)+s.reserved >= s.cfg.MaxSessions {
		s.cSaturated.Inc()
		return nil, fmt.Errorf("%w: %d sessions live (MaxSessions)", ppd.ErrServerSaturated, len(s.sessions))
	}
	s.reserved++
	return &reservation{s: s}, nil
}

func (r *reservation) release() {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	if !r.done {
		r.done = true
		r.s.reserved--
	}
}

// insert registers a new session, consuming the reservation its create
// holds (so the table bound is exact: a session is either reserved or
// live, never both, never neither).
func (s *Server) insert(ss *session, res *reservation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !res.done {
		res.done = true
		s.reserved--
	}
	s.sessions[ss.id] = ss
}

// newID mints a session ID: 8 random bytes, hex-encoded.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: id entropy unavailable: %v", err))
	}
	return "s" + hex.EncodeToString(b[:])
}

// Metrics builds the daemon-wide observability snapshot: the server's own
// counters, the retired aggregate, every live session's three-phase
// stats, and the point-in-time gauges (live sessions, queue depth).
func (s *Server) Metrics() *obs.Snapshot {
	snap := s.sink.Snapshot()
	s.mu.Lock()
	live := make([]*session, 0, len(s.sessions))
	for _, ss := range s.sessions {
		live = append(live, ss)
	}
	snap.Merge(s.retired)
	snap.Counters["server.sessions.active"] = int64(len(s.sessions))
	s.mu.Unlock()
	snap.Counters["server.queue.depth"] = s.queued.Load()
	snap.Counters["server.workers"] = int64(s.cfg.Workers)
	for _, ss := range live {
		snap.Merge(ss.sess.Stats())
	}
	return snap
}

// Handler returns the daemon's HTTP surface. See routes in handlers.go.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.routes(mux)
	return mux
}
