package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one closed loop of a single kind of debugging operation.
// Operation i of a run is fully determined by the seed and i, so a seed
// fixes the whole operation sequence whatever the timing.
type workload interface {
	// clients is the number of closed-loop clients.
	clients() int
	// setup generates the inputs from the seed, cold-compiles them into
	// the artifact cache under dir and opens whatever the operations use.
	setup(seed int64, dir string) error
	// warmups is the number of operations of the untimed warm-up pass.
	warmups() int
	// op runs operation c.i. An error is a failed operation.
	op(c *opCtx) error
	// repeatCounts returns the warm-up pass's work counts, which must
	// repeat exactly for a seed (the drift detector).
	repeatCounts() map[string]float64
	// logKiB is log_kib_per_run, the mean encoded log size of the
	// workload's logged runs, read after check: on triage and serve, the
	// runs of the warm-up pass and the first logOps timed operations,
	// measured on check's identical re-runs; on flowback, the set-up
	// sessions' runs, its only logged runs.
	logKiB() float64
	// startTrace prepares the traced phase, untimed.
	startTrace() error
	// layerCounters returns the traced phase's per-layer counter metrics.
	layerCounters(ls *layerSplit) map[string]float64
	// check verifies every recorded operation against the workload's
	// oracle, outside any timed region, and returns how many failed.
	check() (int, error)
	close()
}

// opCtx carries one operation's identity and, in the traced run, its
// span recorder. Work queued with later runs after the operation's wall
// time was taken.
type opCtx struct {
	i     int
	rec   *recorder
	later []func()
}

func (c *opCtx) traced() bool { return c.rec != nil }

// begin/end bracket a call into a layer; they do nothing untraced.
func (c *opCtx) begin(layer, name string) { c.rec.begin(c.i, layer, name, false) }
func (c *opCtx) end()                     { c.rec.end() }

// after queues f to run once the operation's wall time has been taken:
// bookkeeping for the oracle, and in the traced run probes and counters.
func (c *opCtx) after(f func()) { c.later = append(c.later, f) }

// probe times f as a probe span of the operation; call it from after.
func (c *opCtx) probe(layer, name string, f func()) {
	c.rec.begin(c.i, layer, name, true)
	f()
	c.rec.end()
}

// phase is the outcome of one timed phase.
type phase struct {
	lat       []time.Duration // successful operations' latencies
	attempted int
	failed    int
	wall      time.Duration // summed operation wall time
	// rate is completed ops per second of client busy time, summed over
	// clients: the closed loop's throughput without the benchmark's own
	// bookkeeping between operations.
	rate     float64
	recs     []*recorder
	mem0     runtime.MemStats
	mem1     runtime.MemStats
	gcCPU    float64 // GC share of CPU time during the phase, in %
	firstErr error
}

// runPhase drives the closed loop: each client starts its next operation
// as soon as the previous one returns, until d has elapsed. Operation
// indices continue from next.
func runPhase(w workload, next *atomic.Int64, d time.Duration, traced bool) *phase {
	ph := &phase{}
	n := w.clients()
	type result struct {
		lat    []time.Duration
		failed int
		wall   time.Duration
		err    error
	}
	results := make([]result, n)
	if traced {
		epoch := time.Now()
		ph.recs = make([]*recorder, n)
		for k := range ph.recs {
			ph.recs[k] = newRecorder(epoch)
		}
	}
	cpu0 := gcCPUSample()
	runtime.ReadMemStats(&ph.mem0)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			res := &results[k]
			var rec *recorder
			if traced {
				rec = ph.recs[k]
			}
			for time.Now().Before(deadline) {
				c := &opCtx{i: int(next.Add(1) - 1), rec: rec}
				lat, err := runOp(w, c)
				res.wall += lat
				if err != nil {
					res.failed++
					if res.err == nil {
						res.err = fmt.Errorf("op %d: %w", c.i, err)
					}
				} else {
					res.lat = append(res.lat, lat)
				}
			}
		}(k)
	}
	wg.Wait()
	runtime.ReadMemStats(&ph.mem1)
	ph.gcCPU = gcCPUSample().pctSince(cpu0)
	for _, r := range results {
		ph.lat = append(ph.lat, r.lat...)
		ph.failed += r.failed
		ph.attempted += len(r.lat) + r.failed
		ph.wall += r.wall
		if r.wall > 0 {
			ph.rate += float64(len(r.lat)) / r.wall.Seconds()
		}
		if ph.firstErr == nil {
			ph.firstErr = r.err
		}
	}
	sort.Slice(ph.lat, func(a, b int) bool { return ph.lat[a] < ph.lat[b] })
	return ph
}

// runOp times one operation, then runs the work it queued with after.
func runOp(w workload, c *opCtx) (time.Duration, error) {
	t0 := time.Now()
	c.begin("op", "op")
	err := w.op(c)
	c.end()
	lat := time.Since(t0)
	for _, f := range c.later {
		f()
	}
	return lat, err
}

// quantile is the nearest-rank q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(k, len(sorted)-1))]
}

type cpuSample struct{ gc, total float64 }

// gcCPUSample reads the runtime's cumulative GC and total CPU estimates.
func gcCPUSample() cpuSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var out cpuSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.total = s[1].Value.Float64()
	}
	return out
}

func (s cpuSample) pctSince(prev cpuSample) float64 {
	if dt := s.total - prev.total; dt > 0 {
		return 100 * (s.gc - prev.gc) / dt
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	size     size
	traceOut string // Chrome trace-event JSON path ("" = none)
	workDir  string // parent of the run's temporary directories ("" = TMPDIR)
}

// logOps is how many timed operations log_kib_per_run averages over,
// after the warm-up pass: a fixed prefix of the operation sequence, so the
// metric is deterministic per seed, and long enough to average over many
// generated programs.
const logOps = 512

// setupReps is how many times an untraced run sets its workload up (a
// traced run, which does not report setup_s, sets up setupReps/2 times);
// setup_s is the median, and the warm-up counts of every set-up must
// agree.
const setupReps = 15

// run executes one benchmark invocation and returns its result plus the
// run's descriptive record (counts, environment).
func run(cfg runConfig) (*result, map[string]any, error) {
	// A cache directory inherited from the environment would leak state
	// into cold compiles; every cached compile passes its own CacheDir.
	os.Unsetenv("PPD_CACHE_DIR")
	res := &result{Correct: true, Metrics: map[string]metric{}}
	info := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"rev":        sourceRev(),
		"trace":      cfg.traced,
	}
	fail := func(format string, args ...any) {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}

	// An untraced run's set-ups are split between its start and its end,
	// so that setup_s, a median of short measurements, samples the
	// machine at two times, as the timed phase does over its whole
	// length. The timed phase uses the last set-up before it.
	var (
		setups []float64
		counts map[string]float64
	)
	setUpAndClose := func() error {
		w, dir, err := setUp(cfg, &setups, &counts, fail)
		if err != nil {
			return err
		}
		w.close()
		return os.RemoveAll(dir)
	}
	for r := 1; r < setupReps/2; r++ {
		if err := setUpAndClose(); err != nil {
			return nil, nil, err
		}
	}
	w, dir, err := setUp(cfg, &setups, &counts, fail)
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	defer func() {
		if w != nil {
			w.close()
		}
	}()

	var next atomic.Int64
	next.Store(int64(w.warmups()))
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.traced {
		d /= 2 // an untraced then a traced half, for trace.overhead_pct
	}
	plain := runPhase(w, &next, d, false)
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them, so only live state remains.
	runtime.GC()
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	var traced *phase
	if cfg.traced {
		if err := w.startTrace(); err != nil {
			return nil, nil, fmt.Errorf("trace set-up: %w", err)
		}
		traced = runPhase(w, &next, d, true)
	}

	// Oracle checks, after every timed phase.
	checkFailed, err := w.check()
	if err != nil {
		return nil, nil, fmt.Errorf("oracle check: %w", err)
	}
	// The check covers the measured set-up's warm-up operations too, so
	// they count as attempted.
	res.Attempted = w.warmups() + plain.attempted
	res.Failed = plain.failed + checkFailed
	if traced != nil {
		res.Attempted += traced.attempted
		res.Failed += traced.failed
	}
	for _, ph := range []*phase{plain, traced} {
		if ph != nil && ph.firstErr != nil {
			fail("%v", ph.firstErr)
		}
	}
	if checkFailed > 0 {
		fail("%d operation(s) disagree with the oracle", checkFailed)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	if n := len(plain.lat); !cfg.traced && n < cfg.size.minOps {
		fail("only %d operations completed; p99 needs at least %d", n, cfg.size.minOps)
	}
	info["ops"] = len(plain.lat)

	if !cfg.traced {
		res.Metrics["ops_per_s"] = metric{plain.rate, "1/s"}
		res.Metrics["op_ms_p50"] = metric{ms(quantile(plain.lat, 0.50)), "ms"}
		res.Metrics["op_ms_p99"] = metric{ms(quantile(plain.lat, 0.99)), "ms"}
		res.Metrics["retained_mib"] = metric{float64(live.HeapAlloc) / (1 << 20), "MiB"}
		res.Metrics["log_kib_per_run"] = metric{w.logKiB(), "KiB"}
		w.close()
		w = nil
		for len(setups) < setupReps {
			if err := setUpAndClose(); err != nil {
				return nil, nil, err
			}
		}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		info["counts"] = counts
		return res, info, nil
	}

	ls := split(traced.recs)
	for name, v := range w.layerCounters(ls) {
		res.Metrics[name] = metric{v, unitOf(name)}
	}
	for _, name := range perLayerTimes {
		if _, ok := res.Metrics[name]; !ok {
			res.Metrics[name] = metric{callMS(ls, name), "ms"}
		}
	}
	if run, log := callMS(ls, "vm.run_ms"), callMS(ls, "vm.log_ms"); run > 0 {
		res.Metrics["vm.log_overhead_pct"] = metric{100 * (log/run - 1), "%"}
	} else {
		res.Metrics["vm.log_overhead_pct"] = metric{0, "%"}
	}
	ops := float64(max(1, plain.attempted))
	res.Metrics["mem.alloc_kib_per_op"] = metric{float64(plain.mem1.TotalAlloc-plain.mem0.TotalAlloc) / 1024 / ops, "KiB"}
	res.Metrics["mem.mallocs_per_op"] = metric{float64(plain.mem1.Mallocs-plain.mem0.Mallocs) / ops, "count"}
	res.Metrics["mem.gc_cpu_pct"] = metric{plain.gcCPU, "%"}
	perOp := func(d time.Duration) float64 { return ms(d) / float64(max(1, ls.ops)) }
	res.Metrics["op.wall_ms"] = metric{perOp(ls.wall), "ms"}
	res.Metrics["op.residual_ms"] = metric{perOp(ls.residual), "ms"}
	for _, l := range layers {
		res.Metrics["self."+l+"_ms"] = metric{perOp(ls.self[l]), "ms"}
	}
	untracedMean := ms(plain.wall) / float64(max(1, plain.attempted))
	res.Metrics["trace.overhead_pct"] = metric{100 * (perOp(ls.wall)/untracedMean - 1), "%"}
	info["counts"] = counts
	info["traced_ops"] = ls.ops
	if cfg.traceOut != "" {
		if err := writeChromeTrace(cfg.traceOut, traced.recs); err != nil {
			return nil, nil, err
		}
	}
	return res, info, nil
}

// setUp creates the workload in a fresh temporary directory, sets it up
// and runs its warm-up pass, appending the time that took to setups and
// comparing the warm-up's work counts with those of earlier set-ups.
func setUp(cfg runConfig, setups *[]float64, counts *map[string]float64, fail func(string, ...any)) (workload, string, error) {
	dir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, "", err
	}
	w, err := newWorkload(cfg.workload, cfg.size)
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	// Collect the previous set-up's garbage before the clock starts. The
	// warm-up operations count with their latency only: the work they
	// queue with after (journaling, answer hashing) is the benchmark's.
	runtime.GC()
	t0 := time.Now()
	err = w.setup(cfg.seed, dir)
	d := time.Since(t0)
	for i := 0; err == nil && i < w.warmups(); i++ {
		var lat time.Duration
		lat, err = runOp(w, &opCtx{i: i})
		d += lat
		if err != nil {
			err = fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	if err != nil {
		w.close()
		os.RemoveAll(dir)
		return nil, "", fmt.Errorf("set-up: %w", err)
	}
	t1 := time.Now()
	runtime.GC()
	d += time.Since(t1)
	*setups = append(*setups, d.Seconds())
	c := w.repeatCounts()
	if *counts == nil {
		*counts = c
	} else if !equalCounts(*counts, c) {
		fail("work counts differ between set-ups of seed %d: %v vs %v", cfg.seed, *counts, c)
	}
	return w, dir, nil
}

// layers are the self-time table's rows, in pipeline order.
// parallel (inside controller.build) and stream (a probe on triage,
// behind the daemon on serve) have no op-path span of their own.
var layers = []string{"compile", "vm", "controller", "race", "emulation", "dynpdg", "replay", "server"}

// perLayerTimes are the per-call time metrics taken from span durations:
// the mean duration of the named op-path call (or probe).
var perLayerTimes = []string{
	"compile.cold_ms", "compile.cache_hit_ms", "compile.hydrate_ms",
	"vm.log_ms", "vm.run_ms",
	"controller.build_ms", "controller.graph_ms", "controller.resolve_ms",
	"parallel.build_ms", "race.detect_ms", "stream.monitored_run_ms",
	"dynpdg.build_ms", "replay.replayto_ms", "replay.whatif_ms",
	"server.create_ms", "server.run_ms", "server.flowback_ms", "server.delete_ms",
}

// callMS is the mean duration of the span named after the metric (its
// name without the _ms suffix), on the op path or else as a probe.
func callMS(ls *layerSplit, metricName string) float64 {
	name := metricName[:len(metricName)-len("_ms")]
	if ds := ls.calls[name]; len(ds) > 0 {
		return meanMS(ds)
	}
	return meanMS(ls.probes[name])
}

func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_kib"):
		return "KiB"
	case strings.HasSuffix(name, "_ratio"):
		return "ratio"
	}
	return "count"
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func equalCounts(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}
