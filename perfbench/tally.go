package main

import (
	"ppd"
	"ppd/internal/obs"
)

// tally accumulates, over the traced phase, the program's own counters
// (merged Stats deltas) and the benchmark's per-layer counts, and turns
// them into the per-layer counter metrics.
type tally struct {
	snap *ppd.Stats

	runs       int // logged runs whose exec.* counters are in snap
	edges      int // parallel-graph edges, over edgeRuns graphs
	edgeRuns   int
	raceRuns   int // race detections whose race.* counters are in snap
	buckets    int // per-variable buckets those detections could scan
	streamRuns int // monitored runs, with their frontier counters
	streamEv   int64
	streamRet  int64
	streamHigh int64
	graphs     int // dynamic graphs built by probes, with their nodes
	nodes      int
	replays    int // ReplayTo calls
}

func newTally() *tally { return &tally{snap: obs.New().Snapshot()} }

// add folds a counter snapshot (already a delta) into the tally.
func (t *tally) add(s *ppd.Stats) { t.snap.Merge(s) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (t *tally) metrics(ops int) map[string]float64 {
	c := func(name string) float64 { return float64(t.snap.Counter(name)) }
	runs := float64(t.runs)
	emu := t.snap.Timer("debug.emulate")
	m := map[string]float64{
		"compile.cache_hit_ratio": ratio(c("compile.cache.hits"), c("compile.cache.hits")+c("compile.cache.misses")),
		"vm.steps_per_run":        ratio(c("exec.steps"), runs),
		"logging.prelog_kib":      ratio(c("exec.log.bytes.prelog"), runs) / 1024,
		"logging.postlog_kib":     ratio(c("exec.log.bytes.postlog"), runs) / 1024,
		"logging.shprelog_kib":    ratio(c("exec.log.bytes.shprelog"), runs) / 1024,
		"logging.sync_kib":        ratio(c("exec.log.bytes.sync"), runs) / 1024,
		"controller.cache_hit_ratio": ratio(c("debug.cache.hits"),
			c("debug.cache.hits")+c("debug.cache.misses")),
		"parallel.edges_per_run": ratio(float64(t.edges), float64(t.edgeRuns)),
		"race.pairs_per_run":     ratio(c("race.pairs"), float64(t.raceRuns)),
		"race.pruned_ratio":      ratio(c("race.buckets.pruned"), float64(t.buckets)),
		"stream.highwater_edges": ratio(float64(t.streamHigh), float64(t.streamRuns)),
		"stream.retired_ratio":   ratio(float64(t.streamRet), float64(t.streamEv)),
		"emulation.emulate_ms":   ratio(float64(emu.TotalNS), float64(emu.Count)) / 1e6,
		"emulation.pool_hit_ratio": ratio(c("debug.emu.pool.hits"),
			c("debug.emu.pool.hits")+c("debug.emu.pool.misses")),
		"emulation.fast_ratio": ratio(c("debug.emu.dispatch.fast"),
			c("debug.emu.dispatch.fast")+c("debug.emu.dispatch.cold")),
		"dynpdg.nodes_per_graph":  ratio(float64(t.nodes), float64(t.graphs)),
		"replay.ckpt_hit_ratio":   ratio(c("debug.emu.ckpt.hits"), float64(t.replays)),
		"server.rejected":         c("server.rejected.busy") + c("server.rejected.saturated"),
		"server.http_overhead_ms": 0, // serve's layerCounters sets it
		"sched.tasks_per_op":      ratio(c("sched.tasks"), float64(ops)),
		"sched.wait_ms":           ratio(float64(t.snap.Timer("sched.wait").TotalNS), float64(ops)) / 1e6,
	}
	return m
}

// delta returns cur minus prev, counter by counter and timer by timer
// (count and total only), for snapshots of one monotonically growing sink.
func delta(cur, prev *ppd.Stats) *ppd.Stats {
	out := obs.New().Snapshot()
	for k, v := range cur.Counters {
		if d := v - prev.Counters[k]; d != 0 {
			out.Counters[k] = d
		}
	}
	for k, ts := range cur.Timers {
		p := prev.Timers[k]
		if ts.Count != p.Count {
			out.Timers[k] = obs.TimerStat{Count: ts.Count - p.Count, TotalNS: ts.TotalNS - p.TotalNS}
		}
	}
	return out
}
