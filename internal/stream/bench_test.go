package stream_test

import (
	"testing"

	"ppd/internal/race"
	"ppd/internal/stream"
	"ppd/internal/workloads"
)

// BenchmarkStream is E20's pipeline half: over the records captured from
// one logged run, "batch" builds the full parallelism graph and runs the
// masked detector (the debugging path), and "stream" feeds the same
// records through the online pipeline in production-size batches. The
// workloads are about 10x the golden tests' sizes. ns/event is the
// pipeline's cost per edge event; highwater-edges is its live-frontier
// high-water mark, the streaming memory bound, which a process that stops
// synchronizing holds open (tokenring and prodcons, by design). A stream
// race report that differs from the batch one fails the benchmark.
func BenchmarkStream(b *testing.B) {
	for _, wl := range []*workloads.Workload{
		workloads.Relay(4, 1500),
		workloads.TokenRing(4, 1000),
		workloads.ProdCons(6000),
		workloads.Sharded(8, 400),
	} {
		cr := captureRun(b, wl.Name+".mpl", wl.Src, 1, 5)
		want := race.Report(race.Detect(cr.oracleGraph(), race.Opts{Workers: 1, Mask: cr.mask}), nil)
		b.Run(wl.Name+"/batch", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				race.Detect(cr.oracleGraph(), race.Opts{Workers: 1, Mask: cr.mask})
			}
		})
		b.Run(wl.Name+"/stream", func(b *testing.B) {
			var res *stream.Result
			for i := 0; i < b.N; i++ {
				res = onlineResult(cr, stream.DefaultBatch)
			}
			b.StopTimer()
			if got := race.Report(res.Races, nil); got != want {
				b.Fatalf("online detector diverges from the batch oracle:\n got: %swant: %s", got, want)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(res.Events), "ns/event")
			b.ReportMetric(float64(res.Highwater), "highwater-edges")
			b.ReportMetric(float64(res.Retired), "retired-edges")
		})
	}
}
