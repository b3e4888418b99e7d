package vm

import (
	"bytes"
	"testing"

	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/logging"
	"ppd/internal/source"
	"ppd/internal/workloads"
)

// streamLogBytes runs wl under ModeLog with a streaming sink and returns the
// sink's bytes.
func streamLogBytes(t *testing.T, wl *workloads.Workload, cfg eblock.Config, seed int64, quantum int) []byte {
	t.Helper()
	art, err := compile.Compile(source.NewFile(wl.Name, wl.Src), compile.Opts{Config: cfg})
	if err != nil {
		t.Fatalf("compile %s: %v", wl.Name, err)
	}
	var sink bytes.Buffer
	v := New(art.Prog, Options{Mode: ModeLog, Seed: seed, Quantum: quantum, LogSink: &sink})
	if err := v.Run(); err != nil {
		t.Fatalf("run %s: %v", wl.Name, err)
	}
	if v.SinkErr != nil {
		t.Fatalf("sink error: %v", v.SinkErr)
	}
	if err := v.Log.Write(&bytes.Buffer{}); err == nil {
		t.Fatal("Write on a streamed log should error (records were recycled)")
	}
	return sink.Bytes()
}

// TestStreamedLogByteIdentical pins the streaming sink's core contract: the
// bytes written to the sink equal what ProgramLog.Write produces for a
// retained run of the same interleaving — across every standard workload,
// seed/quantum shape, and the sharded workload at several process counts.
func TestStreamedLogByteIdentical(t *testing.T) {
	type streamCase struct {
		name    string
		wl      *workloads.Workload
		cfg     eblock.Config
		seed    int64
		quantum int
	}
	var cases []streamCase
	for _, tc := range goldenCases() {
		cases = append(cases, streamCase{tc.name, tc.wl, tc.cfg, tc.seed, tc.quantum})
	}
	for _, nproc := range []int{1, 2, 8} {
		cases = append(cases, streamCase{
			name: "sharded_nproc" + string(rune('0'+nproc)),
			wl:   workloads.Sharded(nproc, 30), cfg: eblock.Config{}, seed: 7, quantum: 11,
		})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			retained := goldenLogBytes(t, tc.wl, tc.cfg, tc.seed, tc.quantum)
			streamed := streamLogBytes(t, tc.wl, tc.cfg, tc.seed, tc.quantum)
			if !bytes.Equal(retained, streamed) {
				t.Fatalf("streamed bytes differ from retained Write: got %d bytes, want %d bytes (first diff at %d)",
					len(streamed), len(retained), firstDiff(streamed, retained))
			}
			// The streamed artifact must load back as a normal log.
			pl, err := logging.Read(bytes.NewReader(streamed))
			if err != nil {
				t.Fatalf("re-reading streamed log: %v", err)
			}
			var rt bytes.Buffer
			if err := pl.Write(&rt); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rt.Bytes(), streamed) {
				t.Fatal("streamed log did not round-trip through Read+Write")
			}
		})
	}
}

// TestStreamedStats checks that a streamed run still reports the same Stats
// (per-kind record counts and encoded bytes) as a retained run: the book
// accumulates stats at Append time instead of scanning retained records.
func TestStreamedStats(t *testing.T) {
	tc := goldenCases()[2] // prodcons: sync records, prelogs, exits
	art, err := compile.Compile(source.NewFile(tc.wl.Name, tc.wl.Src), compile.Opts{Config: tc.cfg})
	if err != nil {
		t.Fatal(err)
	}
	run := func(sink *bytes.Buffer) *VM {
		opts := Options{Mode: ModeLog, Seed: tc.seed, Quantum: tc.quantum}
		if sink != nil {
			opts.LogSink = sink
		}
		v := New(art.Prog, opts)
		if err := v.Run(); err != nil {
			t.Fatal(err)
		}
		return v
	}
	retained := run(nil).Log.Stats()
	streamed := run(&bytes.Buffer{}).Log.Stats()
	if retained != streamed {
		t.Fatalf("streamed stats %+v != retained stats %+v", streamed, retained)
	}
}
