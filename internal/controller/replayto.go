package controller

import (
	"fmt"
	"sort"

	"ppd/internal/logging"
	"ppd/internal/replay"
)

// DefaultCheckpointEvery is the default record spacing between ReplayTo
// state checkpoints. At K = 64 a checkpoint costs one shallow copy of the
// global fold state per 64 records, and any restore folds at most 63
// records past its seed — the sweet spot in the E22 sweep
// (BenchmarkReplayTo).
const DefaultCheckpointEvery = 64

// ckpt is one restoration checkpoint: the postlog fold state as of record
// index upTo (exclusive). The value elements alias the log's records —
// records are immutable post-run, and both the fold and the final snapshot
// assign whole elements, so sharing is safe; only the snapshot handed to
// the caller is cloned (same contract as replay.RestoreAt).
type ckpt struct {
	upTo    int
	globals []logging.Value
}

// ReplayTo rebuilds process pid's global state as of record index idx
// (exclusive), like replay.RestoreAt, but seeded from the nearest
// checkpoint at or below idx: once a prefix has been folded, any restore
// into it costs O(CheckpointEvery) record folds instead of O(idx).
// Checkpoints encountered while folding are stored for later queries, so a
// drive-to-fault scan (restore at 1, 2, 3, ...) is linear in the log, not
// quadratic. idx is clamped to [0, len(records)].
func (c *Controller) ReplayTo(pid, idx int) (*replay.Snapshot, error) {
	if pid < 0 || pid >= len(c.Log.Books) {
		return nil, fmt.Errorf("controller: no process %d", pid)
	}
	book := c.Log.Books[pid]
	if idx < 0 {
		idx = 0
	}
	if idx > len(book.Records) {
		idx = len(book.Records)
	}
	if c.ckEvery <= 0 {
		return replay.RestoreAt(c.Art.Prog, book, idx), nil
	}

	// Seed from the greatest stored checkpoint at or below idx.
	var globals []logging.Value
	start := 0
	c.ckMu.Lock()
	cks := c.ckpts[pid]
	if j := sort.Search(len(cks), func(i int) bool { return cks[i].upTo > idx }) - 1; j >= 0 {
		globals = append([]logging.Value(nil), cks[j].globals...)
		start = cks[j].upTo
	}
	c.ckMu.Unlock()
	if globals == nil {
		globals = replay.InitialGlobals(c.Art.Prog)
	} else {
		c.cCkHits.Inc()
	}

	// Fold the remaining records exactly as replay.RestoreAt does (by
	// reference; the final snapshot clones), snapshotting the fold state
	// at each checkpoint boundary crossed.
	var fresh []ckpt
	for i, r := range book.Records[start:idx] {
		switch r.Kind {
		case logging.RecPostlog, logging.RecShPrelog, logging.RecPrelog:
			for gid, val := range r.Globals.All() {
				globals[gid] = val
			}
		}
		if b := start + i + 1; b%c.ckEvery == 0 {
			fresh = append(fresh, ckpt{upTo: b, globals: append([]logging.Value(nil), globals...)})
		}
	}
	if len(fresh) > 0 {
		c.ckMu.Lock()
		cks := c.ckpts[pid]
		for _, ck := range fresh {
			pos := sort.Search(len(cks), func(i int) bool { return cks[i].upTo >= ck.upTo })
			if pos < len(cks) && cks[pos].upTo == ck.upTo {
				continue // another query got here first
			}
			cks = append(cks, ckpt{})
			copy(cks[pos+1:], cks[pos:])
			cks[pos] = ck
			c.cCkStores.Inc()
		}
		c.ckpts[pid] = cks
		c.ckMu.Unlock()
	}

	s := &replay.Snapshot{Globals: globals, UpTo: idx}
	for gid := range s.Globals {
		s.Globals[gid] = s.Globals[gid].Clone()
	}
	return s, nil
}
