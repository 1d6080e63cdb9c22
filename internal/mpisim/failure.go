package mpisim

import (
	"fmt"
	"sort"
)

// RankFailedError reports that an MPI operation failed because a rank in
// the communicator has died. Matching real MPI, a single rank failure
// breaks the whole communicator for collective operations — surviving
// ranks get this error instead of hanging.
type RankFailedError struct {
	Rank int
}

func (e *RankFailedError) Error() string {
	return fmt.Sprintf("mpisim: rank %d failed", e.Rank)
}

// Is makes errors.Is match any RankFailedError regardless of rank.
func (e *RankFailedError) Is(target error) bool {
	_, ok := target.(*RankFailedError)
	return ok
}

// ErrRankFailed is the errors.Is sentinel for communicator failures.
var ErrRankFailed = &RankFailedError{Rank: -1}

// MarkFailed declares a rank dead. Pending collectives fail immediately
// for every rank already waiting in them, posted receives matching the
// dead source fail, and future sends to or collective calls touching the
// communicator return a *RankFailedError. Idempotent; safe to call from
// event context.
//
// Determinism note: pending collectives are failed in sorted key order
// (kind, then sequence number) so the wake-up order of blocked ranks
// never depends on map iteration order.
func (w *World) MarkFailed(rank int) {
	if rank < 0 || rank >= w.size {
		return
	}
	if w.failed == nil {
		w.failed = make([]bool, w.size)
	}
	if w.failed[rank] {
		return
	}
	w.failed[rank] = true
	if w.nFailed == 0 {
		w.firstFail = rank
	}
	w.nFailed++
	err := &RankFailedError{Rank: rank}

	// Fail every pending collective: all waiting ranks wake with the error.
	keys := make([]collKey, 0, len(w.colls))
	for k := range w.colls {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].kind != keys[j].kind {
			return keys[i].kind < keys[j].kind
		}
		return keys[i].seq < keys[j].seq
	})
	for _, k := range keys {
		st := w.colls[k]
		delete(w.colls, k)
		st.err = err
		for i := range st.done {
			st.done[i].Fire()
		}
	}

	// Fail posted receives that can only be satisfied by the dead rank.
	for dst := range w.posted {
		kept := w.posted[dst][:0]
		for _, r := range w.posted[dst] {
			if r.src == rank {
				r.req.err = err
				r.req.sig.Fire()
				continue
			}
			kept = append(kept, r)
		}
		w.posted[dst] = kept
	}
}

// Failed reports whether the rank has been marked failed.
func (w *World) Failed(rank int) bool {
	return w.failed != nil && rank >= 0 && rank < w.size && w.failed[rank]
}

// FailedCount returns the number of failed ranks.
func (w *World) FailedCount() int { return w.nFailed }

// failedErr returns the communicator-wide failure, or nil while all ranks
// are alive. The first failed rank is reported, matching the error
// surviving ranks saw when their collective broke.
func (w *World) failedErr() error {
	if w.nFailed == 0 {
		return nil
	}
	return &RankFailedError{Rank: w.firstFail}
}
