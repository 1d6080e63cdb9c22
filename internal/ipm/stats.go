// Package ipm implements the core of the IPM (Integrated Performance
// Monitoring) tool described in the paper: the performance-data hash table
// keyed by event signatures, the per-rank monitor, cross-rank aggregation,
// the banner report written at program termination, and the XML profiling
// log consumed by ipm_parse.
//
// IPM's guiding design goals, which this package preserves, are (a) a
// complete runtime event inventory rather than a trace, (b) bounded memory
// via a fixed-size open-addressing hash table — here a 4-byte slot index
// over a dense entry slice, so a rank pays for the slots plus the
// signatures it actually records, never a full entry per empty slot —
// and (c) per-event overhead small enough that monitoring can stay
// enabled for every job on a production machine.
package ipm

import (
	"math"
	"time"
)

// Stats accumulates the per-signature statistics IPM stores in each hash
// table entry: the number of calls and the total, minimum and maximum
// duration (the paper stores the average, which is Total/Count).
type Stats struct {
	Count int64
	Total time.Duration
	Min   time.Duration
	Max   time.Duration
	// Errors counts the calls (already included in Count) that returned a
	// non-success status — the per-call-site error counters the fault
	// model exports.
	Errors int64
	// Submits counts the driver command-queue submissions attributed to
	// this call site, and SubmitStall the summed enqueue→flush latency of
	// those commands. Both are zero when the run did not use command
	// queues; like Errors they merge independently of Count so the queue
	// layer can fold stall time into an entry the timing update created.
	Submits     int64
	SubmitStall time.Duration
	// Energy is the device energy attributed to this call site, in
	// integer nanojoules (1 W sustained for 1 ns). The watts→nanojoule
	// rounding happens once per observation (see EnergyNJ); every
	// aggregation from there on is an integer sum, so totals are
	// independent of merge order and ensemble parallelism. Zero when the
	// active device has no power model.
	Energy int64
}

// Add folds one observation into the statistics.
func (s *Stats) Add(d time.Duration) {
	if s.Count == 0 || d < s.Min {
		s.Min = d
	}
	if d > s.Max {
		s.Max = d
	}
	s.Count++
	s.Total += d
}

// Merge folds another accumulator into s (used for cross-rank and
// cross-signature aggregation).
func (s *Stats) Merge(o Stats) {
	// Errors merges independently of Count so an error flag can be folded
	// into an entry the timing update already created. The zero test keeps
	// the (overwhelmingly common) success path from read-modify-writing
	// the entry's error word at all.
	if o.Errors != 0 {
		s.Errors += o.Errors
	}
	if o.Submits != 0 {
		s.Submits += o.Submits
		s.SubmitStall += o.SubmitStall
	}
	// Energy, like Errors, can be folded into an entry after the timing
	// update created it (e.g. kernel energy at KTT flush time).
	if o.Energy != 0 {
		s.Energy += o.Energy
	}
	if o.Count == 0 {
		return
	}
	if s.Count == 0 || o.Min < s.Min {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
	s.Count += o.Count
	s.Total += o.Total
}

// EnergyNJ converts a power draw sustained for d into integer
// nanojoules (1 W for 1 ns is 1 nJ). This is the only float→integer
// rounding point of the energy pipeline: observers call it once per
// observation, and everything downstream sums integers.
func EnergyNJ(watts float64, d time.Duration) int64 {
	if watts <= 0 || d <= 0 {
		return 0
	}
	return int64(math.Round(watts * float64(d)))
}

// EnergyJoules renders the accumulated energy in joules for reports.
func (s Stats) EnergyJoules() float64 { return float64(s.Energy) / 1e9 }

// Avg returns the mean duration, or zero when empty.
func (s Stats) Avg() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

// Sig is an event signature — the hash key of the performance data table.
// It combines the monitored call's name with the attributes IPM folds into
// the key: the operand size in bytes and the active user region. Names
// beginning with '@' are pseudo-functions that do not correspond to a host
// call (e.g. @CUDA_EXEC_STRM00 for on-GPU execution time).
type Sig struct {
	Name   string
	Bytes  int64
	Region string
}

// Pseudo reports whether the signature is a pseudo-function entry.
func (s Sig) Pseudo() bool { return len(s.Name) > 0 && s.Name[0] == '@' }
