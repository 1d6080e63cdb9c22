package profstore

import (
	"math"
	"testing"
)

// near compares float seconds with a nanosecond of slack: every stall is
// accumulated as an integer time.Duration and converted once, so the
// only tolerance needed is the attr-parsing float->Duration rounding.
func near(got, want float64) bool { return math.Abs(got-want) < 1e-9 }

// TestIngestSubmitStall proves command-queue submit accounting survives
// store ingest: per-site Submits/SubmitStallSeconds and the report-level
// total must surface in /agg, identically through the scanner and the
// decoder. The fixture's rank 0 carries the task-level submit_stall_total
// attribute (which wins), rank 1 only per-func submit attrs (summed).
func TestIngestSubmitStall(t *testing.T) {
	const (
		rank0Stall = 0.0105                   // task attr on rank 0
		rank1Stall = 0.0042 + 0.0031 + 0.0028 // entry-sum re-derive on rank 1
	)
	for _, tc := range []struct {
		name        string
		forceDecode bool
	}{{"streaming", false}, {"decode", true}} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			s.forceDecode = tc.forceDecode
			if _, err := s.Ingest(fixture(t, "submit.xml"), "submit", nil); err != nil {
				t.Fatal(err)
			}
			rep := s.Aggregate(AggOptions{})
			if !near(rep.SubmitStallSeconds, rank0Stall+rank1Stall) {
				t.Errorf("SubmitStallSeconds = %v, want %v", rep.SubmitStallSeconds, rank0Stall+rank1Stall)
			}
			want := map[string]struct {
				submits int64
				stall   float64
			}{
				"cudaLaunch":      {80, 0.003 + 0.0028},
				"cudaMemcpy(H2D)": {80, 0.004 + 0.0042},
				"cudaMemcpy(D2H)": {80, 0.0035 + 0.0031},
				"cudaMalloc":      {0, 0},
				"MPI_Allreduce":   {0, 0},
				"@CUDA_HOST_IDLE": {0, 0},
			}
			seen := map[string]bool{}
			for _, row := range rep.CallSites {
				w, ok := want[row.Name]
				if !ok {
					continue
				}
				seen[row.Name] = true
				if row.Submits != w.submits || !near(row.SubmitStallSeconds, w.stall) {
					t.Errorf("%s: submits=%d stall=%v, want %d/%v",
						row.Name, row.Submits, row.SubmitStallSeconds, w.submits, w.stall)
				}
			}
			for name := range want {
				if !seen[name] {
					t.Errorf("call site %s missing from /agg", name)
				}
			}
		})
	}
}

// TestIngestNoSubmitAttrs pins the pre-queue report shape: a fixture
// without submit attributes aggregates to zero stall everywhere, so old
// corpora render exactly as before (omitempty drops the JSON fields).
func TestIngestNoSubmitAttrs(t *testing.T) {
	s := New()
	if _, err := s.Ingest(fixture(t, "base.xml"), "base", nil); err != nil {
		t.Fatal(err)
	}
	rep := s.Aggregate(AggOptions{})
	if rep.SubmitStallSeconds != 0 {
		t.Errorf("SubmitStallSeconds = %v for a pre-queue report, want 0", rep.SubmitStallSeconds)
	}
	for _, row := range rep.CallSites {
		if row.Submits != 0 || row.SubmitStallSeconds != 0 {
			t.Errorf("%s carries submit stats (%d, %v) from a pre-queue report",
				row.Name, row.Submits, row.SubmitStallSeconds)
		}
	}
}
