package telemetry

import (
	"strconv"
	"sync"
	"testing"
	"time"

	"ipmgo/internal/alloctest"
)

func span(name string, startMs int) Span {
	return Span{
		Track: "rank0/cpu",
		Name:  name,
		Start: time.Duration(startMs) * time.Millisecond,
		End:   time.Duration(startMs+1) * time.Millisecond,
	}
}

func TestRecorderDropOldest(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 6; i++ {
		r.Record(span(strconv.Itoa(i), i))
	}
	if got := r.Total(); got != 6 {
		t.Errorf("Total = %d, want 6", got)
	}
	if got := r.Dropped(); got != 2 {
		t.Errorf("Dropped = %d, want 2", got)
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot len = %d, want 4", len(snap))
	}
	// Oldest two were overwritten; the rest come back in recording order.
	for i, s := range snap {
		if want := strconv.Itoa(i + 2); s.Name != want {
			t.Errorf("snap[%d].Name = %q, want %q", i, s.Name, want)
		}
	}
}

func TestRecorderPartialFill(t *testing.T) {
	r := NewRecorder(8)
	r.Record(span("a", 0))
	r.Record(span("b", 1))
	if got := r.Dropped(); got != 0 {
		t.Errorf("Dropped = %d, want 0", got)
	}
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].Name != "a" || snap[1].Name != "b" {
		t.Errorf("Snapshot = %v, want [a b]", snap)
	}
	if r.Cap() != 8 {
		t.Errorf("Cap = %d, want 8", r.Cap())
	}
}

func TestRecorderDefaultCapacity(t *testing.T) {
	if got := NewRecorder(0).Cap(); got != DefaultCapacity {
		t.Errorf("Cap = %d, want DefaultCapacity %d", got, DefaultCapacity)
	}
}

func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.Record(span("x", 0)) // must not panic
	if r.Total() != 0 || r.Dropped() != 0 || r.Cap() != 0 {
		t.Errorf("nil recorder reports non-zero counters")
	}
	if snap := r.Snapshot(); snap != nil {
		t.Errorf("nil recorder Snapshot = %v, want nil", snap)
	}
}

// TestRecorderConcurrent hammers the ring from many writers while readers
// snapshot it, for the -race pass.
func TestRecorderConcurrent(t *testing.T) {
	const (
		writers = 8
		each    = 2000
	)
	r := NewRecorder(128)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Record(span(strconv.Itoa(w), i))
			}
		}()
	}
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = r.Snapshot()
					_ = r.Dropped()
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := r.Total(); got != writers*each {
		t.Errorf("Total = %d, want %d", got, writers*each)
	}
	if got := len(r.Snapshot()); got != 128 {
		t.Errorf("Snapshot len = %d, want 128", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram("lat", "help", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Errorf("Count = %d, want 5", got)
	}
	if got := h.Sum(); got != 106 {
		t.Errorf("Sum = %g, want 106", got)
	}
	// Bucket occupancy: le=1 gets 0.5 and 1; le=2 gets 1.5; le=4 gets 3;
	// +Inf gets 100.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket[%d] = %d, want %d", i, got, w)
		}
	}
	var nilH *Histogram
	nilH.Observe(1) // must not panic
	if nilH.Count() != 0 || nilH.Sum() != 0 {
		t.Errorf("nil histogram reports non-zero")
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(8, 2, 4)
	want := []float64{8, 16, 32, 64}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestSpanClassStrings(t *testing.T) {
	cases := map[SpanClass]string{
		ClassSync: "sync", ClassAsync: "async", ClassMPI: "mpi",
		ClassKernel: "kernel", ClassCopy: "copy", ClassGPU: "gpu",
		ClassRegion: "region", ClassIdle: "idle", ClassLib: "lib",
		ClassOther: "other", SpanClass(200): "other",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", c, got, want)
		}
	}
}

// spanRecordOp is the op of the SpanRecord benchmarks: one value Span
// stored into r's ring under the mutex. It is safe for concurrent use.
func spanRecordOp(r *Recorder) func() {
	s := Span{
		Track: "gpu0/strm01",
		Name:  "gemm_nn",
		Class: ClassKernel,
		Start: 10 * time.Microsecond,
		End:   35 * time.Microsecond,
		Bytes: 1 << 20,
	}
	return func() { r.Record(s) }
}

// BenchmarkSpanRecord measures the enabled-telemetry hot path. Steady
// state is 0 allocs/op — Span is a value type and the ring is
// preallocated (pinned in alloc_test.go).
func BenchmarkSpanRecord(b *testing.B) {
	r := NewRecorder(1 << 12)
	alloctest.Bench(b, spanRecordOp(r))
	if r.Total() != uint64(b.N) {
		b.Fatalf("total = %d, want %d", r.Total(), b.N)
	}
}

// BenchmarkSpanRecordParallel is the same store under contention from an
// ensemble's worth of concurrent writers.
func BenchmarkSpanRecordParallel(b *testing.B) {
	op := spanRecordOp(NewRecorder(1 << 12))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			op()
		}
	})
}
