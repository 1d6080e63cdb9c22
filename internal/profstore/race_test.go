package profstore

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"ipmgo/internal/ipm"
)

// syntheticXML renders synthetic job i as IPM XML bytes.
func syntheticXML(t testing.TB, seed uint64, i int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ipm.WriteXML(&buf, SyntheticProfile(seed, i)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestConcurrentIngestAndQuery is the store-level race test run under
// `make race`: many writers ingesting while readers aggregate, regress
// and list — with -race this proves the shard locking is sound.
func TestConcurrentIngestAndQuery(t *testing.T) {
	const jobs, writers, readers = 100, 8, 4
	s := New()

	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				tags := []string{fmt.Sprintf("batch:%d", i%2)}
				if _, err := s.Ingest(syntheticXML(t, 7, i), "", tags); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				s.Aggregate(AggOptions{})
				s.Regress(RegressOptions{Base: "tag:batch:0", Head: "tag:batch:1"})
				s.List()
				s.Len()
			}
		}()
	}
	for i := 0; i < jobs; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	close(done)
	rg.Wait()

	if s.Len() != jobs {
		t.Fatalf("store holds %d jobs, want %d", s.Len(), jobs)
	}
	// The finished corpus aggregates deterministically.
	a1 := aggJSON(t, s)
	a2 := aggJSON(t, s)
	if !bytes.Equal(a1, a2) {
		t.Error("aggregate differs across two reads of the same corpus")
	}
}

// TestConcurrentScanVsDecodeIngest runs the same corpus through a
// scanning store and a forced-decode store, both under concurrent
// ingest with live /agg readers, and demands byte-identical aggregates.
// Under -race this doubles as the proof that the pooled scan scratch is
// safe across goroutines.
func TestConcurrentScanVsDecodeIngest(t *testing.T) {
	const jobs, writers = 60, 8
	build := func(forceDecode bool) []byte {
		s := New()
		s.forceDecode = forceDecode
		var wg sync.WaitGroup
		work := make(chan int)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					if _, err := s.Ingest(syntheticXML(t, 13, i), "", nil); err != nil {
						t.Error(err)
						return
					}
					s.Aggregate(AggOptions{})
				}
			}()
		}
		for i := 0; i < jobs; i++ {
			work <- i
		}
		close(work)
		wg.Wait()
		return aggJSON(t, s)
	}
	fast := build(false)
	slow := build(true)
	if !bytes.Equal(fast, slow) {
		t.Errorf("scanning and decoding ingest disagree:\nscan:\n%s\ndecode:\n%s", fast, slow)
	}
}

// TestAggregateMatchesAcrossIngestPartitioning ingests the same corpus
// with 1 and with 8 workers and demands identical aggregate bytes —
// the -j-invariance property the ensemble driver established, extended
// to the store.
func TestAggregateMatchesAcrossIngestPartitioning(t *testing.T) {
	const jobs = 40
	build := func(workers int) []byte {
		s := New()
		var wg sync.WaitGroup
		work := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					if _, err := s.Ingest(syntheticXML(t, 11, i), "", nil); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		for i := 0; i < jobs; i++ {
			work <- i
		}
		close(work)
		wg.Wait()
		return aggJSON(t, s)
	}
	seq := build(1)
	par := build(8)
	if !bytes.Equal(seq, par) {
		t.Errorf("aggregate depends on ingest concurrency:\n-j1:\n%s\n-j8:\n%s", seq, par)
	}
}
