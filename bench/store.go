package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"ipmgo/internal/profstore"
	"ipmgo/internal/telemetry"
)

// ---- the three store workloads ----

type storeWorkload struct {
	mix     mixKind
	members int
	// publishShare is the part of each time box, at its end, in which the
	// clients send publish probes only. Throughput and per-op costs are
	// taken over the mixed part; the publish part only adds ingest and
	// visible latency samples, where the mix alone leaves too few.
	publishShare float64
	pool         *docPool
	rounds       int
}

func (w *storeWorkload) prepare(e *env) (err error) {
	w.pool, err = renderPool(e)
	return err
}

func (w *storeWorkload) setUp(e *env) (round, error) {
	fx, err := newFixture(e, w.pool, w.members)
	if err != nil {
		return nil, err
	}
	w.rounds++
	return &storeRound{w: w, e: e, fx: fx, n: w.rounds}, nil
}

type storeRound struct {
	w     *storeWorkload
	e     *env
	fx    *fixture
	n     int
	acked map[string]write // last acknowledged write per id, all clients
}

// runPhase runs every client's closed loop on one mix, from operation
// index from, until stop says so; it returns the wall time and the index
// the furthest client reached.
func runPhase(clients []*client, mix mixKind, from int, stop func(i int, elapsed time.Duration) bool) (time.Duration, int) {
	start := time.Now()
	reached := make([]int, len(clients))
	var wg sync.WaitGroup
	for k, c := range clients {
		wg.Add(1)
		go func(k int, c *client) {
			defer wg.Done()
			c.mix = mix
			i := from
			for ; !stop(i-from, time.Since(start)); i++ {
				c.do(i)
			}
			reached[k] = i
		}(k, c)
	}
	wg.Wait()
	return time.Since(start), slices.Max(reached)
}

// measure runs the closed loop: e.nclients clients, each sending its
// next operation when the previous one completed.
func (r *storeRound) measure(box time.Duration, s *samples) error {
	clients := make([]*client, r.e.nclients)
	for i := range clients {
		clients[i] = newClient(r.e, r.fx, r.w.pool, i, r.n)
		defer clients[i].close()
	}
	perClient := r.e.sz.writeRoundOps / r.e.nclients
	publishBox := time.Duration(float64(box) * r.w.publishShare)
	mixBox := box - publishBox
	u0 := readUsage()
	elapsed, next := runPhase(clients, r.w.mix, 0, func(i int, el time.Duration) bool {
		return box > 0 && el >= mixBox || box == 0 && i == perClient
	})
	u1 := readUsage()
	done := 0
	for _, c := range clients {
		done += c.s.attempted - c.s.failed
	}
	s.measured += elapsed
	if publishBox > 0 {
		el, _ := runPhase(clients, mixPublish, next, func(_ int, el time.Duration) bool { return el >= publishBox })
		s.measured += el
	}

	r.acked = map[string]write{}
	for _, c := range clients {
		s.merge(c.s)
		if c.firstErr != nil {
			r.e.logf("  %d of client %d's operations failed, the first: %v", c.s.failed, c.idx, c.firstErr)
		}
		for id, w := range c.acked { // ids are partitioned by client
			r.acked[id] = w
		}
		s.info["user_bytes"] += float64(c.bytes)
		for _, p := range c.posters {
			st := p.Stats()
			s.info["posts"] += float64(st.Posts)
			s.info["poster_retries"] += float64(st.Retries)
		}
	}
	s.ops += float64(done)
	s.busy += elapsed
	s.alloc += u1.alloc - u0.alloc
	s.cpu += u1.cpu - u0.cpu
	s.info["memo_reads"] += float64(r.fx.counts.memoReads.Load())
	s.info["memo_misses"] += float64(r.fx.counts.memoMisses.Load())
	return nil
}

// checkQueries are compared byte for byte with the reference store.
// /jobs parses every selected job's document into a DOM on both sides,
// so it is asked for one batch, a seventh of the corpus, not for all.
var checkQueries = []string{
	"/agg",
	"/agg?top=10",
	"/agg?sel=tag:batch:3",
	"/jobs?sel=tag:batch:5",
	"/regress?base=tag:batch:0&head=tag:batch:1&threshold=5",
}

// referenceBodies answers checkQueries from a fresh in-memory store
// holding the preload overwritten, last write wins, by every
// acknowledged write.
func (r *storeRound) referenceBodies() ([][]byte, error) {
	ref := profstore.New()
	defer ref.Close()
	ingest := func(id string, w write) error {
		_, err := ref.Ingest(r.w.pool.xml[w.doc], id, batchTag(w.tag))
		return err
	}
	for i := 0; i < r.e.sz.corpus; i++ {
		id := preloadID(i)
		w, replaced := r.acked[id]
		if !replaced {
			w = write{i, i % batchTags}
		}
		if r.e.corrupt && i == 0 {
			w.doc++ // the reference now holds a document the system never saw under this id
		}
		if err := ingest(id, w); err != nil {
			return nil, err
		}
	}
	for id, w := range r.acked {
		if strings.HasPrefix(id, "bench-") {
			if err := ingest(id, w); err != nil {
				return nil, err
			}
		}
	}
	h := profstore.NewServer(ref, telemetry.NewRegistry()).Handler()
	bodies := make([][]byte, len(checkQueries))
	for i, q := range checkQueries {
		var err error
		if bodies[i], err = serveLocal(h, q); err != nil {
			return nil, err
		}
	}
	return bodies, nil
}

func serveLocal(h http.Handler, path string) ([]byte, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d", path, rec.Code)
	}
	return rec.Body.Bytes(), nil
}

// check compares /agg, /jobs and /regress bytes from every member with
// the reference store. On the run's final round of the write workload
// it closes the store, reopens it from the same WAL and compares again:
// every acknowledged write must survive the restart.
func (r *storeRound) check(final bool) error {
	if r.w.mix == mixWrite && !final {
		// The full comparison re-ingests every write; on the earlier
		// rounds the corpus size is checked and the bytes are not.
		want := r.e.sz.corpus + len(r.acked)
		if got := r.fx.members[0].store.Len(); got != want {
			return fmt.Errorf("store holds %d jobs, %d acknowledged", got, want)
		}
		return nil
	}
	want, err := r.referenceBodies()
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	hc := &http.Client{Timeout: 30 * time.Second}
	defer hc.CloseIdleConnections()
	for _, m := range r.fx.members {
		for i, q := range checkQueries {
			got, err := httpGet(hc, m.url+q)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want[i]) {
				return fmt.Errorf("%s from member %d differs from the reference store (%d vs %d bytes)", q, m.idx, len(got), len(want[i]))
			}
		}
	}
	if r.w.mix != mixWrite {
		return nil
	}
	m := r.fx.members[0]
	m.srv.Close()
	if err := m.store.Close(); err != nil {
		return err
	}
	// Three stores' worth of parsed documents would otherwise pile up
	// as garbage before the collector's next cycle.
	runtime.GC()
	st, _, err := profstore.OpenStore(m.walPath, profstore.StoreOptions{SyncEvery: 1, WrapWAL: tapWAL(nil, 0, false)})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	m.store, m.srv = st, nil
	h := profstore.NewServer(st, telemetry.NewRegistry()).Handler()
	for i, q := range checkQueries {
		got, err := serveLocal(h, q)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want[i]) {
			return fmt.Errorf("%s differs from the reference store after Close + OpenStore on the same WAL", q)
		}
	}
	return nil
}

func (r *storeRound) close() error { return r.fx.close() }
