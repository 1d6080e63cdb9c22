package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ipmgo/internal/des"
	"ipmgo/internal/ipm"
	"ipmgo/internal/profstore"
	"ipmgo/internal/storecluster"
	"ipmgo/internal/telemetry"
)

// ---- per-layer metrics from the spans of the traced workload ----

// spanMetrics turns the workload's spans into the span-derived layer
// metrics. Only trees rooted at a client operation count: the
// correctness check's own requests also pass the wrappers and are left
// out. A layer the workload never entered reads 0.
func spanMetrics(spans []span, s *samples, out map[string]float64) {
	isIngest := func(sp *span) bool {
		return sp.Name == "POST /ingest" || sp.Name == "POST /shard/ingest"
	}
	adoptOrphans(spans,
		func(sp *span) bool { return sp.Layer == "wal" },
		func(sp *span) bool { return sp.Layer != "http" && sp.Layer != "peer" && isIngest(sp) })
	tree := buildTree(spans)

	var (
		hIngest, hAgg, httpSelf                       []float64
		routerSelf, peerLeg, slowShare                []float64
		walBytes, peerBytes                           int64
		walSyncs                                      int
		queries, queryLegs, routedIngests, ingestLegs int
		coverage                                      []float64
	)
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	var walk func(sp *span)
	walk = func(sp *span) {
		kids := tree.children[sp.ID]
		switch sp.Layer {
		case "wal":
			if sp.Name == "wal.write" {
				walBytes += sp.Bytes
			} else {
				walSyncs++
			}
		case "http":
			// Round trip minus the handler it reached: connection,
			// net/http on both sides, loopback.
			httpSelf = append(httpSelf, us(tree.self(sp)))
		case "profstore":
			switch {
			case isIngest(sp):
				hIngest = append(hIngest, us(sp.dur()))
			case sp.Name == "GET /agg" || sp.Name == "GET /shard/rollups":
				hAgg = append(hAgg, us(sp.dur()))
			}
		case "storecluster":
			legs, slowest := 0, time.Duration(0)
			for _, k := range kids {
				if k.Layer == "peer" {
					legs++
					slowest = max(slowest, k.dur())
				}
			}
			if isIngest(sp) {
				routedIngests++
				ingestLegs += legs
			} else {
				queries++
				queryLegs += legs
				routerSelf = append(routerSelf, us(tree.self(sp)))
				if sp.dur() > 0 && legs > 0 {
					slowShare = append(slowShare, 100*float64(slowest)/float64(sp.dur()))
				}
				for _, k := range kids {
					if k.Layer == "peer" {
						peerLeg = append(peerLeg, us(k.dur()))
						peerBytes += k.Bytes
					}
				}
			}
		}
		for _, k := range kids {
			walk(k)
		}
	}
	for _, root := range tree.roots {
		if root.Layer != "loadgen" || strings.HasPrefix(root.Name, "probe:") {
			continue
		}
		walk(root)
		if root.dur() > 0 {
			coverage = append(coverage, 100*float64(tree.blockingSelf(root))/float64(root.dur()))
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	out["profstore.wal_fsyncs_per_ingest"] = ratio(float64(walSyncs), s.info["posts"])
	out["profstore.wal_bytes_per_user_byte"] = ratio(float64(walBytes), s.info["user_bytes"])
	out["profstore.handler_ingest_us"] = mean(hIngest)
	out["profstore.handler_agg_us"] = mean(hAgg)
	out["profstore.http_overhead_us"] = mean(httpSelf)
	out["profstore.memo_miss_pct"] = 100 * ratio(s.info["memo_misses"], s.info["memo_reads"])
	out["profstore.poster_retries"] = s.info["poster_retries"]
	out["storecluster.router_self_us"] = mean(routerSelf)
	out["storecluster.peer_leg_us"] = mean(peerLeg)
	out["storecluster.peer_legs_per_query"] = ratio(float64(queryLegs), float64(queries))
	out["storecluster.peer_bytes_per_query"] = ratio(float64(peerBytes), float64(queries))
	out["storecluster.slowest_leg_share_pct"] = mean(slowShare)
	out["storecluster.fanout_per_ingest"] = ratio(float64(ingestLegs), float64(routedIngests))
	out["loadgen.span_coverage_pct"] = mean(coverage)
}

// classMetrics reports the per-class latencies under their own names.
func classMetrics(s *samples, out map[string]float64) {
	for _, c := range []struct {
		class string
		ps    map[string]float64
	}{
		{"ingest", map[string]float64{"p50": 50, "p95": 95, "p99": 99, "max": 100}},
		{"agg", map[string]float64{"p50": 50, "p95": 95, "p99": 99, "max": 100}},
		{"visible", map[string]float64{"p50": 50, "p95": 95}},
	} {
		xs := sortedCopy(s.lat[c.class])
		for name, p := range c.ps {
			out["loadgen."+c.class+"_"+name+"_ms"] = percentile(xs, p)
		}
	}
	if mon := s.lat["job_monitored"]; len(mon) > 0 {
		calls := s.info["calls_per_job"]
		out["loadgen.sim_calls_per_s"] = calls * s.ops / s.busy.Seconds()
		out["loadgen.monitor_overhead_ns_per_call"] = 1e6 * (median(mon) - median(s.lat["job_bare"])) / calls
		out["loadgen.alloc_mb_per_job"] = float64(s.alloc) / 1e6 / s.ops
	}
	if len(s.lat["fig8_pool"]) > 0 {
		out["loadgen.sim_jobs_per_s"] = s.ops / s.busy.Seconds()
		out["loadgen.alloc_mb_per_job"] = float64(s.alloc) / 1e6 / s.ops
	}
}

// ---- one-call probes: a layer called in a loop, outside any workload ----

// timeLoop returns ns per iteration and heap allocations per iteration
// of fn, as the best of three passes of n.
func timeLoop(n int, fn func()) (ns, allocs float64) {
	var ms0, ms1 runtime.MemStats
	for pass := 0; pass < 3; pass++ {
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		per := float64(d) / float64(n)
		if pass == 0 || per < ns {
			ns, allocs = per, float64(ms1.Mallocs-ms0.Mallocs)/float64(n)
		}
	}
	return ns, allocs
}

type nopSink struct{}

func (nopSink) Header(*ipm.ScanHeader)  {}
func (nopSink) TaskStart(*ipm.ScanTask) {}
func (nopSink) Entry(*ipm.ScanEntry)    {}
func (nopSink) TaskEnd()                {}

func microProbes(e *env, pool *docPool, out map[string]float64) error {
	n := 2_000_000
	if e.smoke {
		n = 20_000
	}
	// The hot path every monitored call takes: pre-hashed signature
	// into the per-rank table (BenchmarkObserveHot/sigref).
	m := ipm.NewMonitor(0, "host", "bench", func() time.Duration { return 0 }, 1024)
	ref := ipm.NewSigRef("cudaMemcpy(D2H)")
	out["ipm.observe_ns"], out["ipm.observe_allocs"] = timeLoop(n, func() { m.ObserveRef(ref, 1<<20, time.Microsecond) })
	tb := ipm.NewTable(1024)
	sig := ipm.Sig{Name: "cudaLaunch"}
	st := ipm.Stats{Count: 1, Total: time.Microsecond, Min: time.Microsecond, Max: time.Microsecond}
	out["ipm.table_update_ns"], _ = timeLoop(n, func() { tb.Update(sig, st) })

	rec := telemetry.NewRecorder(1 << 12)
	sp := telemetry.Span{Track: "gpu0/strm01", Name: "gemm_nn", Class: telemetry.ClassKernel, Start: 10 * time.Microsecond, End: 35 * time.Microsecond}
	out["telemetry.span_record_ns"], _ = timeLoop(n, func() { rec.Record(sp) })

	// Schedule + fire through a warm Engine, 1000 events a batch.
	eng := des.NewEngine()
	fn := func() {}
	var runErr error
	batch := func() {
		base := eng.Now()
		for j := 0; j < 1000; j++ {
			eng.Schedule(base+time.Duration(j)*time.Microsecond, fn)
		}
		if err := eng.Run(); err != nil {
			runErr = err
		}
	}
	batch()
	ns, allocs := timeLoop(n/1000, batch)
	if runErr != nil {
		return fmt.Errorf("des probe: %w", runErr)
	}
	out["des.event_ns"], out["des.event_allocs"] = ns/1000, allocs/1000

	// The three XML codecs over the workload's own document pool.
	docs := e.sz.corpus
	if docs > 256 {
		docs = 256
	}
	var total int64
	var buf bytes.Buffer
	t0 := time.Now()
	for i := 0; i < docs; i++ {
		buf.Reset()
		if err := ipm.WriteXML(&buf, pool.profiles[i]); err != nil {
			return err
		}
		total += int64(buf.Len())
	}
	mbps := func(d time.Duration) float64 { return float64(total) / 1e6 / d.Seconds() }
	out["ipm.writexml_mb_per_s"] = mbps(time.Since(t0))
	bailouts := 0
	t0 = time.Now()
	for i := 0; i < docs; i++ {
		var rep ipm.ParseReport
		ok, err := ipm.ScanXMLTolerant(pool.xml[i], nopSink{}, &rep)
		if err != nil {
			return fmt.Errorf("scan of pool document %d: %w", i, err)
		}
		if !ok {
			bailouts++
		}
	}
	out["ipm.scan_mb_per_s"] = mbps(time.Since(t0))
	out["ipm.scan_bailout_pct"] = 100 * float64(bailouts) / float64(docs)
	t0 = time.Now()
	for i := 0; i < docs; i++ {
		if _, _, err := ipm.ParseXMLTolerant(bytes.NewReader(pool.xml[i])); err != nil {
			return fmt.Errorf("parse of pool document %d: %w", i, err)
		}
	}
	out["ipm.parse_dom_mb_per_s"] = mbps(time.Since(t0))
	return nil
}

// storeProbes calls the store's own functions directly: no HTTP, one
// goroutine, a WAL at the shipped SyncEvery: 1 whose flushes, unlike the
// workloads', reach the disk: this is where the sandbox's fsync is timed.
func storeProbes(e *env, pool *docPool, out map[string]float64) error {
	dir, err := os.MkdirTemp(e.tmpRoot, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "probe.wal")
	wal := newTracer()
	st, _, err := profstore.OpenStore(path, profstore.StoreOptions{SyncEvery: 1, WrapWAL: tapWAL(wal, 0, true)})
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			st.Close()
		}
	}()
	jobs := e.sz.probeJobs
	t0 := time.Now()
	for i := 0; i < jobs; i++ {
		if _, err := st.Ingest(pool.xml[i], preloadID(i), batchTag(i%batchTags)); err != nil {
			return err
		}
	}
	out["profstore.ingest_direct_us"] = float64(time.Since(t0)) / 1e3 / float64(jobs)
	var writes, syncs []float64
	for _, sp := range wal.snapshot() {
		if sp.Name == "wal.sync" {
			syncs = append(syncs, float64(sp.dur())/1e3)
		} else {
			writes = append(writes, float64(sp.dur())/1e3)
		}
	}
	out["profstore.wal_write_us"], out["profstore.wal_fsync_us"] = mean(writes), mean(syncs)

	// Cold: the first aggregation after an ingest recomputes the rollup
	// merge. Warm: the epoch memo answers.
	opts := profstore.AggOptions{TopN: 10}
	var cold []float64
	for i := 0; i < 32; i++ {
		if _, err := st.Ingest(pool.xml[i], preloadID(i), batchTag(i%batchTags)); err != nil {
			return err
		}
		t0 = time.Now()
		st.Aggregate(opts)
		cold = append(cold, float64(time.Since(t0))/1e3)
	}
	out["profstore.agg_cold_us"] = median(cold)
	n := 200_000
	if e.smoke {
		n = 2000
	}
	out["profstore.agg_warm_ns"], _ = timeLoop(n, func() { st.Aggregate(opts) })

	wire := st.WireJobs()
	var enc []byte
	var encs, decs []float64
	for i := 0; i < 8; i++ {
		t0 = time.Now()
		if enc, err = profstore.EncodeWireJobs(wire); err != nil {
			return err
		}
		encs = append(encs, float64(time.Since(t0))/1e3/float64(len(wire)))
		t0 = time.Now()
		if _, err = profstore.DecodeWireJobs(enc); err != nil {
			return err
		}
		decs = append(decs, float64(time.Since(t0))/1e3/float64(len(wire)))
	}
	out["profstore.wire_encode_us"] = median(encs) // per job
	out["profstore.wire_decode_us"] = median(decs)
	out["profstore.wire_bytes_per_job"] = float64(len(enc)) / float64(len(wire))

	closed = true
	if err := st.Close(); err != nil {
		return err
	}
	t0 = time.Now()
	st2, rs, err := profstore.OpenStore(path, profstore.StoreOptions{SyncEvery: 1, WrapWAL: tapWAL(nil, 0, true)})
	if err != nil {
		return err
	}
	d := time.Since(t0)
	st2.Close()
	out["profstore.wal_replay_jobs_per_s"] = float64(rs.Recovered) / d.Seconds()

	urls := make([]string, e.sz.members)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://10.0.0.%d:7070", i+1)
	}
	ring, err := storecluster.NewRing(urls)
	if err != nil {
		return err
	}
	i := 0
	out["storecluster.ring_owners_ns"], _ = timeLoop(n, func() {
		ring.Owners(preloadID(i&1023), e.sz.replicas)
		i++
	})
	return nil
}

// readAmplification runs the same short read-only stream against a
// 4-member cluster and against one store holding the same corpus, and
// returns the ratio of their /agg medians: what scatter-gather costs a
// reader (the ROADMAP gate is on this ratio).
func readAmplification(e *env, pool *docPool) (float64, error) {
	quiet := *e
	quiet.trace = nil // the ratio compares two untraced systems
	p50 := func(members int) (float64, error) {
		fx, err := newFixture(&quiet, pool, members)
		if err != nil {
			return 0, err
		}
		defer fx.close()
		c := newClient(&quiet, fx, pool, 0, 0)
		defer c.close()
		c.mix = mixRead
		reads := 60
		if e.smoke {
			reads = 12
		}
		for i, done := 0, 0; done < reads; i++ {
			if o := opAt(quiet.seed, mixRead, 0, quiet.nclients, i, quiet.sz.corpus, quiet.sz.pool); o.Kind == opProbe {
				continue // reads only: both systems stay on their warm path
			}
			c.do(i)
			done++
		}
		if c.s.failed > 0 {
			return 0, fmt.Errorf("%d of %d reads failed", c.s.failed, c.s.attempted)
		}
		return median(c.s.lat["agg"]), nil
	}
	single, err := p50(1)
	if err != nil {
		return 0, err
	}
	clustered, err := p50(e.sz.members)
	if err != nil {
		return 0, err
	}
	return clustered / single, nil
}

// layerProbes runs every probe; the result is independent of the
// workload being traced except for the document pool the codecs read.
func layerProbes(e *env, pool *docPool, out map[string]float64) error {
	if err := microProbes(e, pool, out); err != nil {
		return err
	}
	if err := simProbes(e, out); err != nil {
		return err
	}
	if err := storeProbes(e, pool, out); err != nil {
		return err
	}
	amp, err := readAmplification(e, pool)
	if err != nil {
		return fmt.Errorf("read amplification: %w", err)
	}
	out["storecluster.read_amplification"] = amp
	return nil
}
