package profstore

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ipmgo/internal/faultsim"
	"ipmgo/internal/ipm"
	"ipmgo/internal/telemetry"
)

// This file is the load generator behind `ipmserve -selftest` and the
// serve e2e tests: it stands up a real HTTP server over a WAL-backed
// store, ingests a deterministic synthetic corpus from many goroutines
// while query workers hammer /agg and /jobs, and then proves the two
// acceptance properties end to end: query output is byte-identical
// across repeated reads, and byte-identical again after the store is
// killed and recovered from its WAL.

// splitmix64 steps the PRNG behind the synthetic corpus — the same
// generator faultsim uses, chosen for determinism across platforms.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

var synthKernels = []string{"dgemm_nt", "relax", "pme_forces", "fft3d", "scan_up"}
var synthCommands = []string{"./hpl", "./amber", "./paratec", "./square"}

// SyntheticProfile builds a deterministic synthetic job profile: job i
// always yields the same ranks, call sites and durations, so a corpus
// of N synthetic jobs has one canonical /agg answer.
func SyntheticProfile(seed uint64, i int) *ipm.JobProfile {
	s := splitmix64(seed ^ uint64(i)*0x9e3779b97f4a7c15)
	nranks := 2 + int(s%7)
	kernel := synthKernels[int(s>>8)%len(synthKernels)]
	command := synthCommands[i%len(synthCommands)]
	ranks := make([]ipm.RankProfile, nranks)
	for r := range ranks {
		u := splitmix64(s ^ uint64(r)*0xbf58476d1ce4e5b9)
		us := func(scale uint64) time.Duration { // bounded pseudo-random microseconds
			u = splitmix64(u)
			return time.Duration(u%scale+1) * time.Microsecond
		}
		launches := int64(20 + u%60)
		kexec := time.Duration(launches) * us(400)
		h2d := time.Duration(launches) * us(40)
		d2h := time.Duration(launches) * us(40)
		idle := kexec * 9 / 10
		mpiT := time.Duration(launches) * us(25)
		wall := kexec + h2d + d2h + mpiT + us(300_000)
		mk := func(name string, bytes, count int64, total time.Duration) ipm.Entry {
			st := ipm.Stats{Count: count, Total: total, Min: total / time.Duration(count), Max: total / time.Duration(count)}
			return ipm.Entry{Sig: ipm.Sig{Name: name, Bytes: bytes, Region: ipm.GlobalRegion}, Stats: st}
		}
		ranks[r] = ipm.RankProfile{
			Rank: r, Host: fmt.Sprintf("dirac%d", r+1), Wallclock: wall,
			Entries: []ipm.Entry{
				mk(ipm.ExecStreamName(0), 0, launches, kexec),
				mk(ipm.ExecKernelName(0, kernel), 0, launches, kexec),
				mk(ipm.HostIdleName, 0, 2*launches, idle),
				mk("cudaMemcpy(H2D)", 1<<17, launches, h2d),
				mk("cudaMemcpy(D2H)", 1<<17, launches, d2h),
				mk("cudaLaunch", 0, launches, time.Duration(launches)*5*time.Microsecond),
				mk("MPI_Allreduce", 8, launches/2+1, mpiT),
			},
		}
	}
	return ipm.NewJobProfile(command, nranks, ranks)
}

// SelfTestOptions sizes a load-generator run.
type SelfTestOptions struct {
	Jobs    int    // synthetic profiles to ingest (default 120)
	Workers int    // concurrent ingest workers (default 8)
	Readers int    // concurrent query workers during ingest (default 4)
	Seed    uint64 // corpus seed (default 2011)
	Dir     string // WAL directory (default: a fresh temp dir, removed after)
	Logf    func(format string, args ...any)
}

// SelfTestReport summarises a load-generator run.
type SelfTestReport struct {
	Jobs          int
	Ranks         int
	Queries       int64
	AggBytes      int
	IngestBytes   int64 // XML bytes posted through /ingest
	WALRecovered  int
	WALSkipped    int
	IngestElapsed time.Duration
}

// IngestMBPerSec is the end-to-end ingest throughput the run sustained:
// XML bytes posted over the wall-clock ingest phase (which includes the
// HTTP round trips and the concurrent query load).
func (r *SelfTestReport) IngestMBPerSec() float64 {
	if r.IngestElapsed <= 0 {
		return 0
	}
	return float64(r.IngestBytes) / 1e6 / r.IngestElapsed.Seconds()
}

// SelfTest runs the full ingest/query/recover cycle and returns an
// error on any determinism violation. It is the implementation of
// `ipmserve -selftest` and is also driven (race-enabled) by the serve
// e2e test.
func SelfTest(opts SelfTestOptions) (*SelfTestReport, error) {
	if opts.Jobs <= 0 {
		opts.Jobs = 120
	}
	if opts.Workers <= 0 {
		opts.Workers = 8
	}
	if opts.Readers <= 0 {
		opts.Readers = 4
	}
	if opts.Seed == 0 {
		opts.Seed = 2011
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	dir := opts.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "profstore-selftest")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	walPath := filepath.Join(dir, "profstore.wal")

	store, _, err := OpenStore(walPath, StoreOptions{})
	if err != nil {
		return nil, err
	}
	srv := NewServer(store, telemetry.NewRegistry())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	logf("selftest: serving on %s, ingesting %d jobs with %d workers", base, opts.Jobs, opts.Workers)

	rep := &SelfTestReport{Jobs: opts.Jobs}
	start := time.Now()
	var queries atomic.Int64
	var errMu sync.Mutex
	var firstErr error
	record := func(err error) {
		if err == nil {
			return
		}
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	failed := func() error {
		errMu.Lock()
		defer errMu.Unlock()
		return firstErr
	}

	// Query workers: hammer the read endpoints while the corpus grows.
	done := make(chan struct{})
	var readers sync.WaitGroup
	for q := 0; q < opts.Readers; q++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			paths := []string{"/agg", "/jobs", "/agg?format=html", "/metrics"}
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if _, err := httpGet(base + paths[i%len(paths)]); err != nil {
					record(fmt.Errorf("selftest: query during ingest: %w", err))
					return
				}
				queries.Add(1)
			}
		}()
	}

	// Ingest workers: each renders and posts its share of the synthetic
	// corpus, counting the XML bytes that cross the wire so the report
	// can state the end-to-end ingest throughput.
	poster := &Poster{URL: base, Policy: faultsim.RetryPolicy{MaxAttempts: 4}}
	jobs := make(chan int)
	var ingestBytes atomic.Int64
	var writers sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			var buf bytes.Buffer
			for i := range jobs {
				buf.Reset()
				if err := ipm.WriteXML(&buf, SyntheticProfile(opts.Seed, i)); err != nil {
					record(fmt.Errorf("selftest: encoding job %d: %w", i, err))
					return
				}
				xml := buf.Bytes()
				tags := []string{"selftest", fmt.Sprintf("batch:%d", i%2)}
				if _, err := poster.PostXML(xml, DeriveID(xml), tags); err != nil {
					record(fmt.Errorf("selftest: ingest job %d: %w", i, err))
					return
				}
				ingestBytes.Add(int64(len(xml)))
			}
		}()
	}
	for i := 0; i < opts.Jobs; i++ {
		jobs <- i
	}
	close(jobs)
	writers.Wait()
	close(done)
	readers.Wait()
	rep.IngestElapsed = time.Since(start)
	rep.Queries = queries.Load()
	rep.IngestBytes = ingestBytes.Load()
	if err := failed(); err != nil {
		hs.Close()
		store.Close()
		return rep, err
	}
	if store.Len() != opts.Jobs {
		hs.Close()
		store.Close()
		return rep, fmt.Errorf("selftest: store holds %d jobs, want %d", store.Len(), opts.Jobs)
	}
	rep.Ranks = store.RankCount()

	// Determinism across repeated queries on the live store.
	aggURL := base + "/agg?sel=tag:selftest"
	regURL := base + "/regress?base=tag:batch:0&head=tag:batch:1&threshold=5"
	agg1, err := httpGet(aggURL)
	record(err)
	agg2, err := httpGet(aggURL)
	record(err)
	reg1, err := httpGet(regURL)
	record(err)
	reg2, err := httpGet(regURL)
	record(err)
	if err := failed(); err != nil {
		hs.Close()
		store.Close()
		return rep, err
	}
	if !bytes.Equal(agg1, agg2) {
		hs.Close()
		store.Close()
		return rep, fmt.Errorf("selftest: /agg differs between two reads of the same corpus")
	}
	if !bytes.Equal(reg1, reg2) {
		hs.Close()
		store.Close()
		return rep, fmt.Errorf("selftest: /regress differs between two reads of the same corpus")
	}
	rep.AggBytes = len(agg1)

	// Kill and recover: the WAL replay must reproduce the corpus and
	// answer /agg and /regress byte-identically.
	hs.Close()
	if err := store.Close(); err != nil {
		return rep, err
	}
	store2, st, err := OpenStore(walPath, StoreOptions{})
	if err != nil {
		return rep, err
	}
	defer store2.Close()
	rep.WALRecovered, rep.WALSkipped = st.Recovered, st.Skipped
	if store2.Len() != opts.Jobs {
		return rep, fmt.Errorf("selftest: WAL recovery yielded %d jobs, want %d", store2.Len(), opts.Jobs)
	}
	srv2 := NewServer(store2, telemetry.NewRegistry())
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return rep, err
	}
	hs2 := &http.Server{Handler: srv2.Handler()}
	go hs2.Serve(ln2)
	defer hs2.Close()
	base2 := "http://" + ln2.Addr().String()
	agg3, err := httpGet(base2 + "/agg?sel=tag:selftest")
	if err != nil {
		return rep, err
	}
	reg3, err := httpGet(base2 + "/regress?base=tag:batch:0&head=tag:batch:1&threshold=5")
	if err != nil {
		return rep, err
	}
	if !bytes.Equal(agg1, agg3) {
		return rep, fmt.Errorf("selftest: /agg differs after WAL recovery (%d vs %d bytes)", len(agg1), len(agg3))
	}
	if !bytes.Equal(reg1, reg3) {
		return rep, fmt.Errorf("selftest: /regress differs after WAL recovery")
	}
	logf("selftest: %d jobs (%d ranks, %.1f MB) ingested in %v (%.1f MB/s end to end), %d queries served concurrently, /agg deterministic (%d bytes) incl. after WAL recovery of %d records",
		rep.Jobs, rep.Ranks, float64(rep.IngestBytes)/1e6, rep.IngestElapsed.Round(time.Millisecond), rep.IngestMBPerSec(), rep.Queries, rep.AggBytes, rep.WALRecovered)
	return rep, nil
}

// getClient bounds every harness read (selftest and soak queries, soak
// readiness polls): a child that accepts connections but never answers
// fails the run instead of hanging it.
var getClient = &http.Client{Timeout: 10 * time.Second}

// httpGet fetches one URL body, demanding a 200.
func httpGet(url string) ([]byte, error) {
	resp, err := getClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}
