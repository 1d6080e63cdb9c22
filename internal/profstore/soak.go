package profstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ipmgo/internal/faultsim"
	"ipmgo/internal/ipm"
	"ipmgo/internal/telemetry"
)

// This file is the one store harness, behind `ipmserve -soak` /
// `make soak`, `ipmserve -selftest` / `make serve-load` and the serve
// e2e test. It runs Members servers, each over its own WAL in a scratch
// directory: re-executed ipmserve children (one plain server, or a
// cluster when Members > 1), or — when ServerCmd is empty — one member
// in this process, so a -race test covers the store and its handlers.
// It sustains concurrent ingest through rotating routers while Readers
// query the members, kills a member mid-ingest at deterministic points
// in the ack stream and restarts it each time, then stops every member
// gracefully and restarts it cold. A child's kill is a SIGKILL, the
// crash being simulated; the in-process member's kill closes its
// listener and store without a snapshot. The run is gated on the
// durability contract, on the live members and again after the final
// restart:
//
//   - zero lost acknowledged jobs: every profile any member acked with
//     a 2xx is present in /jobs;
//   - byte-identical queries from EVERY member: /agg, /jobs and
//     /regress, each read twice (the second read is a memo hit), answer
//     exactly like a never-killed in-process single-node store over the
//     same documents.
//
// In a cluster, quorum writes make the first gate honest: an ack means
// R/2+1 owners persisted the document before the kill, so any single
// member's death cannot lose it. Content-derived ids make the second
// gate exact even for documents that were persisted but killed before
// the ack, or re-posted through a different router: the re-ingest
// replaces the job with identical bytes.

// SoakOptions sizes a soak run.
type SoakOptions struct {
	// ServerCmd is the argv of the child server; the harness appends
	// -addr, -wal, -compact-every and -snapshot-on-exit, plus -peers,
	// -self and -replicas when Members > 1. Typically the running
	// ipmserve binary itself (os.Executable). Empty runs one member in
	// this process (Members must then be 1).
	ServerCmd []string
	Members   int // server processes; 1 = one plain server (default 1)
	Replicas  int // copies per job when Members > 1 (default 2, at most Members)
	Jobs      int // synthetic profiles to ingest (default 200)
	Workers   int // concurrent ingest workers (default 4)
	Readers   int // concurrent query workers during ingest (0 = none)
	Cycles    int // kill/restart cycles (0 = none)
	// CompactEvery is forwarded to every member so snapshots and WAL
	// truncation happen under fire (default 32 appends; -1 disables).
	CompactEvery int
	Timeout      time.Duration // wall-clock budget (default 120s)
	Seed         uint64        // corpus seed (default 2011)
	Dir          string        // scratch dir (default: fresh temp, removed)
	Logf         func(format string, args ...any)
}

// SoakReport summarises a soak run.
type SoakReport struct {
	Members       int
	Replicas      int
	Jobs          int
	Ranks         int // rank snapshots in the corpus
	Kills         int
	Restarts      int
	Acked         int   // jobs acknowledged with a 2xx by some member
	Retried       int64 // posts that needed more than one round
	Queries       int64 // reads the Readers completed during ingest
	IngestBytes   int64 // XML bytes of the acked posts
	IngestElapsed time.Duration
	WALRecovered  int // records the in-process member replayed at the final restart
	AggBytes      int // size of the (verified identical) /agg body
	Elapsed       time.Duration
}

// IngestMBPerSec is the end-to-end ingest throughput the run sustained:
// acked XML bytes over the wall-clock ingest phase (which includes the
// HTTP round trips, the kill windows and the concurrent query load).
func (r *SoakReport) IngestMBPerSec() float64 {
	if r.IngestElapsed <= 0 {
		return 0
	}
	return float64(r.IngestBytes) / 1e6 / r.IngestElapsed.Seconds()
}

// setDefaults fills the zero fields and clamps Replicas to Members.
// Readers and Cycles keep their zero values.
func (o *SoakOptions) setDefaults() {
	if o.Members <= 0 {
		o.Members = 1
	}
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.Replicas > o.Members {
		o.Replicas = o.Members
	}
	if o.Jobs <= 0 {
		o.Jobs = 200
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.CompactEvery == 0 {
		o.CompactEvery = 32
	}
	if o.Timeout <= 0 {
		o.Timeout = 120 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 2011
	}
}

// memberArgv is member i's child argv. A lone member runs the plain
// server, so that path keeps its own coverage; a cluster member also
// learns the full membership, its own URL and the replication factor.
// Restarts reuse the same argv, so recovery replays the member's
// snapshot + WAL into the same ring position.
func (o *SoakOptions) memberArgv(i int, urls []string, dir string) []string {
	argv := append(append([]string{}, o.ServerCmd...),
		"-addr", strings.TrimPrefix(urls[i], "http://"),
		"-wal", memberWAL(dir, i),
		"-compact-every", fmt.Sprint(o.CompactEvery),
		"-snapshot-on-exit")
	if o.Members > 1 {
		argv = append(argv,
			"-peers", strings.Join(urls, ","),
			"-self", urls[i],
			"-replicas", fmt.Sprint(o.Replicas))
	}
	return argv
}

func memberWAL(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("member%d.wal", i))
}

// soakMember is one server the harness kills and restarts.
type soakMember interface {
	start() error
	// kill stops the member without its graceful exit path; a no-op on a
	// member that is not running.
	kill()
	// stop is the graceful exit, which must succeed.
	stop(deadline time.Time) error
}

// soakChild is one managed ipmserve subprocess.
type soakChild struct {
	argv []string
	url  string
	cmd  *exec.Cmd
}

func (c *soakChild) start() error {
	cmd := exec.Command(c.argv[0], c.argv[1:]...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("soak: starting server %s: %w", c.url, err)
	}
	c.cmd = cmd
	return nil
}

// kill SIGKILLs the child — no flush, no goodbye; the crash being
// simulated — and reaps it.
func (c *soakChild) kill() {
	if c.cmd == nil {
		return
	}
	c.cmd.Process.Kill()
	c.cmd.Wait()
	c.cmd = nil
}

// stop sends SIGTERM and requires a clean exit: the graceful shutdown
// path (drain, flush, snapshot) must finish with status 0.
func (c *soakChild) stop(deadline time.Time) error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("soak: SIGTERM %s: %w", c.url, err)
	}
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		c.cmd = nil
		if err != nil {
			return fmt.Errorf("soak: server %s exited uncleanly after SIGTERM: %w", c.url, err)
		}
		return nil
	case <-time.After(time.Until(deadline)):
		c.cmd.Process.Kill()
		<-done
		c.cmd = nil
		return fmt.Errorf("soak: server %s did not exit within deadline after SIGTERM", c.url)
	}
}

// soakLocal is the in-process member: OpenStore, NewServer and a
// listener on the member's reserved port.
type soakLocal struct {
	url, wal     string
	compactEvery int
	store        *Store
	hs           *http.Server
	recovered    int // records the last start replayed (snapshot + WAL)
}

func (l *soakLocal) start() error {
	store, st, err := OpenStore(l.wal, StoreOptions{CompactEvery: l.compactEvery})
	if err != nil {
		return fmt.Errorf("soak: opening %s: %w", l.wal, err)
	}
	ln, err := net.Listen("tcp", strings.TrimPrefix(l.url, "http://"))
	if err != nil {
		store.Close()
		return fmt.Errorf("soak: listening on %s: %w", l.url, err)
	}
	l.store, l.recovered = store, st.Recovered
	l.hs = &http.Server{Handler: NewServer(store, telemetry.NewRegistry()).Handler()}
	go l.hs.Serve(ln)
	return nil
}

// kill closes the listener, every connection and the store, without a
// snapshot. It is a close, not a crash: Close still flushes the WAL.
func (l *soakLocal) kill() {
	if l.store == nil {
		return
	}
	l.hs.Close()
	l.store.Close()
	l.store = nil
}

// stop is the graceful exit: Snapshot, then Close. Ingest and the
// readers are done whenever the harness stops a member, so closing the
// listener is the whole drain.
func (l *soakLocal) stop(time.Time) error {
	l.hs.Close()
	_, err := l.store.Snapshot()
	if cerr := l.store.Close(); err == nil {
		err = cerr
	}
	l.store = nil
	if err != nil {
		return fmt.Errorf("soak: in-process member %s: graceful exit: %w", l.url, err)
	}
	return nil
}

// waitReady polls /readyz until the member at url accepts writes.
func waitReady(url string, deadline time.Time) error {
	for time.Now().Before(deadline) {
		resp, err := getClient.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("soak: server %s not ready before deadline", url)
}

// soakQueries are the gated queries; readerPaths rotate under ingest.
var (
	soakQueries = []string{
		"/agg?sel=tag:soak",
		"/jobs",
		"/regress?base=tag:batch:0&head=tag:batch:1&threshold=5",
	}
	readerPaths = []string{"/agg", "/jobs", "/agg?format=html", "/metrics"}
)

// Soak runs the harness. Any lost acknowledged job, query divergence
// from the never-killed reference on any member, failed read outside a
// kill window, or unclean shutdown is an error.
func Soak(opts SoakOptions) (*SoakReport, error) {
	inProcess := len(opts.ServerCmd) == 0
	if inProcess && opts.Members > 1 {
		return nil, fmt.Errorf("soak: Members=%d needs a ServerCmd: an empty ServerCmd runs one in-process member, which cannot route", opts.Members)
	}
	opts.setDefaults()
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	dir := opts.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "profstore-soak")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	start := time.Now()
	deadline := start.Add(opts.Timeout)
	rep := &SoakReport{Members: opts.Members, Replicas: opts.Replicas, Jobs: opts.Jobs}

	// Reserve one port per member by binding and releasing it; Go
	// listeners set SO_REUSEADDR, so the rebinds race nothing but our
	// own dead members.
	urls := make([]string, opts.Members)
	for i := range urls {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return rep, err
		}
		urls[i] = "http://" + ln.Addr().String()
		ln.Close()
	}

	// Render the corpus once: the same bytes go to the members and the
	// in-process single-node reference store.
	type doc struct {
		xml  []byte
		id   string
		tags []string
	}
	docs := make([]doc, opts.Jobs)
	ref := New()
	for i := range docs {
		var buf bytes.Buffer
		if err := ipm.WriteXML(&buf, SyntheticProfile(opts.Seed, i)); err != nil {
			return rep, fmt.Errorf("soak: encoding job %d: %w", i, err)
		}
		xml := append([]byte(nil), buf.Bytes()...)
		d := doc{xml: xml, id: DeriveID(xml), tags: []string{"soak", fmt.Sprintf("batch:%d", i%2)}}
		docs[i] = d
		if _, err := ref.Ingest(d.xml, d.id, d.tags); err != nil {
			return rep, fmt.Errorf("soak: reference ingest %d: %w", i, err)
		}
	}
	rep.Ranks = ref.RankCount()

	members := make([]soakMember, opts.Members)
	var local *soakLocal
	for i := range members {
		if inProcess {
			local = &soakLocal{url: urls[i], wal: memberWAL(dir, i), compactEvery: opts.CompactEvery}
			members[i] = local
		} else {
			members[i] = &soakChild{argv: opts.memberArgv(i, urls, dir), url: urls[i]}
		}
	}
	defer func() {
		for _, m := range members {
			m.kill()
		}
	}()
	startAll := func() error {
		for _, m := range members {
			if err := m.start(); err != nil {
				return err
			}
		}
		for _, u := range urls {
			if err := waitReady(u, deadline); err != nil {
				return err
			}
		}
		return nil
	}
	stopAll := func() error {
		for _, m := range members {
			if err := m.stop(deadline); err != nil {
				return err
			}
		}
		return nil
	}
	if err := startAll(); err != nil {
		return rep, err
	}
	logf("soak: %d member(s) on %s (replicas=%d, in-process=%v), %d jobs, %d workers, %d readers, %d kill cycles",
		opts.Members, strings.Join(urls, ","), opts.Replicas, inProcess, opts.Jobs, opts.Workers, opts.Readers, opts.Cycles)

	// Ingest workers: each owns a shard of the corpus and retries every
	// document until some member acks it, rotating the router per round
	// so a dead member never wedges a worker. A 503+Retry-After (a
	// router short of write quorum) is not waited out inside the
	// Poster: it falls through to the next router after 25 ms. A worker
	// moves on only after a 2xx, so once ingest is done every document
	// is acked, and the zero-loss gate below is "acked implies present".
	var (
		acked, retried, ingestBytes, queries atomic.Int64
		// window counts kill-window edges: odd while a member is down
		// or restarting. A read that fails while it stays even and
		// unchanged fails the run.
		window atomic.Int64
	)
	errc := make(chan error, opts.Workers+opts.Readers+1)
	ingestStart := time.Now()
	var workers sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			posters := make([]*Poster, opts.Members)
			for m := range posters {
				posters[m] = &Poster{
					URL: urls[m],
					Policy: faultsim.RetryPolicy{
						MaxAttempts: 2,
						Backoff:     faultsim.Dur(10 * time.Millisecond),
						MaxBackoff:  faultsim.Dur(100 * time.Millisecond),
					},
					ReadOnlyAttempts: 1,
					Client:           &http.Client{Timeout: 5 * time.Second},
				}
			}
			for i := w; i < len(docs); i += opts.Workers {
				d := docs[i]
				rounds := 0
				for {
					if time.Now().After(deadline) {
						errc <- fmt.Errorf("soak: deadline while ingesting job %d", i)
						return
					}
					_, err := posters[(i+rounds)%opts.Members].PostXML(d.xml, d.id, d.tags)
					if err == nil {
						break
					}
					rounds++
					time.Sleep(25 * time.Millisecond) // a member is restarting
				}
				if rounds > 0 {
					retried.Add(1)
				}
				acked.Add(1)
				ingestBytes.Add(int64(len(d.xml)))
			}
		}(w)
	}

	// Readers: rotate over members and read paths while the corpus
	// grows, until ingest and every kill cycle are done.
	readersDone := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < opts.Readers; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := r; ; i++ {
				select {
				case <-readersDone:
					return
				default:
				}
				w := window.Load()
				_, err := httpGet(urls[i%len(urls)] + readerPaths[i%len(readerPaths)])
				if err == nil {
					queries.Add(1)
				} else if w%2 == 0 && window.Load() == w {
					errc <- fmt.Errorf("soak: query during ingest: %w", err)
					return
				}
			}
		}(r)
	}

	// Killer: kill a rotating victim each time the ack stream crosses
	// the next threshold — evenly spaced so every cycle lands
	// mid-ingest — then restart it and let recovery replay its WAL.
	killerDone := make(chan struct{})
	go func() {
		defer close(killerDone)
		for c := 1; c <= opts.Cycles; c++ {
			threshold := int64(c * opts.Jobs / (opts.Cycles + 1))
			for acked.Load() < threshold {
				if time.Now().After(deadline) {
					errc <- fmt.Errorf("soak: deadline waiting for kill threshold %d", threshold)
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
			victim := (c - 1) % opts.Members
			logf("soak: cycle %d/%d: kill member %d at %d acked job(s)", c, opts.Cycles, victim, acked.Load())
			window.Add(1)
			members[victim].kill()
			rep.Kills++
			if err := members[victim].start(); err != nil {
				errc <- err
				return
			}
			if err := waitReady(urls[victim], deadline); err != nil {
				errc <- err
				return
			}
			window.Add(1)
			rep.Restarts++
		}
	}()

	workers.Wait()
	rep.IngestElapsed = time.Since(ingestStart)
	<-killerDone
	close(readersDone)
	readers.Wait()
	rep.Acked = int(acked.Load())
	rep.Retried = retried.Load()
	rep.IngestBytes = ingestBytes.Load()
	rep.Queries = queries.Load()
	select {
	case err := <-errc:
		return rep, err
	default:
	}

	// The reference answers, served by the never-killed store.
	refLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return rep, err
	}
	refHS := &http.Server{Handler: NewServer(ref, telemetry.NewRegistry()).Handler()}
	go refHS.Serve(refLn)
	defer refHS.Close()
	want := make([][]byte, len(soakQueries))
	for i, q := range soakQueries {
		if want[i], err = httpGet("http://" + refLn.Addr().String() + q); err != nil {
			return rep, err
		}
	}
	rep.AggBytes = len(want[0])

	// gates checks both gates through every member (cluster
	// scatter-gather reads are strict, so a 200 also proves every member
	// answered).
	gates := func(when string) error {
		for m, u := range urls {
			body, err := httpGet(u + "/jobs")
			if err != nil {
				return fmt.Errorf("soak: member %d %s: %w", m, when, err)
			}
			var metas []JobMeta
			if err := json.Unmarshal(body, &metas); err != nil {
				return fmt.Errorf("soak: decoding /jobs from member %d %s: %w", m, when, err)
			}
			present := make(map[string]bool, len(metas))
			for _, meta := range metas {
				present[meta.ID] = true
			}
			lost := 0
			for _, d := range docs {
				if !present[d.id] {
					lost++
				}
			}
			if lost > 0 {
				return fmt.Errorf("soak: member %d %s: %d acknowledged job(s) lost across %d kill(s)", m, when, lost, rep.Kills)
			}
			for i, q := range soakQueries {
				for read := 1; read <= 2; read++ {
					got, err := httpGet(u + q)
					if err != nil {
						return fmt.Errorf("soak: member %d %s: %w", m, when, err)
					}
					if !bytes.Equal(got, want[i]) {
						return fmt.Errorf("soak: %s read %d from member %d %s differs from the never-killed reference (%d vs %d bytes)",
							q, read, m, when, len(got), len(want[i]))
					}
				}
			}
		}
		return nil
	}
	if err := gates("live"); err != nil {
		return rep, err
	}

	// Graceful exit of every member, then one more cold recovery of
	// each: the corpus has survived both crash and clean shutdown on
	// every shard.
	if err := stopAll(); err != nil {
		return rep, err
	}
	if err := startAll(); err != nil {
		return rep, err
	}
	rep.Restarts += opts.Members
	if local != nil {
		rep.WALRecovered = local.recovered
	}
	if err := gates("after the final restart"); err != nil {
		return rep, err
	}
	if err := stopAll(); err != nil {
		return rep, err
	}
	rep.Elapsed = time.Since(start)
	logf("soak: ok — %d jobs acked (%d retried through kill windows), %d kills, %d restarts, %d concurrent queries, queries byte-identical on all %d member(s), in %v",
		rep.Acked, rep.Retried, rep.Kills, rep.Restarts, rep.Queries, opts.Members, rep.Elapsed.Round(time.Millisecond))
	return rep, nil
}
