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

// This file is the kill/restart soak harness behind `ipmserve -soak` /
// `make soak`: the durability twin of the SelfTest load generator. It
// launches Members real ipmserve child processes, each over its own WAL
// in a scratch directory — one plain server, or a cluster when Members
// > 1 — sustains concurrent ingest through rotating routers, and
// SIGKILLs a member mid-ingest at deterministic points in the ack
// stream, restarting it each time, before a final SIGTERM of every
// member to prove graceful shutdown. The run is gated on the durability
// contract:
//
//   - zero lost acknowledged jobs: every profile any member acked with
//     a 2xx is present in /jobs after the last recovery;
//   - byte-identical queries from EVERY member: the recovered corpus
//     answers /agg, /jobs and /regress exactly like a never-killed
//     in-process single-node store over the same documents.
//
// In a cluster, quorum writes make the first gate honest: an ack means
// R/2+1 owners persisted the document before the kill, so any single
// member's death cannot lose it. Content-derived ids make the second
// gate exact even for documents that were persisted but killed before
// the ack, or re-posted through a different router: the re-ingest
// replaces the job with identical bytes.

// SoakOptions sizes a kill/restart soak run.
type SoakOptions struct {
	// ServerCmd is the argv of the child server; the harness appends
	// -addr, -wal, -compact-every and -snapshot-on-exit, plus -peers,
	// -self and -replicas when Members > 1. Typically the running
	// ipmserve binary itself (os.Executable).
	ServerCmd []string
	Members   int // server processes; 1 = one plain server (default 1)
	Replicas  int // copies per job when Members > 1 (default 2, at most Members)
	Jobs      int // synthetic profiles to ingest (default 200)
	Workers   int // concurrent ingest workers (default 4)
	Cycles    int // SIGKILL/restart cycles (default 3)
	// CompactEvery is forwarded to the children so snapshots and WAL
	// truncation happen under fire (default 32 appends; -1 disables).
	CompactEvery int
	Timeout      time.Duration // wall-clock budget (default 120s)
	Seed         uint64        // corpus seed (default 2011)
	Dir          string        // scratch dir (default: fresh temp, removed)
	Logf         func(format string, args ...any)
}

// SoakReport summarises a soak run.
type SoakReport struct {
	Members  int
	Replicas int
	Jobs     int
	Kills    int
	Restarts int
	Acked    int   // jobs acknowledged with a 2xx by some member
	Retried  int64 // posts that needed more than one round
	AggBytes int   // size of the (verified identical) /agg body
	Elapsed  time.Duration
}

// setDefaults fills the zero fields and clamps Replicas to Members.
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
	if o.Cycles <= 0 {
		o.Cycles = 3
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
		"-wal", filepath.Join(dir, fmt.Sprintf("member%d.wal", i)),
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

// waitReady polls /readyz until the child accepts writes.
func (c *soakChild) waitReady(deadline time.Time) error {
	for time.Now().Before(deadline) {
		resp, err := getClient.Get(c.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("soak: server %s not ready before deadline", c.url)
}

// kill SIGKILLs the child — no flush, no goodbye; the crash being
// simulated — and reaps it.
func (c *soakChild) kill() {
	c.cmd.Process.Kill()
	c.cmd.Wait()
	c.cmd = nil
}

// terminate sends SIGTERM and requires a clean exit: the graceful
// shutdown path (drain, flush, snapshot) must finish with status 0.
func (c *soakChild) terminate(deadline time.Time) error {
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

// Soak runs the kill/restart soak. Any lost acknowledged job, query
// divergence from the never-killed reference on any member, or unclean
// shutdown is an error.
func Soak(opts SoakOptions) (*SoakReport, error) {
	if len(opts.ServerCmd) == 0 {
		return nil, fmt.Errorf("soak: ServerCmd is required")
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
	// own dead children.
	urls := make([]string, opts.Members)
	for i := range urls {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return rep, err
		}
		urls[i] = "http://" + ln.Addr().String()
		ln.Close()
	}

	// Render the corpus once: the same bytes go to the children and the
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

	children := make([]*soakChild, opts.Members)
	for i := range children {
		children[i] = &soakChild{argv: opts.memberArgv(i, urls, dir), url: urls[i]}
	}
	defer func() {
		for _, c := range children {
			if c.cmd != nil {
				c.kill()
			}
		}
	}()
	for _, c := range children {
		if err := c.start(); err != nil {
			return rep, err
		}
	}
	for _, c := range children {
		if err := c.waitReady(deadline); err != nil {
			return rep, err
		}
	}
	logf("soak: %d member(s) on %s (replicas=%d), %d jobs, %d workers, %d kill cycles",
		opts.Members, strings.Join(urls, ","), opts.Replicas, opts.Jobs, opts.Workers, opts.Cycles)

	// Ingest workers: each owns a shard of the corpus and retries every
	// document until some member acks it, rotating the router per round
	// so a dead member never wedges a worker. A 503+Retry-After (a
	// router short of write quorum) is not waited out inside the
	// Poster: it falls through to the next router after 25 ms. Acked
	// ids are recorded only on a 2xx: the zero-loss gate below is
	// exactly "acked implies present after recovery".
	var (
		acked   atomic.Int64
		retried atomic.Int64
		ackMu   sync.Mutex
		ackedID = make(map[string]bool, opts.Jobs)
	)
	errc := make(chan error, opts.Workers+1)
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
				ackMu.Lock()
				ackedID[d.id] = true
				ackMu.Unlock()
				acked.Add(1)
			}
		}(w)
	}

	// Killer: SIGKILL a rotating victim each time the ack stream
	// crosses the next threshold — evenly spaced so every cycle lands
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
			logf("soak: cycle %d/%d: SIGKILL member %d at %d acked job(s)", c, opts.Cycles, victim, acked.Load())
			children[victim].kill()
			rep.Kills++
			if err := children[victim].start(); err != nil {
				errc <- err
				return
			}
			if err := children[victim].waitReady(deadline); err != nil {
				errc <- err
				return
			}
			rep.Restarts++
		}
	}()

	workers.Wait()
	<-killerDone
	rep.Acked = int(acked.Load())
	rep.Retried = retried.Load()
	select {
	case err := <-errc:
		return rep, err
	default:
	}

	// Graceful exit of every member under SIGTERM, then one more cold
	// recovery of each: the verified corpus below has survived both
	// crash and clean shutdown on every shard.
	for _, c := range children {
		if err := c.terminate(deadline); err != nil {
			return rep, err
		}
	}
	for _, c := range children {
		if err := c.start(); err != nil {
			return rep, err
		}
	}
	for _, c := range children {
		if err := c.waitReady(deadline); err != nil {
			return rep, err
		}
	}
	rep.Restarts += opts.Members

	// Gate 1: zero lost acknowledged jobs, asked through every member
	// (cluster scatter-gather reads are strict, so a 200 also proves
	// every member answered).
	for m, u := range urls {
		jobsBody, err := httpGet(u + "/jobs")
		if err != nil {
			return rep, fmt.Errorf("soak: member %d: %w", m, err)
		}
		var metas []JobMeta
		if err := json.Unmarshal(jobsBody, &metas); err != nil {
			return rep, fmt.Errorf("soak: decoding /jobs from member %d: %w", m, err)
		}
		present := make(map[string]bool, len(metas))
		for _, meta := range metas {
			present[meta.ID] = true
		}
		lost := 0
		for id := range ackedID {
			if !present[id] {
				lost++
			}
		}
		if lost > 0 {
			return rep, fmt.Errorf("soak: member %d: %d acknowledged job(s) lost across %d kill(s)", m, lost, rep.Kills)
		}
		if len(metas) != opts.Jobs {
			return rep, fmt.Errorf("soak: member %d sees %d jobs, want %d", m, len(metas), opts.Jobs)
		}
	}

	// Gate 2: byte-identical queries from every member versus the
	// never-killed single-node reference.
	refSrv := NewServer(ref, telemetry.NewRegistry())
	refLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return rep, err
	}
	refHS := &http.Server{Handler: refSrv.Handler()}
	go refHS.Serve(refLn)
	defer refHS.Close()
	refBase := "http://" + refLn.Addr().String()
	for _, q := range []string{
		"/agg?sel=tag:soak",
		"/jobs",
		"/regress?base=tag:batch:0&head=tag:batch:1&threshold=5",
	} {
		want, err := httpGet(refBase + q)
		if err != nil {
			return rep, err
		}
		for m, u := range urls {
			got, err := httpGet(u + q)
			if err != nil {
				return rep, fmt.Errorf("soak: member %d: %w", m, err)
			}
			if !bytes.Equal(got, want) {
				return rep, fmt.Errorf("soak: %s from member %d differs from the never-killed reference (%d vs %d bytes)", q, m, len(got), len(want))
			}
		}
		if strings.HasPrefix(q, "/agg") {
			rep.AggBytes = len(want)
		}
	}

	for _, c := range children {
		if err := c.terminate(deadline); err != nil {
			return rep, err
		}
	}
	rep.Elapsed = time.Since(start)
	logf("soak: ok — %d jobs acked (%d retried through kill windows), %d kills, %d restarts, queries byte-identical on all %d member(s), in %v",
		rep.Acked, rep.Retried, rep.Kills, rep.Restarts, opts.Members, rep.Elapsed.Round(time.Millisecond))
	return rep, nil
}
