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
// launches a real ipmserve child process over a WAL in a scratch
// directory, sustains concurrent ingest against it, and SIGKILLs the
// child mid-ingest at deterministic points in the ack stream —
// restarting it each time — before a final SIGTERM to prove graceful
// shutdown. The run is gated on the acceptance criteria from the
// durability design:
//
//   - zero lost acknowledged jobs: every profile the server acked with
//     a 2xx before any kill is present after the last recovery;
//   - byte-identical queries: the recovered corpus answers /agg and
//     /regress exactly like a never-killed in-process reference store
//     over the same documents.
//
// Content-derived ids make the comparison exact even for documents that
// were persisted but killed before the ack: the client retries them and
// the re-ingest replaces the job with identical bytes.

// SoakOptions sizes a kill/restart soak run.
type SoakOptions struct {
	// ServerCmd is the argv of the child server; the harness appends
	// -addr, -wal and -compact-every. Typically the running ipmserve
	// binary itself (os.Executable).
	ServerCmd []string
	Jobs      int // synthetic profiles to ingest (default 200)
	Workers   int // concurrent ingest workers (default 4)
	Cycles    int // SIGKILL/restart cycles (default 3)
	// CompactEvery is forwarded to the child so snapshots and WAL
	// truncation happen under fire (default 32 appends; -1 disables).
	CompactEvery int
	Timeout      time.Duration // wall-clock budget (default 120s)
	Seed         uint64        // corpus seed (default 2011)
	Dir          string        // scratch dir (default: fresh temp, removed)
	Logf         func(format string, args ...any)
}

// SoakReport summarises a soak run.
type SoakReport struct {
	Jobs     int
	Kills    int
	Restarts int
	Acked    int   // jobs acknowledged with a 2xx
	Retried  int64 // posts that needed more than one round
	AggBytes int   // size of the (verified identical) /agg body
	Elapsed  time.Duration
}

// soakChild is the managed ipmserve subprocess.
type soakChild struct {
	argv []string
	addr string
	wal  string
	cmd  *exec.Cmd
}

func (c *soakChild) start() error {
	args := append(append([]string{}, c.argv[1:]...), "-addr", c.addr, "-wal", c.wal)
	cmd := exec.Command(c.argv[0], args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("soak: starting server: %w", err)
	}
	c.cmd = cmd
	return nil
}

// waitReady polls /readyz until the child accepts writes.
func (c *soakChild) waitReady(deadline time.Time) error {
	url := "http://" + c.addr + "/readyz"
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("soak: server at %s not ready before deadline", c.addr)
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
		return fmt.Errorf("soak: SIGTERM: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		c.cmd = nil
		if err != nil {
			return fmt.Errorf("soak: server exited uncleanly after SIGTERM: %w", err)
		}
		return nil
	case <-time.After(time.Until(deadline)):
		c.cmd.Process.Kill()
		<-done
		c.cmd = nil
		return fmt.Errorf("soak: server did not exit within deadline after SIGTERM")
	}
}

// Soak runs the kill/restart soak. Any lost acknowledged job, query
// divergence from the reference store, or unclean shutdown is an error.
func Soak(opts SoakOptions) (*SoakReport, error) {
	if len(opts.ServerCmd) == 0 {
		return nil, fmt.Errorf("soak: ServerCmd is required")
	}
	if opts.Jobs <= 0 {
		opts.Jobs = 200
	}
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.Cycles <= 0 {
		opts.Cycles = 3
	}
	if opts.CompactEvery == 0 {
		opts.CompactEvery = 32
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 120 * time.Second
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
		dir, err = os.MkdirTemp("", "profstore-soak")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	start := time.Now()
	deadline := start.Add(opts.Timeout)
	rep := &SoakReport{Jobs: opts.Jobs}

	// Reserve a port for the child (and its restarts) by binding and
	// releasing it; Go listeners set SO_REUSEADDR, so the rebinds race
	// nothing but our own dead process.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return rep, err
	}
	addr := ln.Addr().String()
	ln.Close()
	base := "http://" + addr

	// Render the corpus once: the same bytes go to the child and the
	// in-process reference store.
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

	cmd := append(append([]string{}, opts.ServerCmd...),
		"-compact-every", fmt.Sprint(opts.CompactEvery), "-snapshot-on-exit")
	child := &soakChild{argv: cmd, addr: addr, wal: filepath.Join(dir, "soak.wal")}
	if err := child.start(); err != nil {
		return rep, err
	}
	defer func() {
		if child.cmd != nil {
			child.kill()
		}
	}()
	if err := child.waitReady(deadline); err != nil {
		return rep, err
	}
	logf("soak: serving on %s (wal %s), %d jobs, %d workers, %d kill cycles",
		base, child.wal, opts.Jobs, opts.Workers, opts.Cycles)

	// Ingest workers: each owns a shard of the corpus and retries every
	// document until the server acks it — riding out the kill windows.
	// Acked ids are recorded only on a 2xx: the zero-loss gate below is
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
			poster := &Poster{
				URL: base,
				Policy: faultsim.RetryPolicy{
					MaxAttempts: 2,
					Backoff:     faultsim.Dur(10 * time.Millisecond),
					MaxBackoff:  faultsim.Dur(100 * time.Millisecond),
				},
				Client: &http.Client{Timeout: 5 * time.Second},
			}
			for i := w; i < len(docs); i += opts.Workers {
				d := docs[i]
				rounds := 0
				for {
					if time.Now().After(deadline) {
						errc <- fmt.Errorf("soak: deadline while ingesting job %d", i)
						return
					}
					_, err := poster.PostXML(d.xml, d.id, d.tags)
					if err == nil {
						break
					}
					rounds++
					time.Sleep(25 * time.Millisecond) // server is restarting
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

	// Killer: SIGKILL the child each time the ack stream crosses the
	// next threshold — evenly spaced so every cycle lands mid-ingest —
	// then restart it and let recovery replay snapshot + WAL.
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
			logf("soak: cycle %d/%d: SIGKILL at %d acked job(s)", c, opts.Cycles, acked.Load())
			child.kill()
			rep.Kills++
			if err := child.start(); err != nil {
				errc <- err
				return
			}
			if err := child.waitReady(deadline); err != nil {
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

	// Graceful exit under SIGTERM, then one more cold recovery: the
	// verified corpus below has survived both crash and clean shutdown.
	if err := child.terminate(deadline); err != nil {
		return rep, err
	}
	if err := child.start(); err != nil {
		return rep, err
	}
	if err := child.waitReady(deadline); err != nil {
		return rep, err
	}
	rep.Restarts++

	// Gate 1: zero lost acknowledged jobs.
	jobsBody, err := httpGet(base + "/jobs")
	if err != nil {
		return rep, err
	}
	var metas []JobMeta
	if err := json.Unmarshal(jobsBody, &metas); err != nil {
		return rep, fmt.Errorf("soak: decoding /jobs: %w", err)
	}
	present := make(map[string]bool, len(metas))
	for _, m := range metas {
		present[m.ID] = true
	}
	lost := 0
	for id := range ackedID {
		if !present[id] {
			lost++
		}
	}
	if lost > 0 {
		return rep, fmt.Errorf("soak: %d acknowledged job(s) lost across %d kill(s)", lost, rep.Kills)
	}
	if len(metas) != opts.Jobs {
		return rep, fmt.Errorf("soak: recovered corpus holds %d jobs, want %d", len(metas), opts.Jobs)
	}

	// Gate 2: byte-identical queries versus the never-killed reference.
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
		got, err := httpGet(base + q)
		if err != nil {
			return rep, err
		}
		want, err := httpGet(refBase + q)
		if err != nil {
			return rep, err
		}
		if !bytes.Equal(got, want) {
			return rep, fmt.Errorf("soak: %s differs from the never-killed reference (%d vs %d bytes)", q, len(got), len(want))
		}
		if q == "/jobs" {
			continue
		}
		if rep.AggBytes == 0 {
			rep.AggBytes = len(got)
		}
	}

	if err := child.terminate(deadline); err != nil {
		return rep, err
	}
	rep.Elapsed = time.Since(start)
	logf("soak: ok — %d jobs acked (%d retried through kill windows), %d kills, %d restarts, queries byte-identical, in %v",
		rep.Acked, rep.Retried, rep.Kills, rep.Restarts, rep.Elapsed.Round(time.Millisecond))
	return rep, nil
}
