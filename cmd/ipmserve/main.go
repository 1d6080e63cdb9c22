// Command ipmserve is the center-wide profile store and query service:
// the ingestion layer that turns single-job IPM XML logs into
// workload-level views (paper Section II — IPM runs on every job, and
// the value is in aggregating thousands of profiles).
//
// Usage:
//
//	ipmserve [-addr :8080] [-wal results/profstore.wal] [-compact-every N]
//
// Endpoints:
//
//	POST /ingest?id=&tags=a,b   ingest one IPM XML log (tolerant parse)
//	POST /compact               fold snapshot+WAL and truncate the log
//	GET  /jobs[?sel=&format=html]
//	GET  /job/{id}
//	GET  /agg[?sel=tag:T&top=N&format=html]
//	GET  /regress?base=&head=[&threshold=PCT&format=html]
//	GET  /healthz               liveness; /readyz = writable (503 when
//	                            draining or degraded read-only)
//	GET  /metrics               Prometheus text format
//
// Selectors are a job id, "tag:T" or "cmd:C"; /regress compares two
// jobs or two tag-sets per call-site signature.
//
// SIGTERM/SIGINT trigger graceful shutdown: /readyz flips to 503, in-
// flight requests drain, the WAL is flushed and fsynced, and with
// -snapshot-on-exit the corpus is compacted before exit.
//
// With -peers the member joins a cluster: ingest is routed to the R
// consistent-hash owners of each job id (acked at majority quorum).
// /jobs, /job/{id}, /agg and /regress are served from the router's
// mirror of every member's jobs, revalidated inside each query with one
// conditional leg per peer that can hold the answer: every peer for the
// whole corpus, a tag or a command, only the id's other owners for a
// single job id. Every answer is byte-identical to a single node holding
// the whole corpus, and a read answers 503 when one of the peers it
// needs cannot be asked. Every member is a router; -self names this
// member's own base URL within -peers.
//
// With -selftest or -soak the command runs the store harness
// (profstore.Soak) instead of serving. -selftest runs one in-process
// member under concurrent ingest and queries, without kill cycles;
// -soak re-executes itself as -soak-members server children (one plain
// server by default, a cluster above one) and SIGKILLs rotating members
// mid-ingest while workers retry through the surviving routers. Both
// exit non-zero on any violation.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"ipmgo/internal/faultsim"
	"ipmgo/internal/profstore"
	"ipmgo/internal/storecluster"
	"ipmgo/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	wal := flag.String("wal", "", "append-only WAL path; empty = in-memory store")
	walSync := flag.Int("wal-sync", 1, "fsync the WAL every N appends (1 = every acked ingest is on disk)")
	compactEvery := flag.Int("compact-every", 0, "snapshot+truncate the WAL after N appends (0 = only via POST /compact)")
	snapOnExit := flag.Bool("snapshot-on-exit", false, "compact the WAL into a snapshot during graceful shutdown")
	diskFaults := flag.String("disk-faults", "", "JSON disk-fault plan injected into the WAL write path (see testdata/faults/)")
	selftest := flag.Bool("selftest", false, "run the store harness with one in-process member (no kill cycles) and exit")
	withPprof := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (profiling a live store)")
	jobs := flag.Int("selftest-jobs", 120, "selftest: synthetic profiles to ingest")
	workers := flag.Int("selftest-workers", 8, "selftest: concurrent ingest workers")
	soak := flag.Bool("soak", false, "run the kill/restart soak harness and exit")
	soakJobs := flag.Int("soak-jobs", 200, "soak: synthetic profiles to ingest")
	soakWorkers := flag.Int("soak-workers", 4, "soak: concurrent ingest workers")
	soakCycles := flag.Int("soak-cycles", 3, "soak: SIGKILL/restart cycles")
	soakTimeout := flag.Duration("soak-timeout", 120*time.Second, "soak: wall-clock budget")
	peersFlag := flag.String("peers", "", "comma-separated member base URLs; non-empty enables cluster mode")
	selfFlag := flag.String("self", "", "this member's base URL within -peers (default http://<addr> when addr names a host)")
	replicas := flag.Int("replicas", 2, "cluster: copies per job (acked at majority quorum)")
	peerFaults := flag.String("peer-faults", "", "JSON peer-fault plan injected into the peer transport (see testdata/faults/)")
	tracePath := flag.String("trace", "", "write a Chrome trace of cluster scatter/forward spans here on shutdown")
	soakMembers := flag.Int("soak-members", 1, "soak: server processes (1 = one plain server, more = a cluster)")
	soakReplicas := flag.Int("soak-replicas", 2, "soak: copies per job when -soak-members > 1")
	flag.Parse()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}

	if *selftest {
		rep, err := profstore.Soak(profstore.SoakOptions{
			Jobs: *jobs, Workers: *workers, Readers: 4, Logf: logf,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ipmserve: selftest FAILED:", err)
			os.Exit(1)
		}
		fmt.Printf("selftest ok: %d jobs, %d ranks, ingest %.1f MB/s end to end, %d concurrent queries, /agg %d bytes, WAL recovered %d records\n",
			rep.Jobs, rep.Ranks, rep.IngestMBPerSec(), rep.Queries, rep.AggBytes, rep.WALRecovered)
		return
	}

	if *soak {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(os.Stderr, "ipmserve:", err)
			os.Exit(1)
		}
		rep, err := profstore.Soak(profstore.SoakOptions{
			ServerCmd: []string{exe},
			Members:   *soakMembers, Replicas: *soakReplicas,
			Jobs: *soakJobs, Workers: *soakWorkers, Cycles: *soakCycles,
			CompactEvery: *compactEvery, Timeout: *soakTimeout, Logf: logf,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ipmserve: soak FAILED:", err)
			os.Exit(1)
		}
		fmt.Printf("soak ok: %d member(s) (R=%d), %d jobs acked (%d retried through kill windows), %d kills (at %v acked), %d restarts, queries byte-identical on every member (/agg %d bytes), %v\n",
			rep.Members, rep.Replicas, rep.Acked, rep.Retried, rep.Kills, rep.KillAcked, rep.Restarts, rep.AggBytes, rep.Elapsed.Round(time.Millisecond))
		return
	}

	var store *profstore.Store
	if *wal != "" {
		opts := profstore.StoreOptions{
			SyncEvery:    *walSync,
			CompactEvery: *compactEvery,
			OnSnapshot: func(info profstore.SnapshotInfo, err error) {
				if err != nil {
					logf("ipmserve: background compaction failed: %v", err)
					return
				}
				logf("ipmserve: compacted %d job(s) into %s (%d stale record(s) dropped)",
					info.Jobs, info.Path, info.Dropped)
			},
		}
		if *diskFaults != "" {
			plan, err := faultsim.LoadDiskPlan(*diskFaults)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ipmserve:", err)
				os.Exit(1)
			}
			opts.WrapWAL = func(inner profstore.WriteSyncer) profstore.WriteSyncer {
				return plan.Wrap(inner)
			}
			logf("ipmserve: WAL disk-fault injection armed from %s (%d fault(s))", *diskFaults, len(plan.Faults))
		}
		var st profstore.RecoveryStats
		var err error
		store, st, err = profstore.OpenStore(*wal, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ipmserve:", err)
			os.Exit(1)
		}
		if st.SnapshotSeq != 0 {
			logf("ipmserve: WAL %s: %d job(s) recovered (%d from snapshot %d, %d WAL record(s) replayed), %d skipped",
				*wal, st.Recovered, st.SnapshotJobs, st.SnapshotSeq, st.WALRecords, st.Skipped)
		} else {
			logf("ipmserve: WAL %s: %d job(s) recovered, %d record(s) skipped", *wal, st.Recovered, st.Skipped)
		}
	} else {
		store = profstore.New()
		logf("ipmserve: in-memory store (no -wal; corpus is lost on exit)")
	}
	defer store.Close()

	reg := telemetry.NewRegistry()
	srv := profstore.NewServer(store, reg)
	handler := srv.Handler()

	// Cluster mode: wrap the single-node surface with the router. /ingest
	// goes to the ring owners, /jobs, /job/{id}, /agg and /regress are
	// served from the router's revalidated mirror of every member's jobs;
	// everything else still hits the local handler.
	var recorder *telemetry.Recorder
	if *peersFlag != "" {
		members := strings.Split(*peersFlag, ",")
		for i := range members {
			members[i] = strings.TrimSpace(members[i])
		}
		self := *selfFlag
		if self == "" && !strings.HasPrefix(*addr, ":") {
			self = "http://" + *addr
		}
		if self == "" {
			fmt.Fprintln(os.Stderr, "ipmserve: cluster mode needs -self (or an -addr with an explicit host)")
			os.Exit(1)
		}
		var transport http.RoundTripper
		if *peerFaults != "" {
			plan, err := faultsim.LoadPeerPlan(*peerFaults)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ipmserve:", err)
				os.Exit(1)
			}
			transport = plan.Wrap(nil)
			logf("ipmserve: peer-fault injection armed from %s (%d fault(s))", *peerFaults, len(plan.Faults))
		}
		recorder = telemetry.NewRecorder(4096)
		cl, err := storecluster.New(storecluster.Config{
			Self:      self,
			Members:   members,
			Replicas:  *replicas,
			Store:     store,
			Local:     handler,
			Registry:  reg,
			Recorder:  recorder,
			Transport: transport,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ipmserve:", err)
			os.Exit(1)
		}
		handler = cl.Handler()
		logf("ipmserve: cluster member %s of %d (replicas=%d)", self, len(cl.Ring().Members()), *replicas)
	}
	if *withPprof {
		// The store handler owns "/"; route only the pprof subtree past it
		// so profiling a live server never shadows a query endpoint.
		app := handler
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/debug/pprof/") {
				mux.ServeHTTP(w, r)
				return
			}
			app.ServeHTTP(w, r)
		})
		logf("ipmserve: pprof enabled under /debug/pprof/")
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ipmserve:", err)
		os.Exit(1)
	}
	logf("ipmserve: serving on http://%s/ (%d job(s) loaded)", ln.Addr(), store.Len())

	// Shutdown counts a connection that was accepted but never sent a
	// request (StateNew) as active for up to 5 s (Go issue 22682); a
	// peer's pooled keep-alive dial that was never used is exactly that.
	// Track those connections and close them when draining starts.
	var (
		connMu   sync.Mutex
		fresh    = make(map[net.Conn]bool)
		draining bool
	)
	hs := &http.Server{Handler: handler, ConnState: func(c net.Conn, st http.ConnState) {
		connMu.Lock()
		defer connMu.Unlock()
		switch {
		case st != http.StateNew:
			delete(fresh, c)
		case draining:
			c.Close()
		default:
			fresh[c] = true
		}
	}}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "ipmserve:", err)
		os.Exit(1)
	case sig := <-sigc:
		// Graceful shutdown: stop advertising readiness, drain in-flight
		// requests, then flush (and optionally compact) the WAL. A second
		// signal — or the drain deadline — forces the exit; the WAL makes
		// even that safe.
		logf("ipmserve: %v: draining", sig)
		srv.SetDraining(true)
		connMu.Lock()
		draining = true
		for c := range fresh {
			c.Close()
		}
		connMu.Unlock()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		go func() {
			<-sigc
			cancel()
		}()
		if err := hs.Shutdown(ctx); err != nil {
			logf("ipmserve: drain cut short: %v", err)
		}
		cancel()
		if *snapOnExit {
			if info, err := store.Snapshot(); err != nil {
				logf("ipmserve: snapshot on exit failed: %v", err)
			} else {
				logf("ipmserve: compacted %d job(s) into %s", info.Jobs, info.Path)
			}
		}
		if *tracePath != "" && recorder != nil {
			if f, err := os.Create(*tracePath); err != nil {
				logf("ipmserve: trace: %v", err)
			} else {
				spans := recorder.Snapshot()
				if err := telemetry.WriteChromeTrace(f, spans); err != nil {
					logf("ipmserve: writing trace: %v", err)
				} else {
					logf("ipmserve: wrote %d span(s) to %s", len(spans), *tracePath)
				}
				f.Close()
			}
		}
		if err := store.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "ipmserve: closing store:", err)
			os.Exit(1)
		}
		logf("ipmserve: WAL flushed, bye")
	}
}
