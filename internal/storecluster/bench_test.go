package storecluster

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"ipmgo/internal/alloctest"
	"ipmgo/internal/ipm"
	"ipmgo/internal/profstore"
	"ipmgo/internal/telemetry"
)

// The cluster benchmarks back the tentpole perf claim: ingest
// throughput scales with shard count. Every member persists to its own
// WAL with SyncEvery=1 — the durability configuration `make serve`
// ships — so the per-member bottleneck is the fsync serialization a
// single node cannot escape, and adding shards adds independent WALs
// whose fsyncs overlap. /agg is the counterweight: scatter-gather adds
// peer round-trips per query, so read latency is the price of the
// write scaling.

// benchCluster brings up n WAL-backed members (R=1: placement spread,
// no replication overhead — the pure sharding measurement) and returns
// the member base URLs.
func benchCluster(b testing.TB, n int) []string {
	b.Helper()
	dir := b.TempDir()
	urls := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		listeners[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	for i := 0; i < n; i++ {
		store, _, err := profstore.OpenStore(
			filepath.Join(dir, fmt.Sprintf("member%d.wal", i)),
			profstore.StoreOptions{SyncEvery: 1})
		if err != nil {
			b.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		cl, err := New(Config{
			Self:     urls[i],
			Members:  urls,
			Replicas: 1,
			Store:    store,
			Local:    profstore.NewServer(store, reg).Handler(),
			Registry: reg,
			Timeout:  10 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		srv := &http.Server{Handler: cl.Handler()}
		go srv.Serve(listeners[i])
		b.Cleanup(func() {
			srv.Close()
			store.Close()
		})
	}
	return urls
}

// benchDocs pre-renders the corpus (rendering cost is not measured).
func benchDocs(b testing.TB, n int) [][]byte {
	b.Helper()
	docs := make([][]byte, n)
	for i := range docs {
		var buf bytes.Buffer
		if err := ipm.WriteXML(&buf, profstore.SyntheticProfile(42, i)); err != nil {
			b.Fatal(err)
		}
		docs[i] = buf.Bytes()
	}
	return docs
}

// benchSmallDocs renders a corpus of minimal-but-valid IPM logs. The
// ingest benchmark wants the WAL fsync — the per-member serialization
// sharding exists to spread — to dominate, not the XML parse CPU a
// single benchmark core would otherwise saturate; a small document
// keeps the parse in the tens of microseconds so the measured scaling
// is the storage layer's, not the parser's.
func benchSmallDocs(b testing.TB, n int) [][]byte {
	b.Helper()
	docs := make([][]byte, n)
	for i := range docs {
		docs[i] = []byte(fmt.Sprintf(
			`<ipm_log version="2.0" command="./bench%d" ntasks="1" nhosts="1" wallclock="1.5">`+
				`<task mpi_rank="0" host="n0" wallclock="1.5"><region name="ipm_global">`+
				`<func name="MPI_Allreduce" bytes="1024" count="%d" ttot="0.25" tmin="0.01" tmax="0.02"></func>`+
				`</region></task></ipm_log>`, i, 10+i))
	}
	return docs
}

func benchPost(client *http.Client, url string, doc []byte) error {
	resp, err := client.Post(url+"/ingest", "application/xml", bytes.NewReader(doc))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ingest: %d", resp.StatusCode)
	}
	return nil
}

// clusterIngestOp returns BenchmarkClusterIngest's op on a warm
// shards-member cluster: one durable POST /ingest of the next document of
// a 64-document corpus, sent straight to its owner. It is safe for
// concurrent use.
func clusterIngestOp(tb testing.TB, shards int) func() {
	urls := benchCluster(tb, shards)
	docs := benchSmallDocs(tb, 64)
	ring, err := NewRing(urls)
	if err != nil {
		tb.Fatal(err)
	}
	owner := make([]string, len(docs))
	for i, doc := range docs {
		owner[i] = ring.Owners(profstore.DeriveID(doc), 1)[0]
	}
	client := &http.Client{Timeout: 10 * time.Second, Transport: profstore.CountingTransport(nil)}
	// Warm every member: connections established, ring state hot.
	for i, doc := range docs {
		if err := benchPost(client, owner[i], doc); err != nil {
			tb.Fatal(err)
		}
	}
	var next atomic.Int64
	return func() {
		i := int(next.Add(1)) % len(docs)
		if err := benchPost(client, owner[i], docs[i]); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkClusterIngest measures durable ingest throughput end to end
// (HTTP in, consistent-hash placement, WAL append + fsync on the
// owner) at 1 and 4 shards. The corpus is placement-aware-posted: the
// ring is deterministic and public, so a smart client sends each
// document straight to its owner, the way the router itself would, and
// the single benchmark core is not burned re-proxying. With 1 shard
// every fsync serializes behind one WAL's walMu; with 4 shards the
// same write load lands on 4 independent WALs whose fsyncs overlap.
func BenchmarkClusterIngest(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			op := clusterIngestOp(b, shards)
			b.SetParallelism(16) // in-flight posts even on one core: fsync is I/O wait
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					op()
				}
			})
		})
	}
}

// clusterAggOp returns BenchmarkClusterAgg's op on a shards-member
// cluster holding a 64-job corpus, every router's mirror and memo warm:
// one routed GET /agg, through each router in turn. With mixed set,
// every 20th op first replaces one job through the router that reads
// next.
func clusterAggOp(tb testing.TB, shards int, mixed bool) func() {
	urls := benchCluster(tb, shards)
	docs := benchDocs(tb, 64)
	client := &http.Client{Timeout: 10 * time.Second, Transport: profstore.CountingTransport(nil)}
	post := func(i int) {
		// Explicit ids: the mixed run replaces, the corpus keeps its size.
		resp, err := client.Post(fmt.Sprintf("%s/ingest?id=bench-%d", urls[i%len(urls)], i%len(docs)),
			"application/xml", bytes.NewReader(docs[(i/len(docs)+i)%len(docs)]))
		if err != nil {
			tb.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			tb.Fatalf("ingest: %d", resp.StatusCode)
		}
	}
	for i := range docs {
		post(i)
	}
	for _, url := range urls { // warm every router's mirror and memo
		if resp, err := client.Get(url + "/agg?top=5"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	i := 0
	return func() {
		if mixed && i%20 == 19 {
			post(len(docs) + i)
		}
		resp, err := client.Get(urls[i%len(urls)] + "/agg?top=5")
		if err != nil {
			tb.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			tb.Fatalf("/agg: %d (%d bytes)", resp.StatusCode, len(body))
		}
		i++
	}
}

// BenchmarkClusterAgg measures routed /agg latency at 1 and 4 shards
// over a 64-job corpus. Warm, every mirror is current: the measured cost
// is one "unchanged" leg per peer and a memo hit. mix=read95 replaces
// one job per 20 reads through the router that reads next, so one read
// in twenty also pays a delta leg, the corpus rebuild and the recompute.
func BenchmarkClusterAgg(b *testing.B) {
	for _, shards := range []int{1, 4} {
		for _, mixed := range []bool{false, true} {
			name := fmt.Sprintf("shards=%d", shards)
			if mixed {
				name += "/mix=read95"
			}
			b.Run(name, func(b *testing.B) { alloctest.Bench(b, clusterAggOp(b, shards, mixed)) })
		}
	}
}
