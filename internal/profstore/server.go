package profstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"html/template"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ipmgo/internal/telemetry"
)

// Server wraps a Store with the HTTP query surface of cmd/ipmserve and
// its Prometheus self-metrics. All responses are deterministic for a
// fixed corpus: JSON is rendered from fully-sorted report structs, and
// the HTML views iterate the same slices.
type Server struct {
	store *Store
	reg   *telemetry.Registry
	lat   *telemetry.Histogram

	// draining flips /readyz to 503 during graceful shutdown so a load
	// balancer stops routing before the listener closes.
	draining atomic.Bool

	parseErrors atomic.Int64
	httpErrors  atomic.Int64
	queries     [qCount]atomic.Int64
}

// query classes for the per-endpoint counters.
const (
	qIngest = iota
	qJobs
	qJob
	qAgg
	qRegress
	qCompact
	qCount
)

var queryNames = [qCount]string{"ingest", "jobs", "job", "agg", "regress", "compact"}

// Metric family names served on /metrics.
const (
	MetricIngest      = "profstore_ingest_total"
	MetricIngestBytes = "ipm_ingest_bytes_total"
	MetricSalvaged    = "profstore_ingest_salvaged_total"
	MetricReplaced    = "profstore_ingest_replaced_total"
	MetricParseErrors = "profstore_parse_errors_total"
	MetricHTTPErrors  = "profstore_http_errors_total"
	MetricJobs        = "profstore_jobs"
	MetricRanks       = "profstore_ranks"
	MetricQueries     = "profstore_queries_total"
	MetricQuerySecs   = "profstore_query_seconds"
	MetricReadonly    = "ipm_store_readonly"
	MetricWALErrors   = "profstore_wal_errors_total"
	MetricSnapshots   = "profstore_snapshots_total"
	MetricSnapErrors  = "profstore_snapshot_errors_total"
	MetricWALPending  = "profstore_wal_appends_since_snapshot"
	MetricRecovered   = "profstore_wal_recovered_records"
	MetricSkipped     = "profstore_wal_skipped_records"
	MetricMemo        = "profstore_memo_lookups_total"
)

// retryAfterSeconds is the backoff hint sent with every 503: long
// enough to shed load from a degraded store, short enough that clients
// notice an operator remount quickly.
const retryAfterSeconds = 5

// NewServer builds the HTTP layer over store, registering its query
// latency histogram with reg (which also serves /metrics).
func NewServer(store *Store, reg *telemetry.Registry) *Server {
	return &Server{
		store: store,
		reg:   reg,
		lat: reg.Histogram(MetricQuerySecs, "Profile store query latency.",
			[]float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}),
	}
}

// publishMetrics snapshots the store and server counters into the
// registry; called before every /metrics render so scrapes always see
// current values.
func (s *Server) publishMetrics() {
	readonly, _ := s.store.ReadOnly()
	recovered, skipped := s.store.RecoveryCounts()
	samples := []telemetry.Sample{
		{Name: MetricIngest, Help: "Profiles ingested (including re-ingests).", Type: "counter", Value: float64(s.store.Ingests())},
		{Name: MetricIngestBytes, Help: "XML bytes ingested (including re-ingests).", Type: "counter", Value: float64(s.store.IngestedBytes())},
		{Name: MetricSalvaged, Help: "Ingested profiles the tolerant parser had to salvage.", Type: "counter", Value: float64(s.store.Salvaged())},
		{Name: MetricReplaced, Help: "Ingests that replaced an existing job id.", Type: "counter", Value: float64(s.store.Replaced())},
		{Name: MetricParseErrors, Help: "Ingest bodies rejected as unparseable.", Type: "counter", Value: float64(s.parseErrors.Load())},
		{Name: MetricHTTPErrors, Help: "Requests answered with a 4xx/5xx status.", Type: "counter", Value: float64(s.httpErrors.Load())},
		{Name: MetricJobs, Help: "Jobs in the corpus.", Type: "gauge", Value: float64(s.store.Len())},
		{Name: MetricRanks, Help: "Rank snapshots in the corpus.", Type: "gauge", Value: float64(s.store.RankCount())},
		{Name: MetricReadonly, Help: "1 when a WAL failure degraded the store to read-only.", Type: "gauge", Value: boolGauge(readonly)},
		{Name: MetricWALErrors, Help: "WAL write, fsync or truncate failures.", Type: "counter", Value: float64(s.store.WALErrors())},
		{Name: MetricSnapshots, Help: "Snapshot compactions completed.", Type: "counter", Value: float64(s.store.Snapshots())},
		{Name: MetricSnapErrors, Help: "Background snapshot compactions that failed.", Type: "counter", Value: float64(s.store.SnapshotErrors())},
		{Name: MetricWALPending, Help: "WAL records a restart would replay (since last snapshot).", Type: "gauge", Value: float64(s.store.PendingWALRecords())},
		{Name: MetricRecovered, Help: "Records recovered from snapshot+WAL at open.", Type: "gauge", Value: float64(recovered)},
		{Name: MetricSkipped, Help: "Torn or corrupt records skipped at open.", Type: "gauge", Value: float64(skipped)},
	}
	hits, deltas, fulls := s.store.memo.Stats()
	for _, r := range []struct {
		result string
		n      int64
	}{{"hit", hits}, {"delta", deltas}, {"full", fulls}} {
		samples = append(samples, telemetry.Sample{
			Name: MetricMemo, Help: "/agg and /regress memo lookups, by result: hit, delta (an accumulator moved by the changed ids) or full (folded from empty).", Type: "counter",
			Labels: []telemetry.Label{{Key: "result", Value: r.result}},
			Value:  float64(r.n),
		})
	}
	for q := 0; q < qCount; q++ {
		samples = append(samples, telemetry.Sample{
			Name: MetricQueries, Help: "Queries served by endpoint.", Type: "counter",
			Labels: []telemetry.Label{{Key: "endpoint", Value: queryNames[q]}},
			Value:  float64(s.queries[q].Load()),
		})
	}
	s.reg.Publish("profstore", samples)
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// SetDraining marks the server as shutting down: /readyz answers 503 so
// load balancers drain, while in-flight and follow-up queries still
// complete against the live mux.
func (s *Server) SetDraining(d bool) { s.draining.Store(d) }

// JobSource answers the corpus-wide queries: the server's own store, or
// (see Routes) a cluster router's mirror of every member, whose
// revalidation can fail — any error is answered 503 with Retry-After,
// never with a partial answer.
type JobSource interface {
	// Jobs resolves a job selector (see Store.Select), sorted by id.
	Jobs(sel string) ([]*Job, error)
	Aggregate(AggOptions) (*AggReport, error)
	Regress(RegressOptions) (*RegressReport, error)
}

// Ingester is the write twin of JobSource: where POST /ingest lands a
// document. The server's own *Store is one; a cluster router's quorum
// write (see Routes) and a Poster are the others. A failure that
// IsUnavailable is answered 503 with Retry-After, any other as the
// document's fault: 400 with the error's own text.
type Ingester interface {
	Ingest(xml []byte, id string, tags []string) (*Job, error)
}

// localSource is the single-node JobSource.
type localSource struct{ s *Store }

func (l localSource) Jobs(sel string) ([]*Job, error)            { return l.s.Select(sel), nil }
func (l localSource) Aggregate(o AggOptions) (*AggReport, error) { return l.s.Aggregate(o), nil }
func (l localSource) Regress(o RegressOptions) (*RegressReport, error) {
	return l.s.Regress(o), nil
}

// observe records one served query in the counters and the latency
// histogram.
func (s *Server) observe(q int, start time.Time) {
	s.queries[q].Add(1)
	s.lat.Observe(time.Since(start).Seconds())
}

// QuerySurface is the dynamic type of Server.Handler(): the single-node
// routes, plus the means to serve the corpus routes (ingest and the
// corpus-wide queries) over somewhere else.
type QuerySurface struct {
	http.Handler
	s *Server
}

// Routes returns the server's POST /ingest and GET /jobs, /job/{id},
// /agg and /regress handlers — same parameter parsing, same counters and
// latency histogram, same renderers — writing to ing and answering from
// src instead of the server's store.
func (q *QuerySurface) Routes(src JobSource, ing Ingester) http.Handler {
	mux := http.NewServeMux()
	q.s.routeCorpus(mux, src, ing)
	return mux
}

// routeCorpus registers the corpus routes: ingest into ing, queries over
// src.
func (s *Server) routeCorpus(mux *http.ServeMux, src JobSource, ing Ingester) {
	mux.HandleFunc("POST /ingest", func(w http.ResponseWriter, r *http.Request) { s.serveIngest(ing, w, r) })
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) { s.serveJobs(src, w, r) })
	mux.HandleFunc("GET /job/{id}", func(w http.ResponseWriter, r *http.Request) { s.serveJob(src, w, r) })
	mux.HandleFunc("GET /agg", func(w http.ResponseWriter, r *http.Request) { s.serveAgg(src, w, r) })
	mux.HandleFunc("GET /regress", func(w http.ResponseWriter, r *http.Request) { s.serveRegress(src, w, r) })
}

// Handler returns the route mux (a *QuerySurface): the query surface plus
// /metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.routeCorpus(mux, localSource{s.store}, s.store)
	mux.HandleFunc("POST /compact", s.handleCompact)
	// /healthz: liveness — the process is up and serving queries.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	// /readyz: readiness to accept writes — 503 while draining for
	// shutdown or degraded to read-only, so ingest clients and load
	// balancers route away while dashboards keep reading.
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.draining.Load() {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		if ro, reason := s.store.ReadOnly(); ro {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
			http.Error(w, "read-only: "+reason, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /{$}", s.handleIndex)
	mux.Handle("GET /metrics", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.publishMetrics()
		s.reg.Handler().ServeHTTP(w, r)
	}))
	return &QuerySurface{Handler: mux, s: s}
}

func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	s.httpErrors.Add(1)
	http.Error(w, fmt.Sprintf(format, args...), code)
}

// unavailable answers 503 with the retry hint.
func (s *Server) unavailable(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	s.fail(w, http.StatusServiceUnavailable, "%v", err)
}

// writeJSON renders v as indented JSON (deterministic: struct fields in
// declaration order, every slice pre-sorted). A report a single node's
// memo shares is encoded once, and its bytes sent on every later hit.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	var once *encodedBody
	switch rep := v.(type) {
	case *AggReport:
		once = rep.body
	case *RegressReport:
		once = rep.body
	}
	if once != nil {
		body, err := once.get(v)
		if err != nil {
			s.httpErrors.Add(1)
			return
		}
		w.Write(body)
		return
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.httpErrors.Add(1)
	}
}

// encodedBody holds a shared report's response body — what writeJSON's
// encoder writes: two-space-indented JSON and a newline — encoded on
// first use.
type encodedBody struct {
	once sync.Once
	b    []byte
	err  error
}

func (e *encodedBody) get(v any) ([]byte, error) {
	e.once.Do(func() {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		e.err = enc.Encode(v)
		e.b = buf.Bytes()
	})
	return e.b, e.err
}

// IngestResponse is the POST /ingest response body.
type IngestResponse struct {
	ID       string   `json:"id"`
	Ranks    int      `json:"ranks"`
	Salvaged bool     `json:"salvaged"`
	Warnings int      `json:"warnings"`
	Tags     []string `json:"tags,omitempty"`
}

// MaxIngestBytes bounds one ingest body (a center-wide store must not be
// OOM-able by a single malformed client).
const MaxIngestBytes = 64 << 20

func (s *Server) serveIngest(ing Ingester, w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer s.observe(qIngest, start)
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxIngestBytes+1))
	if err != nil {
		s.fail(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if len(body) > MaxIngestBytes {
		s.fail(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", MaxIngestBytes)
		return
	}
	var tags []string
	if t := r.URL.Query().Get("tags"); t != "" {
		tags = strings.Split(t, ",")
	}
	job, err := ing.Ingest(body, r.URL.Query().Get("id"), tags)
	if err != nil {
		// The store's (or the cluster's) problem, not the client's:
		// answer 503 with a retry hint instead of blaming the document.
		if IsUnavailable(err) {
			s.unavailable(w, err)
			return
		}
		s.parseErrors.Add(1)
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.writeJSON(w, IngestResponse{
		ID: job.ID, Ranks: job.Ranks, Salvaged: job.Salvaged,
		Warnings: job.Warnings, Tags: job.Tags,
	})
}

// JobMeta is one row of the GET /jobs listing.
type JobMeta struct {
	ID               string   `json:"id"`
	Command          string   `json:"command"`
	Tags             []string `json:"tags,omitempty"`
	Ranks            int      `json:"ranks"`
	LostRanks        int      `json:"lost_ranks,omitempty"`
	WallclockSeconds float64  `json:"wallclock_seconds"`
	GPUPercent       float64  `json:"gpu_pct"`
	CommPercent      float64  `json:"comm_pct"`
	Salvaged         bool     `json:"salvaged,omitempty"`
}

func metaOf(j *Job) JobMeta {
	return JobMeta{
		ID: j.ID, Command: j.Command, Tags: j.Tags, Ranks: j.Ranks,
		LostRanks:        j.Lost,
		WallclockSeconds: time.Duration(j.WallMax).Seconds(),
		GPUPercent:       percentOfWall(j.GPU, j.Wall),
		CommPercent:      percentOfWall(j.MPI, j.Wall),
		Salvaged:         j.Salvaged,
	}
}

// percentOfWall is ipm.JobProfile's GPUPercent/CommPercent formula over
// rollup sums: 100·t/wall, 0 for a job without wallclock.
func percentOfWall(t, wall int64) float64 {
	if wall == 0 {
		return 0
	}
	return 100 * float64(t) / float64(wall)
}

func (s *Server) serveJobs(src JobSource, w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer s.observe(qJobs, start)
	jobs, err := src.Jobs(r.URL.Query().Get("sel"))
	if err != nil {
		s.unavailable(w, err)
		return
	}
	metas := make([]JobMeta, len(jobs))
	for i, j := range jobs {
		metas[i] = metaOf(j)
	}
	if wantsHTML(r) {
		renderHTML(w, jobsTmpl, metas)
		return
	}
	s.writeJSON(w, metas)
}

// JobDetail is the GET /job/{id} response body.
type JobDetail struct {
	JobMeta
	ExpectedRanks int           `json:"expected_ranks"`
	Degraded      bool          `json:"degraded,omitempty"`
	Errors        int64         `json:"errors,omitempty"`
	CallSites     []CallSiteAgg `json:"call_sites"`
}

func (s *Server) serveJob(src JobSource, w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer s.observe(qJob, start)
	id := r.PathValue("id")
	var jobs []*Job
	if IsIDSelector(id) {
		var err error
		if jobs, err = src.Jobs(id); err != nil {
			s.unavailable(w, err)
			return
		}
	}
	if len(jobs) == 0 {
		s.fail(w, http.StatusNotFound, "no job %q", id)
		return
	}
	job := jobs[0]
	expected := max(job.Declared, job.Ranks) // ipm.JobProfile.Expected
	s.writeJSON(w, JobDetail{
		JobMeta:       metaOf(job),
		ExpectedRanks: expected,
		Degraded:      job.Lost > 0 || expected > job.Ranks || job.MonErrors > 0,
		Errors:        job.Errors,
		CallSites:     AggregateJobs(jobs[:1], AggOptions{}).CallSites,
	})
}

func (s *Server) serveAgg(src JobSource, w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer s.observe(qAgg, start)
	topN := 0
	if t := r.URL.Query().Get("top"); t != "" {
		n, err := strconv.Atoi(t)
		if err != nil || n <= 0 {
			s.fail(w, http.StatusBadRequest, "bad top=%q", t)
			return
		}
		topN = n
	}
	rep, err := src.Aggregate(AggOptions{Sel: r.URL.Query().Get("sel"), TopN: topN})
	if err != nil {
		s.unavailable(w, err)
		return
	}
	if wantsHTML(r) {
		renderHTML(w, aggTmpl, rep)
		return
	}
	s.writeJSON(w, rep)
}

func (s *Server) serveRegress(src JobSource, w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer s.observe(qRegress, start)
	q := r.URL.Query()
	base, head := q.Get("base"), q.Get("head")
	if base == "" || head == "" {
		s.fail(w, http.StatusBadRequest, "base= and head= are required (job id, tag:T or cmd:C)")
		return
	}
	opts := RegressOptions{Base: base, Head: head}
	if t := q.Get("threshold"); t != "" {
		v, err := strconv.ParseFloat(t, 64)
		if err != nil || v <= 0 {
			s.fail(w, http.StatusBadRequest, "bad threshold=%q", t)
			return
		}
		opts.Threshold = v
	}
	rep, err := src.Regress(opts)
	if err != nil {
		s.unavailable(w, err)
		return
	}
	if rep.BaseJobs == 0 || rep.HeadJobs == 0 {
		s.fail(w, http.StatusNotFound, "base matched %d job(s), head %d", rep.BaseJobs, rep.HeadJobs)
		return
	}
	if wantsHTML(r) {
		renderHTML(w, regressTmpl, rep)
		return
	}
	s.writeJSON(w, rep)
}

// handleCompact is the admin trigger for Snapshot(): fold snapshot+WAL
// into a new snapshot and truncate the log, synchronously.
func (s *Server) handleCompact(w http.ResponseWriter, _ *http.Request) {
	start := time.Now()
	defer s.observe(qCompact, start)
	info, err := s.store.Snapshot()
	if IsUnavailable(err) {
		s.unavailable(w, err)
		return
	}
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.writeJSON(w, info)
}

func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	io.WriteString(w, indexHTML)
}

// wantsHTML reports whether the request asked for the HTML table view.
func wantsHTML(r *http.Request) bool { return r.URL.Query().Get("format") == "html" }

func renderHTML(w http.ResponseWriter, t *template.Template, data any) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	t.Execute(w, data)
}

const htmlStyle = `<style>
body { font-family: sans-serif; margin: 2em; }
table { border-collapse: collapse; margin-bottom: 2em; }
th, td { border: 1px solid #999; padding: 0.2em 0.6em; text-align: right; }
th { background: #eee; }
td.l, th.l { text-align: left; }
.bad { color: #a00; font-weight: bold; }
.good { color: #070; }
</style>`

const indexHTML = `<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>ipmserve</title>` + htmlStyle + `</head><body>
<h1>IPM profile store</h1>
<ul>
<li><a href="/jobs?format=html">/jobs</a> — ingested profiles (JSON without format=html)</li>
<li><a href="/agg?format=html">/agg</a> — cross-job rollup (sel=, top=)</li>
<li>/regress?base=&amp;head= — per-call-site comparison (threshold=)</li>
<li><a href="/metrics">/metrics</a> — Prometheus metrics</li>
</ul>
<p>POST IPM XML logs to /ingest?tags=a,b to grow the corpus.</p>
</body></html>
`

var jobsTmpl = template.Must(template.New("jobs").Parse(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>ipmserve: jobs</title>` + htmlStyle + `</head><body>
<h1>Jobs ({{len .}})</h1>
<table>
<tr><th class="l">id</th><th class="l">command</th><th class="l">tags</th><th>ranks</th><th>lost</th><th>wallclock [s]</th><th>%gpu</th><th>%comm</th><th>salvaged</th></tr>
{{range .}}<tr><td class="l"><a href="/job/{{.ID}}">{{.ID}}</a></td><td class="l">{{.Command}}</td><td class="l">{{range .Tags}}{{.}} {{end}}</td><td>{{.Ranks}}</td><td>{{.LostRanks}}</td><td>{{printf "%.3f" .WallclockSeconds}}</td><td>{{printf "%.2f" .GPUPercent}}</td><td>{{printf "%.2f" .CommPercent}}</td><td>{{if .Salvaged}}yes{{end}}</td></tr>
{{end}}</table>
</body></html>
`))

const aggTmplText = `<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>ipmserve: aggregate</title>` + htmlStyle + `</head><body>
<h1>Fleet aggregate{{with .Selector}} ({{.}}){{end}}</h1>
<table>
<tr><th class="l">jobs</th><td>{{.Jobs}}</td></tr>
<tr><th class="l">ranks</th><td>{{.Ranks}} ({{.LostRanks}} lost)</td></tr>
<tr><th class="l">salvaged jobs</th><td>{{.Salvaged}}</td></tr>
<tr><th class="l">wallclock [s]</th><td>{{printf "%.3f" .WallclockSeconds}}</td></tr>
<tr><th class="l">GPU busy</th><td>{{printf "%.2f%%" (mulf .GPUBusyFraction 100)}}</td></tr>
<tr><th class="l">host blocked</th><td>{{printf "%.2f%%" (mulf .HostBlockedFraction 100)}}</td></tr>
<tr><th class="l">transfer [s]</th><td>{{printf "%.4f" .TransferSeconds}}</td></tr>
<tr><th class="l">MPI [s]</th><td>{{printf "%.4f" .MPISeconds}}</td></tr>
</table>
<h2>Call sites</h2>
<table>
<tr><th class="l">name</th><th class="l">domain</th><th>calls</th><th>errors</th><th>time [s]</th><th>per call [s]</th><th>%wall</th></tr>
{{range .CallSites}}<tr><td class="l">{{.Name}}</td><td class="l">{{.Domain}}</td><td>{{.Calls}}</td><td>{{.Errors}}</td><td>{{printf "%.4f" .Seconds}}</td><td>{{printf "%.6f" .PerCall}}</td><td>{{printf "%.2f" .WallPct}}</td></tr>
{{end}}</table>
<h2>Top kernels</h2>
<table>
<tr><th class="l">kernel</th><th>launches</th><th>GPU time [s]</th></tr>
{{range .TopKernels}}<tr><td class="l">{{.Kernel}}</td><td>{{.Launches}}</td><td>{{printf "%.4f" .Seconds}}</td></tr>
{{end}}</table>
<h2>Worst per-rank imbalance (max/avg)</h2>
<table>
<tr><th class="l">name</th><th>max/avg</th><th class="l">worst job</th></tr>
{{range .Imbalance}}<tr><td class="l">{{.Name}}</td><td>{{printf "%.2f" .MaxOverAvg}}</td><td class="l">{{.WorstJob}}</td></tr>
{{end}}</table>
</body></html>
`

var aggTmpl = template.Must(template.New("agg").Funcs(template.FuncMap{
	"mulf": func(a, b float64) float64 { return a * b },
}).Parse(aggTmplText))

var regressTmpl = template.Must(template.New("regress").Parse(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>ipmserve: regress</title>` + htmlStyle + `</head><body>
<h1>Regression: {{.Base}} &rarr; {{.Head}}</h1>
<p>{{.BaseJobs}} base job(s), {{.HeadJobs}} head job(s), threshold {{printf "%.1f%%" .Threshold}},
<span {{if .Regressions}}class="bad"{{end}}>{{.Regressions}} regression(s)</span>.</p>
<table>
<tr><th class="l">name</th><th>base/call [s]</th><th>head/call [s]</th><th>delta</th><th class="l">status</th></tr>
{{range .Rows}}<tr><td class="l">{{.Name}}</td><td>{{printf "%.6f" .BasePerCall}}</td><td>{{printf "%.6f" .HeadPerCall}}</td><td>{{printf "%+.1f%%" .DeltaPct}}</td><td class="l{{if .Regressed}} bad{{end}}{{if eq .Status "improved"}} good{{end}}">{{.Status}}</td></tr>
{{end}}</table>
</body></html>
`))
