package profstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ipmgo/internal/faultsim"
	"ipmgo/internal/ipm"
	"ipmgo/internal/telemetry"
)

// This file is the ingest client side: how a finished run posts its
// profile to a (possibly flaky) center-wide store. It reuses the
// fault model's capped-exponential RetryPolicy — the same schedule
// faultsim.Resilient applies to transient CUDA faults — because the
// failure mode is the same: a transient infrastructure hiccup that a
// bounded number of spaced retries rides out, and that must degrade
// into a warning rather than fail the job.
//
// One failure mode gets special treatment: a 503 with a Retry-After
// header is the store saying "up, but not accepting writes right now"
// (read-only degradation, shutdown drain). That is not a dead server —
// the client honors the advertised delay and retries on a separate,
// more patient budget instead of burning its transient-failure attempts.

// Client metric names (published when Poster.Reg is set).
const (
	MetricIngestPosts     = "ipm_ingest_posts_total"
	MetricIngestRetries   = "ipm_ingest_retries_total"
	MetricIngestFailures  = "ipm_ingest_failures_total"
	MetricIngestConnReuse = "ipm_ingest_conn_reuse_total"
)

// sharedTransport is the one pooled keep-alive transport every Poster
// and cluster peer client in the process rides on. A run epilogue posts
// one document and exits, but ipmserve routers, the soak harness and the
// benches post thousands — without a shared pool each Poster value
// (historically constructed per post site) dialed fresh connections.
// The pool is sized for a small cluster fan-out, not a browser: many
// concurrent posts to the same few member URLs.
var sharedTransport = &http.Transport{
	Proxy:               http.ProxyFromEnvironment,
	MaxIdleConns:        64,
	MaxIdleConnsPerHost: 16,
	IdleConnTimeout:     90 * time.Second,
}

// connReuses counts connections handed out of the shared pool that had
// already served a request (httptrace GotConn with Reused set).
var connReuses atomic.Int64

// ConnReuseTotal returns how many requests on the shared transport were
// served over a reused keep-alive connection.
func ConnReuseTotal() int64 { return connReuses.Load() }

// reuseCountingTransport wraps a RoundTripper with an httptrace hook
// that increments connReuses whenever the connection was pooled.
type reuseCountingTransport struct {
	inner http.RoundTripper
}

func (t reuseCountingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	trace := &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if info.Reused {
				connReuses.Add(1)
			}
		},
	}
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), trace))
	return t.inner.RoundTrip(req)
}

// CountingTransport wraps a RoundTripper (a test server's client
// transport, a faultsim peer plan) so that connection reuse is counted
// into ipm_ingest_conn_reuse_total; nil wraps the process-wide pooled
// keep-alive transport, the default for Poster and the cluster peer
// clients.
func CountingTransport(inner http.RoundTripper) http.RoundTripper {
	if inner == nil {
		inner = sharedTransport
	}
	return reuseCountingTransport{inner: inner}
}

// maxRetryAfter caps how long the client believes a Retry-After header;
// a degraded store advertising an hour should not stall a job epilogue.
const maxRetryAfter = 10 * time.Second

// PosterStats are the cumulative counters of one Poster.
type PosterStats struct {
	Posts    int64 // documents posted (success or final failure)
	Retries  int64 // extra attempts beyond the first, per document
	Failures int64 // documents that exhausted every attempt
}

// Poster posts IPM XML profiles to an ipmserve /ingest endpoint with
// capped-backoff retry.
type Poster struct {
	// URL is the server base ("http://host:port") or the full /ingest URL.
	URL string
	// Policy is the retry schedule; the zero value means 3 attempts with
	// 100µs..10ms capped exponential backoff (faultsim defaults).
	Policy faultsim.RetryPolicy
	// ReadOnlyAttempts bounds the retries spent on 503+Retry-After
	// responses (a degraded or draining store). 0 means 8. These do not
	// consume the transient-failure budget in Policy.
	ReadOnlyAttempts int
	// Client is the HTTP client; nil uses a 10s-timeout default.
	Client *http.Client
	// Sleep is the backoff sleep, injectable for tests; nil = time.Sleep.
	// Unlike Resilient this runs after the simulation, so it waits in
	// wall time, not virtual time.
	Sleep func(time.Duration)
	// Reg, when non-nil, receives the poster counters as
	// ipm_ingest_{posts,retries,failures}_total on every post.
	Reg *telemetry.Registry

	posts    atomic.Int64
	retries  atomic.Int64
	failures atomic.Int64
}

// Stats returns the cumulative post/retry/failure counters.
func (p *Poster) Stats() PosterStats {
	return PosterStats{
		Posts:    p.posts.Load(),
		Retries:  p.retries.Load(),
		Failures: p.failures.Load(),
	}
}

// publish pushes the counters into the registry (no-op without one).
func (p *Poster) publish() {
	if p.Reg == nil {
		return
	}
	st := p.Stats()
	p.Reg.Publish("ingestclient", []telemetry.Sample{
		{Name: MetricIngestPosts, Help: "Profiles posted to the store (success or final failure).", Type: "counter", Value: float64(st.Posts)},
		{Name: MetricIngestRetries, Help: "Ingest attempts beyond the first.", Type: "counter", Value: float64(st.Retries)},
		{Name: MetricIngestFailures, Help: "Profiles that exhausted every ingest attempt.", Type: "counter", Value: float64(st.Failures)},
		{Name: MetricIngestConnReuse, Help: "Requests on the shared transport served over a reused keep-alive connection.", Type: "counter", Value: float64(ConnReuseTotal())},
	})
}

// ingestURL builds the final /ingest URL with id and tags parameters.
func (p *Poster) ingestURL(id string, tags []string) (string, error) {
	base := p.URL
	if !strings.Contains(base, "/ingest") {
		base = strings.TrimSuffix(base, "/") + "/ingest"
	}
	u, err := url.Parse(base)
	if err != nil {
		return "", fmt.Errorf("profstore: bad ingest URL %q: %v", p.URL, err)
	}
	q := u.Query()
	if id != "" {
		q.Set("id", id)
	}
	if len(tags) > 0 {
		q.Set("tags", strings.Join(tags, ","))
	}
	u.RawQuery = q.Encode()
	return u.String(), nil
}

// retryableStatus reports whether an HTTP status is worth retrying:
// server-side failures and throttling, never client errors (a 400 will
// fail identically on every attempt).
func retryableStatus(code int) bool {
	return code >= 500 || code == http.StatusTooManyRequests
}

// PostXML posts one XML document, retrying transient failures with the
// capped backoff schedule and honoring Retry-After on 503s from a
// degraded store. It returns the attempts made alongside the final
// error, so the caller can log how hard the post had to try.
func (p *Poster) PostXML(xml []byte, id string, tags []string) (attempts int, err error) {
	attempts, _, err = p.post(xml, id, tags)
	return attempts, err
}

// Ingest is PostXML for a writer that wants the stored job back (a
// cluster router landing a document on a peer owner), which makes a
// Poster an Ingester like the Store it posts to. The job carries the
// answer's ranks, salvage flag and warning count under the id and tags
// the server stores: the id sent (DeriveID when empty) and the
// normalised tags, taken from the request because the answer's JSON
// rewrites invalid UTF-8. A permanent rejection (4xx) fails with the
// server's own error text; any other failure wraps ErrUnavailable.
func (p *Poster) Ingest(xml []byte, id string, tags []string) (*Job, error) {
	if id == "" {
		id = DeriveID(xml)
	}
	_, body, err := p.post(xml, id, tags)
	var resp IngestResponse
	if err == nil {
		err = json.Unmarshal(body, &resp)
	}
	if err != nil {
		var se *statusError
		if errors.As(err, &se) && !retryableStatus(se.code) {
			return nil, errors.New(se.body)
		}
		return nil, fmt.Errorf("%w: %w", ErrUnavailable, err)
	}
	return &Job{ID: id, Tags: normTags(tags), Ranks: resp.Ranks, Salvaged: resp.Salvaged, Warnings: resp.Warnings}, nil
}

// post is PostXML returning the server's response body as well.
func (p *Poster) post(xml []byte, id string, tags []string) (attempts int, body []byte, err error) {
	target, err := p.ingestURL(id, tags)
	if err != nil {
		return 0, nil, err
	}
	client := p.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second, Transport: CountingTransport(nil)}
	}
	sleep := p.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	p.posts.Add(1)
	defer func() {
		if attempts > 1 {
			p.retries.Add(int64(attempts - 1))
		}
		if err != nil {
			p.failures.Add(1)
		}
		p.publish()
	}()
	budget := p.Policy.Attempts()
	roBudget := p.ReadOnlyAttempts
	if roBudget <= 0 {
		roBudget = 8
	}
	for attempt, roAttempt := 0, 0; ; {
		attempts++
		body, err = postOnce(client, target, xml)
		if err == nil {
			return attempts, body, nil
		}
		var se *statusError
		if errors.As(err, &se) {
			if se.retryAfter > 0 && se.code == http.StatusServiceUnavailable {
				// The store is alive but not writable (read-only
				// degradation or shutdown drain): wait as told, on the
				// patient budget.
				if p.Policy.Disable || roAttempt >= roBudget-1 {
					return attempts, nil, err
				}
				roAttempt++
				sleep(se.retryAfter)
				continue
			}
			if !retryableStatus(se.code) {
				return attempts, nil, err // permanent rejection
			}
		}
		if p.Policy.Disable || attempt >= budget-1 {
			return attempts, nil, err
		}
		sleep(p.Policy.BackoffFor(attempt))
		attempt++
	}
}

// PostProfile serialises a profile to IPM XML and posts it.
func (p *Poster) PostProfile(jp *ipm.JobProfile, id string, tags []string) (string, int, error) {
	var buf bytes.Buffer
	if err := ipm.WriteXML(&buf, jp); err != nil {
		return "", 0, fmt.Errorf("profstore: encoding profile: %w", err)
	}
	xml := buf.Bytes()
	if id == "" {
		id = DeriveID(xml)
	}
	attempts, err := p.PostXML(xml, id, tags)
	return id, attempts, err
}

// statusError is a non-2xx ingest response.
type statusError struct {
	code       int
	body       string
	retryAfter time.Duration // parsed Retry-After header, 0 if absent
}

func (e *statusError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.code, e.body)
}

// parseRetryAfter reads an integer-seconds Retry-After value, capped at
// maxRetryAfter. (The HTTP-date form is not produced by ipmserve and is
// ignored.)
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(h))
	if err != nil || secs < 0 {
		return 0
	}
	d := time.Duration(secs) * time.Second
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	return d
}

func postOnce(client *http.Client, target string, xml []byte) ([]byte, error) {
	resp, err := client.Post(target, "application/xml", bytes.NewReader(xml))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// An error body is read as far as an answer is: a cluster router
	// relays a peer's rejection text whole.
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode/100 != 2 {
		return nil, &statusError{
			code:       resp.StatusCode,
			body:       strings.TrimSpace(string(body)),
			retryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	if err != nil {
		return nil, err
	}
	return body, nil
}
