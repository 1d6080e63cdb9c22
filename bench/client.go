package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"ipmgo/internal/ipm"
	"ipmgo/internal/profstore"
	"ipmgo/internal/telemetry"
)

// ---- closed-loop clients ----

// write is the last acknowledged document of one job id.
type write struct{ doc, tag int }

type client struct {
	idx      int
	e        *env
	pool     *docPool
	mix      mixKind
	round    int
	hc       *http.Client
	routers  []*member // the members this client sends to, in rotation
	posters  map[*member]*profstore.Poster
	scratch  *profstore.Store // renders the body a probe waits for
	scratchH http.Handler
	buf      bytes.Buffer

	cur      opRef // operation in flight, stamped onto its requests when tracing
	s        *samples
	acked    map[string]write
	bytes    int64 // XML bytes of acknowledged writes
	firstErr error // first failed operation, reported once the clients have stopped
}

// stampTransport adds the operation headers to the client's requests.
type stampTransport struct {
	base http.RoundTripper
	c    *client
}

func (t *stampTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	req = req.Clone(req.Context())
	req.Header.Set(hdrOp, strconv.FormatInt(t.c.cur.op, 10))
	req.Header.Set(hdrParent, strconv.Itoa(int(t.c.cur.parent)))
	return t.base.RoundTrip(req)
}

func newClient(e *env, fx *fixture, pool *docPool, idx, round int) *client {
	c := &client{idx: idx, e: e, pool: pool, round: round,
		posters: map[*member]*profstore.Poster{}, s: newSamples(), acked: map[string]write{}}
	// One connection per server, as one ipmrun epilogue or one dashboard holds.
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 1, IdleConnTimeout: 90 * time.Second}
	if e.trace != nil {
		rt = &stampTransport{base: rt, c: c}
	}
	c.hc = &http.Client{Transport: rt, Timeout: 30 * time.Second}
	// Member m takes requests from client m mod nclients only, so a
	// router serves one client operation at a time and the peer legs it
	// sends can be charged to that operation.
	for _, m := range fx.members {
		if len(fx.members) == 1 || m.idx%e.nclients == idx {
			c.routers = append(c.routers, m)
			c.posters[m] = &profstore.Poster{URL: m.url, Client: c.hc}
		}
	}
	c.scratch = profstore.New()
	c.scratchH = profstore.NewServer(c.scratch, telemetry.NewRegistry()).Handler()
	return c
}

func (c *client) close() {
	c.hc.CloseIdleConnections()
	c.scratch.Close()
}

// get fetches one URL in full, under a round-trip span.
func (c *client) get(m *member, path string, root int32) ([]byte, error) {
	var id int32
	if c.e.trace != nil { // keep the untraced loop free of the name's allocation
		id = c.e.trace.begin("http", "GET "+path, -1, root, c.cur.op)
	}
	c.cur.parent = id
	body, err := httpGet(c.hc, m.url+path)
	c.e.trace.end(id, int64(len(body)))
	return body, err
}

func httpGet(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url)
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

// post sends one document through the member's Poster, under a
// round-trip span, and records the acknowledged write.
func (c *client) post(m *member, xml []byte, o op, root int32) error {
	id := c.e.trace.begin("http", "POST /ingest", -1, root, c.cur.op)
	c.cur.parent = id
	t0 := time.Now()
	_, err := c.posters[m].PostXML(xml, o.ID, batchTag(o.Tag))
	d := time.Since(t0)
	c.e.trace.end(id, int64(len(xml)))
	if err != nil {
		return err
	}
	c.s.add("ingest", d)
	c.acked[o.ID] = write{o.Doc, o.Tag}
	c.bytes += int64(len(xml))
	return nil
}

// expected renders what GET /agg?sel=<id> must answer once the store
// reflects the document: the single-node handler over a scratch store
// holding just that write.
func (c *client) expected(xml []byte, o op) ([]byte, error) {
	if _, err := c.scratch.Ingest(xml, o.ID, batchTag(o.Tag)); err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	c.scratchH.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/agg?sel="+o.ID, nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("scratch /agg?sel=%s: %d", o.ID, rec.Code)
	}
	return rec.Body.Bytes(), nil
}

const maxVisibleTries = 50

// do runs operation i of the client's stream.
func (c *client) do(i int) {
	o := opAt(c.e.seed, c.mix, c.idx, c.e.nclients, i, c.e.sz.corpus, c.e.sz.pool)
	c.s.attempted++
	c.cur.op = int64(c.round)<<40 | int64(c.idx)<<32 | int64(i)
	router := c.routers[i%len(c.routers)]
	tr := c.e.trace
	var err error
	switch o.Kind {
	case opIngest:
		root := tr.begin("loadgen", o.Kind.spanName(), -1, 0, c.cur.op)
		err = c.post(router, c.pool.xml[o.Doc], o, root)
		tr.end(root, 0)
	case opProbe:
		// A finished job publishes its profile: render it, post it, and
		// ask — another member, in a cluster — until the answer is the
		// one a store holding the document gives.
		var want []byte
		if want, err = c.expected(c.pool.xml[o.Doc], o); err != nil {
			break
		}
		reader := c.routers[(i+1)%len(c.routers)]
		root := tr.begin("loadgen", o.Kind.spanName(), -1, 0, c.cur.op)
		t0 := time.Now()
		wx := tr.begin("ipm", "ipm.WriteXML", -1, root, c.cur.op)
		c.buf.Reset()
		err = ipm.WriteXML(&c.buf, c.pool.profiles[o.Doc])
		tr.end(wx, int64(c.buf.Len()))
		if err == nil {
			err = c.post(router, c.buf.Bytes(), o, root)
		}
		for try := 0; err == nil; try++ {
			var got []byte
			if got, err = c.get(reader, "/agg?sel="+o.ID, root); err != nil || bytes.Equal(got, want) {
				break
			}
			if try == maxVisibleTries {
				err = fmt.Errorf("%s not visible after %d reads", o.ID, try)
			}
		}
		if err == nil {
			c.s.add("visible", time.Since(t0))
		}
		tr.end(root, 0)
	default:
		class := o.Kind.class()
		root := tr.begin("loadgen", o.Kind.spanName(), -1, 0, c.cur.op)
		t0 := time.Now()
		_, err = c.get(router, o.path(), root)
		if err == nil {
			c.s.add(class, time.Since(t0))
		}
		tr.end(root, 0)
	}
	if err != nil {
		c.s.failed++
		if c.firstErr == nil {
			c.firstErr = fmt.Errorf("client %d op %d: %w", c.idx, i, err)
		}
	}
}
