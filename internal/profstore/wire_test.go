package profstore

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ipmgo/internal/ipm"
	"ipmgo/internal/telemetry"
)

// fixedSyntheticXML renders one deterministic synthetic profile — the
// second shard's corpus in the wire fuzz target.
func fixedSyntheticXML(t testing.TB, i int) []byte {
	var buf bytes.Buffer
	if err := ipm.WriteXML(&buf, SyntheticProfile(2011, i)); err != nil {
		t.Fatalf("rendering synthetic profile: %v", err)
	}
	return buf.Bytes()
}

func reportJSON(t testing.TB, v any) string {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// overWire ships a reply through the wire encoding, as a router
// receives it, and checks the encoding canonical on the way: re-encoding
// the decoded jobs yields the same bytes.
func overWire(t *testing.T, r Rollups) Rollups {
	enc, err := EncodeWireJobs(r.Jobs)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if r.Jobs, err = DecodeWireJobs(enc); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if re, err := EncodeWireJobs(r.Jobs); err != nil || !bytes.Equal(enc, re) {
		t.Fatalf("wire encoding is not canonical (err=%v)", err)
	}
	return r
}

// sliceSource is a router's JobSource over a fixed, id-sorted job list.
type sliceSource []*Job

func (js sliceSource) Jobs(sel string) ([]*Job, error) { return FilterJobs(js, sel), nil }
func (js sliceSource) Aggregate(o AggOptions) (*AggReport, error) {
	return AggregateJobs(FilterJobs(js, o.Sel), o), nil
}
func (js sliceSource) Regress(o RegressOptions) (*RegressReport, error) {
	return regressJobs(FilterJobs(js, o.Base), FilterJobs(js, o.Head), o), nil
}

// regressJobs compares two explicit job lists as Store.Regress does.
func regressJobs(base, head []*Job, o RegressOptions) *RegressReport {
	if o.Threshold <= 0 {
		o.Threshold = 10
	}
	return regressReport(foldJobs(base), foldJobs(head), o)
}

// checkJobViews holds the router's /jobs rows and /job/{id} details —
// the single-node handlers over jobs decoded from the wire — to the
// single node's bytes, for every job single holds and one it does not.
func checkJobViews(t *testing.T, single *Store, jobs []*Job) {
	t.Helper()
	want := NewServer(single, telemetry.NewRegistry()).Handler()
	got := NewServer(New(), telemetry.NewRegistry()).Handler().(*QuerySurface).Routes(sliceSource(jobs), nil)
	queries := []string{"/jobs", "/jobs?sel=tag:fuzz&format=html", "/job/unknown"}
	for _, j := range single.List() {
		queries = append(queries, "/job/"+url.PathEscape(j.ID))
	}
	for _, q := range queries {
		w, g := httptest.NewRecorder(), httptest.NewRecorder()
		want.ServeHTTP(w, httptest.NewRequest("GET", q, nil))
		got.ServeHTTP(g, httptest.NewRequest("GET", q, nil))
		if g.Code != w.Code || g.Body.String() != w.Body.String() {
			t.Errorf("router %s differs from the single node's\ngot:  %d %s\nwant: %d %s", q, g.Code, g.Body, w.Code, w.Body)
		}
	}
}

// FuzzRollupWire proves the shard rollup wire format faithful: for any
// ingestible document, splitting the corpus across two stores, shipping
// both halves through EncodeWireJobs/DecodeWireJobs and merging at a
// router produces the identical /agg, /regress, /jobs and /job/{id}
// answers as one store holding everything — the byte-identity contract
// cluster mode rests on. It then proves the delta protocol a fixed point: a mirror
// that applied full(E₀) and then the since= replies to any interleaving
// of replacing ingests holds exactly what full(Eₙ) would give it. Last,
// it drives a memo through an op script derived from the document (see
// memoScript): every /agg and /regress the accumulators render equals
// the oracle walk over Select.
func FuzzRollupWire(f *testing.F) {
	for _, name := range []string{"base.xml", "head.xml", "energy.xml", "submit.xml"} {
		if data, err := os.ReadFile(filepath.Join("testdata", name)); err == nil {
			f.Add(data)
		}
	}
	f.Add(fixedSyntheticXML(f, 7))
	f.Add([]byte(mergeDoc))
	f.Add([]byte("<ipm_log><job username=\"u\" nhosts=\"1\"></job></ipm_log>"))
	wired := New()
	if _, err := wired.Ingest(fixedSyntheticXML(f, 5), "j\xff", []string{"t\xfe"}); err != nil {
		f.Fatal(err)
	}
	image, _ := EncodeWireJobs(wired.WireJobs())
	f.Add(image)

	f.Fuzz(func(t *testing.T, doc []byte) {
		// Any byte string decodes to the jobs it re-encodes to, byte for
		// byte, or fails.
		if jobs, err := DecodeWireJobs(doc); err == nil {
			if re, _ := EncodeWireJobs(jobs); !bytes.Equal(re, doc) {
				t.Fatalf("DecodeWireJobs accepted a non-canonical image:\n%s", hex.Dump(doc))
			}
		}

		// Reference: one store with the fuzz doc and a fixed companion.
		companion := fixedSyntheticXML(t, 3)
		single := New()
		if _, err := single.Ingest(doc, "", []string{"fuzz"}); err != nil {
			t.Skip() // unparseable either way; nothing to compare
		}
		if _, err := single.Ingest(companion, "", []string{"fixed"}); err != nil {
			t.Fatalf("companion ingest: %v", err)
		}
		wantAgg := reportJSON(t, single.Aggregate(AggOptions{}))
		wantRegress := reportJSON(t, single.Regress(RegressOptions{Base: "tag:fuzz", Head: "tag:fixed"}))

		// Cluster: the two documents on separate shards, rollups shipped
		// over the wire and merged router-side.
		s1, s2 := New(), New()
		if _, err := s1.Ingest(doc, "", []string{"fuzz"}); err != nil {
			t.Fatalf("shard ingest diverged from reference: %v", err)
		}
		if _, err := s2.Ingest(companion, "", []string{"fixed"}); err != nil {
			t.Fatalf("companion ingest: %v", err)
		}
		stores := []*Store{s1, s2}
		mirrors := make([]RollupMirror, len(stores))
		merge := func() []*Job {
			var sets [][]*Job
			for i, s := range stores {
				mirrors[i].Apply(overWire(t, s.RollupsSince(mirrors[i].Epoch)))
				if mirrors[i].Epoch != s.Epoch() {
					t.Fatalf("mirror %d at epoch %d after revalidation, store at %d", i, mirrors[i].Epoch, s.Epoch())
				}
				sets = append(sets, mirrors[i].Jobs())
			}
			return MergeJobs(sets...)
		}
		merged := merge()
		if got := reportJSON(t, AggregateJobs(merged, AggOptions{})); got != wantAgg {
			t.Errorf("merged /agg differs from single-store aggregation\ngot:  %s\nwant: %s", got, wantAgg)
		}
		base := FilterJobs(merged, "tag:fuzz")
		head := FilterJobs(merged, "tag:fixed")
		if got := reportJSON(t, regressJobs(base, head, RegressOptions{Base: "tag:fuzz", Head: "tag:fixed"})); got != wantRegress {
			t.Errorf("merged /regress differs from single-store comparison\ngot:  %s\nwant: %s", got, wantRegress)
		}
		checkJobViews(t, single, merged)

		// Delta fixed point. The document's first bytes script an
		// interleaving: each one either replaces one of three ids on one
		// of the shards (and on the reference) with one of the two
		// documents, or revalidates the mirrors mid-way. Two of the ids
		// and one of the tags are not UTF-8.
		script := doc
		if len(script) > 24 {
			script = script[:24]
		}
		for _, b := range script {
			if b%5 == 4 {
				merge()
				continue
			}
			id, body := []string{"a", "b\xff", "c\xfe\x80"}[b%3], doc
			if b&8 != 0 {
				body = companion
			}
			shard := int(b>>4) % 2
			// One id lives on one shard only, as under the ring.
			if other := stores[1-shard]; other.Get(id) != nil {
				shard = 1 - shard
			}
			for _, s := range []*Store{stores[shard], single} {
				if _, err := s.Ingest(body, id, []string{"fuzz", "t\xfe"}); err != nil {
					t.Fatalf("replacing ingest: %v", err)
				}
			}
		}
		merged = merge()
		deltaAgg := reportJSON(t, AggregateJobs(merged, AggOptions{}))
		if want := reportJSON(t, single.Aggregate(AggOptions{})); deltaAgg != want {
			t.Errorf("mirror kept by deltas differs from single-store aggregation\ngot:  %s\nwant: %s", deltaAgg, want)
		}
		sel := AggOptions{Sel: "tag:t\xfe"}
		if got, want := reportJSON(t, AggregateJobs(FilterJobs(merged, sel.Sel), sel)), reportJSON(t, single.Aggregate(sel)); got != want {
			t.Errorf("mirror kept by deltas differs from single-store aggregation of a non-UTF-8 tag\ngot:  %s\nwant: %s", got, want)
		}
		checkJobViews(t, single, merged)
		for i, s := range stores {
			// An epoch the store never had, as after a restart: full(Eₙ).
			mirrors[i].Epoch = s.Epoch() + 1
			if r := s.RollupsSince(mirrors[i].Epoch); r.Kind != RollupFull {
				t.Fatalf("reply to an unknown epoch is %v, want full", r.Kind)
			}
		}
		if fullAgg := reportJSON(t, AggregateJobs(merge(), AggOptions{})); deltaAgg != fullAgg {
			t.Errorf("mirror kept by deltas differs from a full resync\ngot:  %s\nwant: %s", deltaAgg, fullAgg)
		}
		fuzzMemoScript(t, doc)
	})
}

// TestWireJobRoundTripFields: a job decoded from its wire image is the
// stored job, field for field.
func TestWireJobRoundTripFields(t *testing.T) {
	s := New()
	job, err := s.Ingest(fixedSyntheticXML(t, 4), "", []string{"b", "a"})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeWireJobs([]*Job{job})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeWireJobs(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], job) {
		t.Errorf("round-tripped job differs:\ngot:  %+v\nwant: %+v", got, job)
	}
	if len(job.Tags) != 2 || job.Tags[0] != "a" || job.Tags[1] != "b" {
		t.Errorf("stored tags = %v, want [a b]", job.Tags)
	}
}

// TestWireGolden pins the bytes members send each other: the wire image
// of the four fixtures, built by either ingest path, as a hex.Dump
// (go test -update rewrites it).
func TestWireGolden(t *testing.T) {
	golden := filepath.Join("testdata", "wire.golden")
	for _, forceDecode := range []bool{false, true} {
		s := New()
		s.forceDecode = forceDecode
		for _, name := range []string{"base.xml", "head.xml", "energy.xml", "submit.xml"} {
			if _, err := s.Ingest(fixture(t, name), "", []string{strings.TrimSuffix(name, ".xml")}); err != nil {
				t.Fatal(err)
			}
		}
		enc, err := EncodeWireJobs(s.WireJobs())
		if err != nil {
			t.Fatal(err)
		}
		got := hex.Dump(enc)
		if *update && !forceDecode {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("reading golden (run with -update to regenerate): %v", err)
		}
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range max(len(gotLines), len(wantLines)) {
			g, w := lineAt(gotLines, i), lineAt(wantLines, i)
			if g != w {
				t.Errorf("forceDecode=%v: wire image differs from testdata/wire.golden first in the 16 bytes at offset %#x\ngot:  %s\nwant: %s",
					forceDecode, 16*i, g, w)
				break
			}
		}
	}
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(end of image)"
}

// TestReopenBootstampsEpoch is the restart-cache regression test: a
// store reopened over the same WAL must never report an epoch any
// earlier store generation used, so no (epoch, rollup) pair can
// validate across a restart; and the memo still works within one
// generation.
func TestReopenBootstampsEpoch(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "profiles.wal")
	s1, _, err := OpenStore(wal, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Ingest(fixedSyntheticXML(t, 0), "", []string{"boot"}); err != nil {
		t.Fatal(err)
	}
	e1 := s1.Epoch()
	rep1 := s1.Aggregate(AggOptions{})
	if s1.Aggregate(AggOptions{}) != rep1 {
		t.Error("memo miss on a quiet store (same generation)")
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, st, err := OpenStore(wal, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st.Recovered != 1 {
		t.Fatalf("recovered %d records, want 1", st.Recovered)
	}
	e2 := s2.Epoch()
	if e2 == e1 {
		t.Fatalf("reopened store reuses epoch %d: a pre-restart cached rollup would validate", e1)
	}
	// The recovered corpus still aggregates correctly and memoizes.
	rep2 := s2.Aggregate(AggOptions{})
	if reportJSON(t, rep2) != reportJSON(t, rep1) {
		t.Error("recovered aggregation differs from pre-restart one")
	}
	if s2.Aggregate(AggOptions{}) != rep2 {
		t.Error("memo miss on recovered store")
	}
}
