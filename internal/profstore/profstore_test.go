package profstore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func fixture(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestIngestDerivedIDIsIdempotent(t *testing.T) {
	s := New()
	doc := fixture(t, "base.xml")
	j1, err := s.Ingest(doc, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Ingest(doc, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if j1.ID != j2.ID {
		t.Errorf("same bytes, different ids: %s vs %s", j1.ID, j2.ID)
	}
	if s.Len() != 1 {
		t.Errorf("store holds %d jobs, want 1 (re-ingest must replace)", s.Len())
	}
	if s.Replaced() != 1 || s.Ingests() != 2 {
		t.Errorf("replaced=%d ingests=%d, want 1/2", s.Replaced(), s.Ingests())
	}
	if s.RankCount() != 2 {
		t.Errorf("ranks = %d, want 2", s.RankCount())
	}
}

func TestSelectors(t *testing.T) {
	s := New()
	if _, err := s.Ingest(fixture(t, "base.xml"), "base", []string{"nightly", "v1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(fixture(t, "head.xml"), "head", []string{"nightly", "v2"}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sel  string
		want int
	}{
		{"", 2}, {"base", 1}, {"head", 1}, {"nope", 0},
		{"tag:nightly", 2}, {"tag:v1", 1}, {"tag:v2", 1}, {"tag:other", 0},
		{"cmd:./relax", 2}, {"cmd:./hpl", 0},
	} {
		if got := len(s.Select(tc.sel)); got != tc.want {
			t.Errorf("Select(%q) = %d jobs, want %d", tc.sel, got, tc.want)
		}
	}
	// Selection order is id-sorted regardless of ingest order.
	jobs := s.Select("tag:nightly")
	if jobs[0].ID != "base" || jobs[1].ID != "head" {
		t.Errorf("selection not id-sorted: %s, %s", jobs[0].ID, jobs[1].ID)
	}
}

func TestIngestSalvagesTruncatedLog(t *testing.T) {
	s := New()
	doc := fixture(t, "base.xml")
	cut := doc[:len(doc)*2/3] // mid-document truncation, as a dead rank writes
	j, err := s.Ingest(cut, "", nil)
	if err != nil {
		t.Fatalf("tolerant ingest rejected a truncated log: %v", err)
	}
	if !j.Salvaged {
		t.Error("truncated log not flagged as salvaged")
	}
	if s.Salvaged() != 1 {
		t.Errorf("salvaged counter = %d, want 1", s.Salvaged())
	}
}

func TestIngestRejectsGarbage(t *testing.T) {
	s := New()
	if _, err := s.Ingest([]byte("<html>not ipm</html>"), "", nil); err == nil {
		t.Error("ingest accepted a document with no ipm_log root")
	}
	if s.Len() != 0 || s.Ingests() != 0 {
		t.Errorf("failed ingest mutated the store: len=%d ingests=%d", s.Len(), s.Ingests())
	}
}

func TestTagNormalisation(t *testing.T) {
	s := New()
	j, err := s.Ingest(fixture(t, "base.xml"), "", []string{" b", "a", "b", "", "a "})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b"}
	if len(j.Tags) != 2 || j.Tags[0] != want[0] || j.Tags[1] != want[1] {
		t.Errorf("tags = %q, want %q", j.Tags, want)
	}
}

// aggJSON renders the store's full-corpus aggregate as the /agg JSON body.
func aggJSON(t *testing.T, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.Aggregate(AggOptions{})); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWALRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "store.wal")

	s, st, err := OpenStore(wal, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Recovered != 0 || st.Skipped != 0 {
		t.Fatalf("fresh WAL reported %d/%d records", st.Recovered, st.Skipped)
	}
	if _, err := s.Ingest(fixture(t, "base.xml"), "base", []string{"nightly"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(fixture(t, "head.xml"), "head", []string{"today"}); err != nil {
		t.Fatal(err)
	}
	before := aggJSON(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Kill/reload: the recovered corpus must answer byte-identically.
	s2, st, err := OpenStore(wal, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st.Recovered != 2 || st.Skipped != 0 {
		t.Fatalf("recovered %d skipped %d, want 2/0", st.Recovered, st.Skipped)
	}
	if got := s2.Get("head"); got == nil || len(got.Tags) != 1 || got.Tags[0] != "today" {
		t.Fatalf("job metadata lost across recovery: %+v", got)
	}
	after := aggJSON(t, s2)
	if !bytes.Equal(before, after) {
		t.Errorf("aggregate differs after WAL recovery:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

func TestWALSkipsTornRecord(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "store.wal")
	s, _, err := OpenStore(wal, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(fixture(t, "base.xml"), "base", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: the first half of a frame.
	f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := sealFrame(appendRecord(make([]byte, walHeaderSize), "torn", nil, []byte("<ipm_log/>")))
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, st, err := OpenStore(wal, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st.Recovered != 1 || st.Skipped != 1 {
		t.Errorf("recovered %d skipped %d, want 1 recovered and 1 torn record skipped", st.Recovered, st.Skipped)
	}
	if s2.Len() != 1 || s2.Get("base") == nil {
		t.Errorf("intact record lost: len=%d", s2.Len())
	}
}

func TestDeriveIDStable(t *testing.T) {
	// The content-derived id is part of the WAL/API contract: changing
	// the hash silently forks every existing corpus.
	if got := DeriveID([]byte("ipm")); got != "j2bc204192bf1b723" {
		t.Errorf("DeriveID changed: %s", got)
	}
}
