package profstore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ipmgo/internal/telemetry"
)

// tinyDoc renders a minimal ingestable profile for WAL-structure tests,
// where record framing — not profile content — is under test.
func tinyDoc(i int) []byte {
	return []byte(`<ipm_log ntasks="1" cmd="doc` + string(rune('a'+i)) + `"><task rank="0"></task></ipm_log>`)
}

// frameOf renders one sealed record frame.
func frameOf(id string, tags []string, xml []byte) []byte {
	return sealFrame(appendRecord(make([]byte, walHeaderSize), id, tags, xml))
}

// framedWAL renders n framed records with deterministic ids and returns
// the image plus each record's [start, end) byte range.
func framedWAL(n int) (data []byte, bounds [][2]int) {
	for i := 0; i < n; i++ {
		start := len(data)
		data = append(data, frameOf(DeriveID(tinyDoc(i)), nil, tinyDoc(i))...)
		bounds = append(bounds, [2]int{start, len(data)})
	}
	return data, bounds
}

// v1Frame renders a version-1 frame, the format before the record was
// the payload: the same header over a JSON object, then a newline.
func v1Frame(id, xml string) []byte {
	payload := []byte(`{"id":"` + id + `","xml":"` + xml + `"}`)
	var hdr [walHeaderSize]byte
	copy(hdr[:4], walMagic[:])
	hdr[4] = 1
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[9:13], crc32.Checksum(payload, castagnoli))
	return append(append(hdr[:], payload...), '\n')
}

func TestFrameRoundTrip(t *testing.T) {
	// Arbitrary bytes in every field, the magic byte included.
	id, tags, xml := "j\xff\xf5", []string{"", "t\xfe", "\xf5IPW"}, []byte("<ipm_log>\xf5IPW\x02\x00</ipm_log>")
	frame := frameOf(id, tags, xml)
	if want := walHeaderSize + len(appendRecord(nil, id, tags, xml)); len(frame) != want {
		t.Fatalf("frame length %d, want header+payload = %d", len(frame), want)
	}
	var got []walRecord
	skipped, err := walScan(frame, func(rec *walRecord, _ []byte) { got = append(got, *rec) })
	if skipped != 0 || err != nil || len(got) != 1 {
		t.Fatalf("round trip: skipped=%d err=%v records=%d", skipped, err, len(got))
	}
	if got[0].ID != id || !slices.Equal(got[0].Tags, tags) || !bytes.Equal(got[0].XML, xml) {
		t.Errorf("round trip changed the record: %q %q %q", got[0].ID, got[0].Tags, got[0].XML)
	}
	// Payloads no appendRecord produces: a length past the end, a tag
	// count no payload could hold, a truncated varint.
	for _, p := range [][]byte{{5, 'a'}, {1, 'a', 0xff, 0xff, 0xff, 0x7f}, {1, 'a', 1, 9}, {0x80}} {
		if _, ok := decodeRecord(p); ok {
			t.Errorf("decodeRecord(%x) accepted a malformed payload", p)
		}
	}
}

// TestWALTruncationEveryOffset cuts a framed WAL at every byte offset —
// the space of crashes mid-append — and requires that replay never
// panics, never over-recovers, and always recovers every record whose
// bytes fully survived the cut.
func TestWALTruncationEveryOffset(t *testing.T) {
	data, bounds := framedWAL(3)
	for cut := 0; cut <= len(data); cut++ {
		whole := 0
		for _, b := range bounds {
			if cut >= b[1] {
				whole++
			}
		}
		s := New()
		recovered, _, _, err := s.replayImage(data[:cut])
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if recovered != whole {
			t.Fatalf("cut at %d: recovered %d, want the %d complete records", cut, recovered, whole)
		}
	}
}

// TestWALBitFlips damages every frame byte in turn, then every pair of
// one header byte and one payload byte of a frame. The damage must
// always be detected and counted, the damaged record must never be
// replayed (nothing is replayed without its CRC), and its neighbours
// survive.
func TestWALBitFlips(t *testing.T) {
	data, bounds := framedWAL(3)
	check := func(offs ...int) {
		t.Helper()
		mut := append([]byte(nil), data...)
		for _, off := range offs {
			mut[off] ^= 0x40
		}
		s := New()
		recovered, skipped, _, err := s.replayImage(mut)
		if err != nil || recovered != len(bounds)-1 || skipped < 1 {
			t.Fatalf("flip at %v: recovered %d of %d, skipped %d, err %v; want all but the damaged record, counted",
				offs, recovered, len(bounds), skipped, err)
		}
	}
	for _, b := range bounds {
		for off := b[0]; off < b[1]; off++ {
			check(off)
		}
		for h := b[0]; h < b[0]+walHeaderSize; h++ {
			for p := b[0] + walHeaderSize; p < b[1]; p++ {
				check(h, p)
			}
		}
	}
}

// TestOpenStoreRefusesVersion1 puts a checksummed version-1 frame in a
// WAL, and in a snapshot: OpenStore must fail naming the file and leave
// the file byte-identical.
func TestOpenStoreRefusesVersion1(t *testing.T) {
	v2a, v2b := frameOf("a", nil, tinyDoc(0)), frameOf("b", nil, tinyDoc(1))
	for _, tc := range []struct {
		name string
		file func(wal string) string // the path the version-1 image goes to
	}{
		{"wal", func(wal string) string { return wal }},
		{"snapshot", func(wal string) string { return snapshotPath(wal, 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wal := filepath.Join(t.TempDir(), "store.wal")
			path := tc.file(wal)
			image := slices.Concat(v2a, v1Frame("old", "<ipm_log/>"), v2b)
			if err := os.WriteFile(path, image, 0o644); err != nil {
				t.Fatal(err)
			}
			s, _, err := OpenStore(wal, StoreOptions{})
			if err == nil {
				s.Close()
				t.Fatal("OpenStore accepted a version-1 frame")
			}
			if !strings.Contains(err.Error(), path) {
				t.Errorf("error %q does not name %s", err, path)
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, image) {
				t.Error("refused file was modified")
			}
		})
	}
}

// TestIngestRefusesOversizedRecord: a record larger than replay accepts
// is refused at ingest with a plain error, and the store stays writable.
func TestIngestRefusesOversizedRecord(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "store.wal")
	s, _, err := OpenStore(wal, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	huge := bytes.Repeat([]byte(" "), maxWALPayload+1)
	copy(huge, tinyDoc(0))
	if _, err := s.Ingest(huge, "huge", nil); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized record: err = %v, want a size refusal", err)
	}
	if ro, reason := s.ReadOnly(); ro {
		t.Fatalf("size refusal degraded the store: %s", reason)
	}
	if _, err := s.Ingest(tinyDoc(1), "small", nil); err != nil {
		t.Fatalf("ingest after the refusal: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, st, err := OpenStore(wal, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st.Recovered != 1 || st.Skipped != 0 || s2.Get("small") == nil {
		t.Errorf("recovered %d skipped %d, want the one acked record", st.Recovered, st.Skipped)
	}
}

// TestRecoveryReturnsBytesVerbatim ingests over HTTP a document, id and
// tag holding invalid UTF-8, then reopens the store: replay must hand
// back the exact bytes, so the recovered job and every view of it match.
func TestRecoveryReturnsBytesVerbatim(t *testing.T) {
	doc := bytes.Replace(fixture(t, "base.xml"), []byte(`"cudaMemcpy(H2D)"`), []byte("\"cudaMemcpy(H2D\xff)\""), 1)
	wal := filepath.Join(t.TempDir(), "store.wal")
	views := func(s *Store) (*Job, [][]byte) {
		ts := httptest.NewServer(NewServer(s, telemetry.NewRegistry()).Handler())
		defer ts.Close()
		var out [][]byte
		for _, path := range []string{"/agg", "/jobs", "/job/j%FF"} {
			code, body := get(t, ts.URL+path)
			if code != http.StatusOK {
				t.Fatalf("%s: %d: %s", path, code, body)
			}
			out = append(out, body)
		}
		return s.Get("j\xff"), out
	}

	s, _, err := OpenStore(wal, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(s, telemetry.NewRegistry()).Handler())
	resp, err := http.Post(ts.URL+"/ingest?id=j%FF&tags=t%FE", "application/xml", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ts.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d", resp.StatusCode)
	}
	before, beforeViews := views(s)
	if before == nil {
		t.Fatal(`job "j\xff" missing after ingest`)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, _, err := OpenStore(wal, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	after, afterViews := views(s2)
	if after == nil {
		t.Fatal(`job "j\xff" missing after recovery`)
	}
	if after.ID != before.ID || !slices.Equal(after.Tags, before.Tags) ||
		after.Ranks != before.Ranks || after.Warnings != before.Warnings {
		t.Errorf("recovered job differs: id %q tags %q ranks %d warnings %d, want %q %q %d %d",
			after.ID, after.Tags, after.Ranks, after.Warnings, before.ID, before.Tags, before.Ranks, before.Warnings)
	}
	for i, path := range []string{"/agg", "/jobs", "/job/{id}"} {
		if !bytes.Equal(afterViews[i], beforeViews[i]) {
			t.Errorf("%s differs after recovery:\nbefore: %s\nafter:  %s", path, beforeViews[i], afterViews[i])
		}
	}
}

// FuzzWALReplay throws arbitrary bytes at the replay path: it must
// never panic, its accounting must be internally consistent, and a
// second replay of the same image must land on the identical corpus, or
// on the identical refusal of a version-1 frame. The input also goes
// through appendRecord → walScan as a document, and must come back byte
// for byte.
func FuzzWALReplay(f *testing.F) {
	framed, _ := framedWAL(2)
	f.Add(framed)
	f.Add(framed[:len(framed)/2])
	f.Add(slices.Concat(framed, v1Frame("l", "<ipm_log/>")))
	f.Add(frameOf("j\xff", []string{"t\xfe"}, []byte("<ipm_log cmd=\"\xf5IPW\"/>")))
	bitrot := append([]byte(nil), framed...)
	bitrot[walHeaderSize+3] ^= 0xff
	f.Add(bitrot)
	f.Add([]byte{walMagic0, 'I', 'P', 'W', walVersion, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		var got []walRecord
		skipped, err := walScan(frameOf("j\xff", []string{"t\xfe"}, data), func(rec *walRecord, _ []byte) {
			got = append(got, *rec)
		})
		if skipped != 0 || err != nil || len(got) != 1 || got[0].ID != "j\xff" ||
			!slices.Equal(got[0].Tags, []string{"t\xfe"}) || !bytes.Equal(got[0].XML, data) {
			t.Fatalf("record round trip: skipped=%d err=%v records=%q", skipped, err, got)
		}

		s := New()
		recovered, skipped, records, err := s.replayImage(data)
		if recovered > records {
			t.Fatalf("recovered %d of %d structurally valid records", recovered, records)
		}
		if skipped < records-recovered {
			t.Fatalf("lost records unaccounted: recovered=%d records=%d skipped=%d",
				recovered, records, skipped)
		}
		// recovered = corpus + replacements, exactly.
		if got := int64(s.Len()) + s.Replaced(); got != int64(recovered) {
			t.Fatalf("recovered=%d but len+replaced=%d", recovered, got)
		}
		s2 := New()
		r2, sk2, rec2, err2 := s2.replayImage(data)
		if r2 != recovered || sk2 != skipped || rec2 != records || s2.Len() != s.Len() || err2 != err {
			t.Fatalf("replay is not deterministic: (%d,%d,%d,len %d,%v) vs (%d,%d,%d,len %d,%v)",
				recovered, skipped, records, s.Len(), err, r2, sk2, rec2, s2.Len(), err2)
		}
		if s.Len() > 0 {
			if !bytes.Equal(aggJSON(t, s), aggJSON(t, s2)) {
				t.Fatal("two replays of the same image aggregate differently")
			}
		}
	})
}
