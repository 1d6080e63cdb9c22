package profstore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ipmgo/internal/ipm"
)

// This file pins the streaming fast path to its semantic reference: for
// every input the scanner accepts, the event-stream rollup, the salvage
// report and the store-level ingest result must be identical to the
// ParseXMLTolerant + computeRollup route. The same harness backs
// FuzzScanVsParse.

// diffCorpus returns every XML fixture the repo carries, plus
// truncations and point mutations of each — the inputs most likely to
// expose a divergence between the scanner's bail-out rules and the
// decoder's actual tolerance.
func diffCorpus(t testing.TB) [][]byte {
	t.Helper()
	var corpus [][]byte
	for _, glob := range []string{"testdata/*.xml", filepath.Join("..", "ipmparse", "testdata", "*.xml")} {
		paths, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			corpus = append(corpus, b)
		}
	}
	if len(corpus) == 0 {
		t.Fatal("no XML fixtures found")
	}
	var derived [][]byte
	for _, doc := range corpus {
		for _, frac := range []int{1, 2, 3, 5, 7} {
			derived = append(derived, doc[:len(doc)*frac/8])
		}
		for _, mut := range []struct {
			off  int
			repl byte
		}{{len(doc) / 3, '<'}, {len(doc) / 2, '"'}, {2 * len(doc) / 3, '&'}, {len(doc) / 4, 0x80}} {
			m := append([]byte(nil), doc...)
			m[mut.off] = mut.repl
			derived = append(derived, m)
		}
	}
	return append(corpus, derived...)
}

// diffScan compares ScanXMLTolerant + rollupSink against
// ParseXMLTolerant + computeRollup on one input. Returns whether the
// fast path engaged.
func diffScan(t testing.TB, data []byte) bool {
	t.Helper()
	if !prescanClean(data) {
		return false // ingest would not offer this input to the scanner
	}
	sink := newRollupSink()
	sink.reset()
	var rep ipm.ParseReport
	ok, serr := ipm.ScanXMLTolerant(data, sink, &rep)
	if !ok {
		return false // bail-out: fallback handles it, nothing to compare
	}
	jp, drep, derr := ipm.ParseXMLTolerant(bytes.NewReader(data))
	if (serr == nil) != (derr == nil) || (serr != nil && serr.Error() != derr.Error()) {
		t.Fatalf("scan error %v, parse error %v\ninput: %q", serr, derr, data)
	}
	if serr != nil {
		return true
	}
	if !reflect.DeepEqual(rep.Warnings, drep.Warnings) &&
		!(len(rep.Warnings) == 0 && len(drep.Warnings) == 0) {
		t.Fatalf("warnings diverge\nscan:  %q\nparse: %q\ninput: %q", rep.Warnings, drep.Warnings, data)
	}
	if rep.Truncated != drep.Truncated ||
		rep.TasksRecovered != drep.TasksRecovered ||
		rep.TasksDeclared != drep.TasksDeclared {
		t.Fatalf("report diverges\nscan:  %+v\nparse: %+v\ninput: %q", rep, *drep, data)
	}
	if sink.command != jp.Command {
		t.Fatalf("command %q vs %q\ninput: %q", sink.command, jp.Command, data)
	}
	if sink.tasks != len(jp.Ranks) {
		t.Fatalf("tasks %d vs %d ranks\ninput: %q", sink.tasks, len(jp.Ranks), data)
	}
	got := sink.build("j")
	want := computeRollup(jp, "j")
	if !rollupEqual(got, want) {
		t.Fatalf("rollup diverges\nscan:  %+v\nparse: %+v\ninput: %q", got, want, data)
	}
	return true
}

// rollupEqual compares two rollups field by field; empty and nil maps
// and imbalance slices are interchangeable.
func rollupEqual(a, b *rollup) bool {
	if a.wall != b.wall || a.gpu != b.gpu || a.xfer != b.xfer ||
		a.idle != b.idle || a.mpi != b.mpi || a.stall != b.stall ||
		a.energy != b.energy || a.lostRanks != b.lostRanks {
		return false
	}
	if len(a.sites) != len(b.sites) || len(a.kernels) != len(b.kernels) ||
		len(a.imb) != len(b.imb) {
		return false
	}
	for k, v := range a.sites {
		if b.sites[k] != v {
			return false
		}
	}
	for k, v := range a.kernels {
		if b.kernels[k] != v {
			return false
		}
	}
	for i, v := range a.imb {
		if b.imb[i] != v {
			return false
		}
	}
	return true
}

// diffStore ingests the same document into a streaming store and a
// forced-DOM store and demands identical jobs, errors and /agg output.
func diffStore(t testing.TB, data []byte) {
	t.Helper()
	fast, slow := New(), New()
	slow.forceDOM = true
	jf, errF := fast.Ingest(data, "", []string{"t"})
	js, errS := slow.Ingest(data, "", []string{"t"})
	if (errF == nil) != (errS == nil) || (errF != nil && errF.Error() != errS.Error()) {
		t.Fatalf("ingest error diverges: %v vs %v\ninput: %q", errF, errS, data)
	}
	if errF != nil {
		return
	}
	if jf.ID != js.ID || jf.Command != js.Command || jf.Salvaged != js.Salvaged ||
		jf.Warnings != js.Warnings || jf.Ranks != js.Ranks || jf.Bytes != js.Bytes {
		t.Fatalf("jobs diverge\nfast: %+v\nslow: %+v\ninput: %q", jf, js, data)
	}
	af, _ := json.Marshal(fast.Aggregate(AggOptions{}))
	as, _ := json.Marshal(slow.Aggregate(AggOptions{}))
	if !bytes.Equal(af, as) {
		t.Fatalf("/agg diverges\nfast: %s\nslow: %s\ninput: %q", af, as, data)
	}
}

func TestScanVsParseCorpus(t *testing.T) {
	engaged := 0
	for _, doc := range diffCorpus(t) {
		if diffScan(t, doc) {
			engaged++
		}
		diffStore(t, doc)
	}
	if engaged == 0 {
		t.Fatal("scanner bailed on every fixture: the fast path never runs")
	}
}

// TestScanFastPathEngages pins that the clean fixtures actually take
// the streaming path — without this, a scanner that bails on everything
// would pass every differential test by vacuity.
func TestScanFastPathEngages(t *testing.T) {
	for _, name := range []string{"base.xml", "head.xml"} {
		doc := fixture(t, name)
		sink := newRollupSink()
		sink.reset()
		var rep ipm.ParseReport
		ok, err := ipm.ScanXMLTolerant(doc, sink, &rep)
		if !ok || err != nil {
			t.Errorf("%s: scanner bailed (ok=%v err=%v) on a clean fixture", name, ok, err)
		}
	}
}

// TestFormatIDMatchesDeriveID pins the inlined FNV-1a + hex rendering
// to the exported DeriveID (part of the WAL/API contract).
func TestFormatIDMatchesDeriveID(t *testing.T) {
	for _, in := range []string{"", "ipm", "<ipm_log/>", string(fixture(t, "base.xml"))} {
		h, _ := prescanHash([]byte(in))
		if got, want := formatID(h), DeriveID([]byte(in)); got != want {
			t.Errorf("formatID(%q) = %s, DeriveID = %s", in, got, want)
		}
	}
}

// TestAppendWALRecordMatchesJSON pins the hand-rolled WAL encoder to
// encoding/json byte for byte, including the HTML escaping Marshal
// applies, and its refusal on non-ASCII input.
func TestAppendWALRecordMatchesJSON(t *testing.T) {
	cases := []struct {
		id   string
		tags []string
		xml  string
	}{
		{"j1", nil, "<ipm_log/>"},
		{"j2", []string{"a", "b"}, "<a x=\"1\">text</a>"},
		{"quote\"back\\slash", []string{"<tag>"}, "line1\nline2\r\ttab"},
		{"ctl", nil, "a\x01b\x1fc\x7fd"},
		{"amp", []string{"x&y"}, "<a b=\"1>2\"/>"},
		{"", []string{}, ""},
	}
	for _, tc := range cases {
		rec, ok := appendWALRecord(nil, tc.id, tc.tags, []byte(tc.xml))
		if !ok {
			t.Errorf("fast encoder refused ASCII input %+v", tc)
			continue
		}
		m, err := json.Marshal(walRecord{ID: tc.id, Tags: tc.tags, XML: tc.xml})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec, m) {
			t.Errorf("WAL encoding diverges\nfast: %s\njson: %s", rec, m)
		}
	}
	if _, ok := appendWALRecord(nil, "j", nil, []byte("caf\xc3\xa9")); ok {
		t.Error("fast encoder accepted non-ASCII input; Marshal's UTF-8 handling differs")
	}
}

// FuzzScanVsParse is the differential fuzzer: any input the scanner
// accepts must produce the same rollup, warnings and store behavior as
// the DOM route, and any ASCII input must WAL-encode identically to
// encoding/json.
func FuzzScanVsParse(f *testing.F) {
	for _, doc := range diffCorpus(f) {
		if len(doc) <= 8<<10 {
			f.Add(doc)
		}
	}
	f.Add([]byte(`<ipm_log ntasks="2"><task rank="0"><region><func name="MPI_Send" t="1.5"/></region></task></ipm_log>`))
	f.Add([]byte(`<?xml version="1.0" encoding="UTF-8"?><ipm_log/>`))
	f.Add([]byte(`<?xml version="0.0" encoding="UTF-8"?><ipm_log/>`))
	f.Add([]byte(`<?xml version="1.0" encoding=x encoding="latin1"?><ipm_log/>`))
	f.Add([]byte(`<ipm_log><task rank="0"><task rank="1"></task></ipm_log>`))
	f.Add([]byte(`<ipm_log cmd="a b"><func name="x"/><region></region></ipm_log>`))
	f.Add([]byte(`<ipm_log ntasks="1"><task energy_total="1.5" device="X"><region><func name="k" t="1" energy="0.5"/></region></task></ipm_log>`))
	f.Add([]byte(`<ipm_log ntasks="1"><task><region><func name="k" t="1" energy="2.25"/></region></task></ipm_log>`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 16<<10 {
			return
		}
		diffScan(t, data)
		diffStore(t, data)
		if rec, ok := appendWALRecord(nil, "j", []string{"t"}, data); ok {
			m, err := json.Marshal(walRecord{ID: "j", Tags: []string{"t"}, XML: string(data)})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec, m) {
				t.Errorf("WAL encoding diverges\nfast: %s\njson: %s", rec, m)
			}
		}
	})
}
