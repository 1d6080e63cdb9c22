package ipm

import (
	"bytes"
	"crypto/sha256"
	"encoding/xml"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// salvageCorpus is the store's differential corpus (profstore's
// diffCorpus): every XML fixture of the store and of ipm_parse, its
// 1/8 … 7/8 truncations and four point mutations, each named for the
// golden.
func salvageCorpus(t *testing.T) (names []string, docs [][]byte) {
	t.Helper()
	for _, dir := range []string{"profstore", "ipmparse"} {
		paths, err := filepath.Glob(filepath.Join("..", dir, "testdata", "*.xml"))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			names = append(names, dir+"/"+filepath.Base(p))
			docs = append(docs, b)
		}
	}
	if len(docs) == 0 {
		t.Fatal("no XML fixtures found")
	}
	n := len(docs)
	for i := 0; i < n; i++ {
		doc := docs[i]
		for _, frac := range []int{1, 2, 3, 5, 7} {
			names = append(names, fmt.Sprintf("%s[:%d/8]", names[i], frac))
			docs = append(docs, doc[:len(doc)*frac/8])
		}
		for _, mut := range []struct {
			off  int
			repl byte
		}{{len(doc) / 3, '<'}, {len(doc) / 2, '"'}, {2 * len(doc) / 3, '&'}, {len(doc) / 4, 0x80}} {
			m := append([]byte(nil), doc...)
			m[mut.off] = mut.repl
			names = append(names, fmt.Sprintf("%s[%d]=%q", names[i], mut.off, mut.repl))
			docs = append(docs, m)
		}
	}
	return names, docs
}

// salvageLine records what the two profile readers make of one
// document: the tolerant reader's truncation flag, task counts,
// verbatim warnings and the SHA-256 of the re-encoded profile, then the
// strict reader's verdict.
func salvageLine(t *testing.T, name string, doc []byte) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(name)
	jp, rep, err := ParseXMLTolerant(bytes.NewReader(doc))
	if err != nil {
		fmt.Fprintf(&b, " error=%q", err)
	} else {
		var x bytes.Buffer
		if err := WriteXML(&x, jp); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, " truncated=%v tasks=%d/%d sha256=%x",
			rep.Truncated, rep.TasksRecovered, rep.TasksDeclared, sha256.Sum256(x.Bytes()))
	}
	fmt.Fprintf(&b, " warnings=%q", rep.Warnings)
	verdict := "accept"
	if _, err := ParseXML(bytes.NewReader(doc)); err != nil {
		verdict = "reject"
	}
	fmt.Fprintf(&b, " strict=%s\n", verdict)
	return b.String()
}

// TestSalvageGolden pins the salvage behaviour of both readers over the
// corpus to testdata/salvage.golden (go test -update rewrites it).
func TestSalvageGolden(t *testing.T) {
	names, docs := salvageCorpus(t)
	var got strings.Builder
	for i, doc := range docs {
		got.WriteString(salvageLine(t, names[i], doc))
	}
	golden := filepath.Join("testdata", "salvage.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	gotLines := strings.SplitAfter(got.String(), "\n")
	wantLines := strings.SplitAfter(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d salvage lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("salvage line %d differs\ngot:  %swant: %s", i, gotLines[i], wantLines[i])
		}
	}
}

// decodeIntoXMLLog is encoding/xml's own strict reading of a log, the
// unmarshal into XMLLog that ParseXML once was: the oracle for "ParseXML
// accepts nothing it rejects".
func decodeIntoXMLLog(doc []byte) error {
	var x XMLLog
	return xml.NewDecoder(bytes.NewReader(doc)).Decode(&x)
}

// TestParseXMLStrictRule pins the strict reader's rule: it fails on an
// XML syntax error, a top-level element other than ipm_log, or any
// concession the tolerant reader warns about, and accepts a log that
// declares more tasks than it holds. The unmarshal was laxer in the
// cases marked: it read empty and space-padded numbers, and ignored
// what sat outside the elements it mapped.
func TestParseXMLStrictRule(t *testing.T) {
	for _, tc := range []struct {
		doc           string
		accept, unmar bool // ParseXML's verdict, the unmarshal's
	}{
		{`<ipm_log ntasks="1"><task mpi_rank="0"/></ipm_log>`, true, true},
		{`<ipm_log ntasks="4"><task mpi_rank="0"/></ipm_log>`, true, true},
		{`<ipm_log><task hashtable_probes="18446744073709551615"/></ipm_log>`, true, true},
		{`not xml`, false, false},
		{`<wrong/>`, false, false},
		{`<wrong><ipm_log/></wrong>`, false, false},
		{`<ipm_log><task>`, false, false},
		{`<ipm_log><task hashtable_probes="-1"/></ipm_log>`, false, false},
		{`<ipm_log><task hashtable_probes="+1"/></ipm_log>`, false, false},
		{`<ipm_log><task><region><func count="x"/></region></task></ipm_log>`, false, false},
		{`<ipm_log><task mpi_rank=""/></ipm_log>`, false, true},                                    // empty number
		{`<ipm_log><task mpi_rank=" 1"/></ipm_log>`, false, true},                                  // padded number
		{`<ipm_log/><ipm_log/>`, false, true},                                                      // second root
		{`<ipm_log/><task/>`, false, true},                                                         // element after the root
		{`<ipm_log/>trailing<`, false, true},                                                       // syntax error after the root
		{`<ipm_log><region/></ipm_log>`, false, true},                                              // region outside task
		{`<ipm_log><task><func name="f"/></task></ipm_log>`, false, true},                          // func outside region
		{`<ipm_log><task><task/></task></ipm_log>`, false, true},                                   // task inside task
		{`<ipm_log><task><x><region><func count="x"/></region></x></task></ipm_log>`, false, true}, // entry the unmarshal never mapped
	} {
		jp, err := ParseXML(strings.NewReader(tc.doc))
		if (err == nil) != tc.accept {
			t.Errorf("ParseXML(%q) error = %v, want accept=%v", tc.doc, err, tc.accept)
		}
		if err == nil && jp == nil {
			t.Errorf("ParseXML(%q): nil profile without error", tc.doc)
		}
		if uerr := decodeIntoXMLLog([]byte(tc.doc)); (uerr == nil) != tc.unmar {
			t.Errorf("unmarshal of %q error = %v, want accept=%v", tc.doc, uerr, tc.unmar)
		}
	}
	jp, err := ParseXML(strings.NewReader(`<ipm_log ntasks="4"><task mpi_rank="0"/></ipm_log>`))
	if err != nil {
		t.Fatal(err)
	}
	if jp.ExpectedRanks != 4 {
		t.Errorf("declared-but-missing tasks: ExpectedRanks = %d, want 4", jp.ExpectedRanks)
	}
}

// TestParseXMLRejectsWhatUnmarshalRejects: over the salvage corpus,
// ParseXML rejects every document the unmarshal into XMLLog rejects.
func TestParseXMLRejectsWhatUnmarshalRejects(t *testing.T) {
	names, docs := salvageCorpus(t)
	for i, doc := range docs {
		if decodeIntoXMLLog(doc) == nil {
			continue
		}
		if _, err := ParseXML(bytes.NewReader(doc)); err == nil {
			t.Errorf("%s: ParseXML accepts a document the unmarshal rejects", names[i])
		}
	}
}

// TestTruncatedInsideSkippedSubtree: a log that ends inside a subtree
// the rules skip is truncated, and the skip's warning is the only one
// it gets for that subtree.
func TestTruncatedInsideSkippedSubtree(t *testing.T) {
	_, rep, err := ParseXMLTolerant(strings.NewReader(`<ipm_log ntasks="1"><region name="r"><func name="f"`))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"region element outside task, skipped", "log declares 1 task(s) but only 0 recovered"}
	if !rep.Truncated || !slices.Equal(rep.Warnings, want) {
		t.Errorf("report %+v, want truncated with warnings %q", rep, want)
	}
}
