package profstore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ipmgo/internal/ipm"
)

// This file pins the store's rollup to its semantic reference: for
// every input, the rollupSink fed by either of ipm's lexers must encode
// to the same rollup as computeRollup's flat fold over
// ParseXMLTolerant's profile, and wherever the scanner does not bail
// its salvage report must be DecodeXMLTolerant's. The same harness
// backs FuzzScanVsParse.

// computeRollup is the reference reduction of one job profile to the
// rollup fields of its job: one row per entry, folded by name, and each
// job-level scalar from the JobProfile method that defines it. jobID
// labels the imbalance rows.
func computeRollup(jp *ipm.JobProfile, jobID string) Job {
	w := Job{
		WallMax:   int64(jp.Wallclock()),
		Errors:    jp.TotalErrors(),
		MonErrors: jp.MonitorErrors(),
	}
	if e := jp.Expected(); e > len(jp.Ranks) {
		w.Declared = e
	}
	var sites, kernels []WireSite
	for _, r := range jp.Ranks {
		w.Wall += int64(r.Wallclock)
		w.Stall += int64(r.SubmitStall)
		w.Energy += r.Energy
		if r.Lost {
			w.Lost++
		}
		for _, e := range r.Entries {
			name := e.Sig.Name
			total := int64(e.Stats.Total)
			switch {
			case strings.HasPrefix(name, "@CUDA_EXEC_STRM") && !strings.Contains(name, ":"):
				w.GPU += total
			case name == ipm.HostIdleName:
				w.Idle += total
			case e.Sig.Pseudo():
				// Per-kernel pseudo entries are tallied below; other
				// pseudo entries only appear in the call-site table.
			case isTransfer(name):
				w.Xfer += total
			}
			if ipm.Classify(name) == ipm.DomainMPI {
				w.MPI += total
			}
			row := WireSite{Name: name, Stats: e.Stats}
			if k := kernelOf(name); k != "" {
				row.Name = k
				kernels = append(kernels, row)
				continue // per-kernel entries double the stream totals; keep them out of call sites
			}
			sites = append(sites, row)
		}
	}
	w.Sites, w.Kernels = slices.Clone(foldRows(sites)), slices.Clone(foldRows(kernels))
	if len(jp.Ranks) > 1 {
		for _, ft := range jp.FuncTotals() {
			w.Imb = append(w.Imb, WireImb{
				Name: ft.Name, MaxOverAvg: jp.Imbalance(ft.Name), WorstJob: jobID,
			})
		}
	}
	return w
}

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

// diffScan holds both lexers to the reference on one input: the
// rollupSink fed by DecodeXMLTolerant, and by ScanXMLTolerant unless it
// bails, must match computeRollup over ParseXMLTolerant's profile, and
// the scanner's report and error must be the decoder's. Returns whether
// the scanner engaged.
func diffScan(t testing.TB, data []byte) bool {
	t.Helper()
	jp, _, perr := ipm.ParseXMLTolerant(bytes.NewReader(data))
	var want []byte
	if perr == nil {
		ref := computeRollup(jp, "j")
		var err error
		if want, err = EncodeWireJobs([]*Job{&ref}); err != nil {
			t.Fatal(err)
		}
	}
	// check compares one lexer's sink and error with the reference.
	check := func(lexer string, sink *rollupSink, err error) {
		t.Helper()
		if (err == nil) != (perr == nil) || (err != nil && err.Error() != perr.Error()) {
			t.Fatalf("%s error %v, parse error %v\ninput: %q", lexer, err, perr, data)
		}
		if err != nil {
			return
		}
		if sink.command != jp.Command || sink.tasks != len(jp.Ranks) {
			t.Fatalf("%s: command %q, %d tasks; profile %q, %d ranks\ninput: %q",
				lexer, sink.command, sink.tasks, jp.Command, len(jp.Ranks), data)
		}
		built := sink.build("j")
		got, gerr := EncodeWireJobs([]*Job{&built})
		if gerr != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s rollup diverges (error %v)\nsink:      %s\nreference: %s\ninput: %q", lexer, gerr, got, want, data)
		}
	}

	sink := newRollupSink()
	sink.reset()
	var drep ipm.ParseReport
	derr := ipm.DecodeXMLTolerant(bytes.NewReader(data), sink, &drep)
	check("decode", sink, derr)

	sink.reset()
	var rep ipm.ParseReport
	ok, serr := ipm.ScanXMLTolerant(data, sink, &rep)
	if !ok {
		return false // bail-out: ingest decodes it, checked above
	}
	check("scan", sink, serr)
	if !reflect.DeepEqual(rep.Warnings, drep.Warnings) &&
		!(len(rep.Warnings) == 0 && len(drep.Warnings) == 0) {
		t.Fatalf("warnings diverge\nscan:   %q\ndecode: %q\ninput: %q", rep.Warnings, drep.Warnings, data)
	}
	if rep.Truncated != drep.Truncated ||
		rep.TasksRecovered != drep.TasksRecovered ||
		rep.TasksDeclared != drep.TasksDeclared {
		t.Fatalf("report diverges\nscan:   %+v\ndecode: %+v\ninput: %q", rep, drep, data)
	}
	return true
}

// mergeDoc holds the two merges a job's rows make: kernel k runs on two
// streams (@CUDA_EXEC_STRM00:k, @CUDA_EXEC_STRM01:k) and MPI_Send is
// called in two regions, so the job has one kernel row and one MPI_Send
// row. No other fixture has either case.
const mergeDoc = `<?xml version="1.0" encoding="UTF-8"?>
<ipm_log version="2.0" command="./merge" ntasks="2" nhosts="1" wallclock="2.0">
  <task mpi_rank="0" host="n1" wallclock="2.0">
    <region name="ipm_global">
      <func name="MPI_Send" bytes="8" count="2" ttot="0.3" tmin="0.1" tmax="0.2"></func>
      <func name="@CUDA_EXEC_STRM00:k" bytes="0" count="4" ttot="0.4" tmin="0.05" tmax="0.15"></func>
    </region>
    <region name="solve">
      <func name="MPI_Send" bytes="8" count="1" ttot="0.05" tmin="0.05" tmax="0.05"></func>
      <func name="@CUDA_EXEC_STRM01:k" bytes="0" count="2" ttot="0.5" tmin="0.2" tmax="0.3"></func>
    </region>
  </task>
  <task mpi_rank="1" host="n1" wallclock="1.5">
    <region name="ipm_global">
      <func name="@CUDA_EXEC_STRM01:k" bytes="0" count="1" ttot="0.25" tmin="0.25" tmax="0.25"></func>
    </region>
  </task>
</ipm_log>
`

// TestRollupMergesRows: through both lexers, a kernel seen on two
// streams is one kernel row and a call site seen in two regions is one
// site row, each carrying the merged stats.
func TestRollupMergesRows(t *testing.T) {
	if !diffScan(t, []byte(mergeDoc)) {
		t.Fatal("scanner bailed on the merge document")
	}
	for _, forceDecode := range []bool{false, true} {
		s := New()
		s.forceDecode = forceDecode
		job, err := s.Ingest([]byte(mergeDoc), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		want := ipm.Stats{Count: 7, Total: 1150e6, Min: 50e6, Max: 300e6}
		if len(job.Kernels) != 1 || job.Kernels[0] != (WireSite{Name: "k", Stats: want}) {
			t.Errorf("forceDecode=%v: kernel rows %+v, want one row k %+v", forceDecode, job.Kernels, want)
		}
		var send []WireSite
		for _, row := range job.Sites {
			if row.Name == "MPI_Send" {
				send = append(send, row)
			}
		}
		want = ipm.Stats{Count: 3, Total: 350e6, Min: 50e6, Max: 200e6}
		if len(send) != 1 || send[0].Stats != want {
			t.Errorf("forceDecode=%v: MPI_Send rows %+v, want one row %+v", forceDecode, send, want)
		}
	}
}

// diffStore ingests the same document into a scanning store and a
// forced-decode store and demands identical jobs, errors and /agg
// output.
func diffStore(t testing.TB, data []byte) {
	t.Helper()
	fast, slow := New(), New()
	slow.forceDecode = true
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
		h := prescanHash([]byte(in))
		if got, want := formatID(h), DeriveID([]byte(in)); got != want {
			t.Errorf("formatID(%q) = %s, DeriveID = %s", in, got, want)
		}
	}
}

// FuzzScanVsParse is the differential fuzzer: through either lexer, any
// input must produce the reference rollup, the scanner must report what
// the decoder reports wherever it engages, and both stores must behave
// alike.
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
	f.Add([]byte(`<ipm_log ntasks="1"><task><region><func name="" count="x"/></region></task></ipm_log>`))
	f.Add([]byte("<ipm_log command=\"a\bb\"><task>\f</task></ipm_log>"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 16<<10 {
			return
		}
		diffScan(t, data)
		diffStore(t, data)
	})
}
