package ipm

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"ipmgo/internal/alloctest"
)

// countSink counts scan events and records the last of each, enough to
// assert the scanner's event stream shape without a rollup.
type countSink struct {
	headers, taskStarts, entries, taskEnds int
	command                                string
	lastTask                               ScanTask
	lastEntry                              struct {
		region, name string
		total        time.Duration
		count        int64
		submits      int64
		submitStall  time.Duration
	}
}

func (c *countSink) Header(h *ScanHeader) {
	c.headers++
	c.command = string(h.Command)
}

func (c *countSink) TaskStart(t *ScanTask) {
	c.taskStarts++
	c.lastTask = *t
	c.lastTask.Host = append([]byte(nil), t.Host...)
}

func (c *countSink) Entry(e *ScanEntry) {
	c.entries++
	c.lastEntry.region = string(e.Region)
	c.lastEntry.name = string(e.Name)
	c.lastEntry.total = e.Total
	c.lastEntry.count = e.Count
	c.lastEntry.submits = e.Submits
	c.lastEntry.submitStall = e.SubmitStall
}

func (c *countSink) TaskEnd() { c.taskEnds++ }

// traceSink records every event with all its fields, so the two
// lexers' streams can be compared whole.
type traceSink struct{ events []string }

func (s *traceSink) Header(h *ScanHeader) {
	s.events = append(s.events, fmt.Sprintf("header %q %q %q %q %d %d %v",
		h.Version, h.Command, h.Start, h.Stop, h.NTasks, h.NHosts, h.Wallclock))
}

func (s *traceSink) TaskStart(t *ScanTask) {
	s.events = append(s.events, fmt.Sprintf("task %q %q %q %+v", t.Host, t.Device, t.LostReason, *t))
}

func (s *traceSink) Entry(e *ScanEntry) {
	s.events = append(s.events, fmt.Sprintf("entry %q %q %+v", e.Region, e.Name, *e))
}

func (s *traceSink) TaskEnd() { s.events = append(s.events, "end") }

// lexersAgree reads doc with both lexers and, unless the scanner bails,
// demands identical events, reports and errors. It returns whether the
// scanner engaged and the decoder's report.
func lexersAgree(t *testing.T, doc string) (bool, *ParseReport) {
	t.Helper()
	var dsink traceSink
	var drep ParseReport
	derr := DecodeXMLTolerant(strings.NewReader(doc), &dsink, &drep)
	var ssink traceSink
	var srep ParseReport
	ok, serr := ScanXMLTolerant([]byte(doc), &ssink, &srep)
	if !ok {
		return false, &drep
	}
	if fmt.Sprint(serr) != fmt.Sprint(derr) {
		t.Errorf("%q: scan error %v, decode error %v", doc, serr, derr)
	}
	if !slices.Equal(ssink.events, dsink.events) {
		t.Errorf("%q: events differ\nscan:   %q\ndecode: %q", doc, ssink.events, dsink.events)
	}
	if !slices.Equal(srep.Warnings, drep.Warnings) || srep.Truncated != drep.Truncated ||
		srep.TasksRecovered != drep.TasksRecovered || srep.TasksDeclared != drep.TasksDeclared {
		t.Errorf("%q: reports differ\nscan:   %+v\ndecode: %+v", doc, srep, drep)
	}
	return true, &drep
}

func scan(t *testing.T, doc string) (*countSink, *ParseReport, bool, error) {
	t.Helper()
	sink := &countSink{}
	var rep ParseReport
	ok, err := ScanXMLTolerant([]byte(doc), sink, &rep)
	return sink, &rep, ok, err
}

func TestScanCleanDocument(t *testing.T) {
	doc := `<?xml version="1.0" encoding="UTF-8"?>
<ipm_log version="2.0" command="./hpl" ntasks="2" nhosts="1" wallclock="3.5">
<task mpi_rank="1" host="dirac1" wallclock="3.25">
<region name="ingest">
<func name="MPI_Send" bytes="1024" count="10" ttot="1.5" tmin="0.1" tmax="0.3"/>
<func name="cudaMemcpy(H2D)" count="4" ttot="0.25"/>
</region>
</task>
<task mpi_rank="0" host="dirac2" wallclock="3.5" status="lost" lost_at="2.5" lost_reason="watchdog"/>
</ipm_log>`
	sink, rep, ok, err := scan(t, doc)
	if !ok || err != nil {
		t.Fatalf("scanner bailed on clean doc: ok=%v err=%v", ok, err)
	}
	if sink.headers != 1 || sink.taskStarts != 2 || sink.taskEnds != 2 || sink.entries != 2 {
		t.Errorf("events: %+v", sink)
	}
	if sink.command != "./hpl" {
		t.Errorf("command = %q", sink.command)
	}
	if len(rep.Warnings) != 0 || rep.Truncated || rep.TasksRecovered != 2 || rep.TasksDeclared != 2 {
		t.Errorf("report: %+v", rep)
	}
	if !sink.lastTask.Lost || string(sink.lastTask.Host) != "dirac2" {
		t.Errorf("lost task not surfaced: %+v", sink.lastTask)
	}
	if sink.lastEntry.name != "cudaMemcpy(H2D)" || sink.lastEntry.region != "ingest" ||
		sink.lastEntry.count != 4 || sink.lastEntry.total != 250*time.Millisecond {
		t.Errorf("entry: %+v", sink.lastEntry)
	}
}

func TestScanBailCases(t *testing.T) {
	// Inputs where the non-strict decoder has behavior the scanner does
	// not replicate: each must bail (ok=false), never mis-parse.
	for _, doc := range []string{
		"<ipm_log>",                  // EOF with open element
		"<ipm_log><task rank=\"0\">", // EOF inside task
		"<ipm_log",                   // EOF mid-tag
		"<a><b></a></b>",             // mismatched end tags
		"<a>]]></a>",                 // ]]> in char data
		"<a x=\"<\"/>",               // '<' in attribute value
		"<a x=\"1\r2\"/>",            // '\r' in attribute value (decoder normalises)
		"<a x=1/>",                   // unquoted attribute
		"<a x/>",                     // valueless attribute
		"<ns:a/>",                    // ':' in name
		"<a 1x=\"1\"/>",              // name not [A-Za-z_]...
		"<!-- c --><a/>",             // <! construct
		"<!DOCTYPE a><a/>",           // directive
		"<?xml version=\"1.0\" encoding=\"latin-1\"?><a/>", // non-UTF-8 PI
		"</a>",                   // stray end tag
		"<a/ >",                  // space after self-closing slash
		"</a x=\"1\">",           // junk in end tag
		"<a x=\"&amp;\"/>",       // entity in an attribute value
		"<a>&lt;</a>",            // entity in character data
		"<a x=\"caf\xc3\xa9\"/>", // non-ASCII in an attribute value
		"<a>\x80</a>",            // non-ASCII in character data
		"<?pi \x7f?><a/>",        // control byte in a processing instruction
		"<a>\x0c</a>",            // control byte the decoder rejects
	} {
		sink := &countSink{}
		var rep ParseReport
		if ok, _ := ScanXMLTolerant([]byte(doc), sink, &rep); ok {
			t.Errorf("scanner accepted %q, must bail to DecodeXMLTolerant", doc)
		}
	}
}

func TestScanTolerance(t *testing.T) {
	// Decoder-tolerated oddities the scanner must also accept, with the
	// events, report and salvage warnings DecodeXMLTolerant produces.
	for _, tc := range []struct {
		doc      string
		warnings int
	}{
		{`<ipm_log></ipm_log>`, 0},
		{`<ipm_log/><ipm_log/>`, 1},                                                       // second root: nested-ignored warning
		{`<ipm_log><unknown><deep/></unknown></ipm_log>`, 0},                              // unknown elements skipped
		{`<ipm_log cmd = "x" ></ipm_log>`, 0},                                             // ws around '='
		{`<ipm_log><task mpi_rank="0"><task mpi_rank="1"></task></task></ipm_log>`, 1},    // interleaved tasks
		{`<ipm_log><region name="r"/></ipm_log>`, 1},                                      // region outside task
		{`<ipm_log><region name="r"><task/></region><task/></ipm_log>`, 1},                // skipped subtree
		{`<task><region/></task><ipm_log/>`, 1},                                           // task before root
		{`<ipm_log><func name="f"/></ipm_log>`, 1},                                        // func outside region
		{`<ipm_log ntasks="4"></ipm_log>`, 1},                                             // declared > recovered
		{`<ipm_log wallclock="bogus"></ipm_log>`, 1},                                      // bad numeric attribute
		{`<ipm_log><task><region><func name="" count="x"/></region></task></ipm_log>`, 1}, // empty name in the location
		{`<ipm_log><task hashtable_probes="-1"/></ipm_log>`, 1},                           // signed unsigned attribute
		{`text<ipm_log></ipm_log>trailing`, 0},                                            // stray top-level text
		{`<ipm_log cmd="a" cmd="b"></ipm_log>`, 0},                                        // duplicate attr, last wins
		{`<ipm_log></ipm_log >`, 0},                                                       // ws before end-tag '>'
		{`<?pi anything?><ipm_log/>`, 0},                                                  // non-xml PI
	} {
		ok, rep := lexersAgree(t, tc.doc)
		if !ok {
			t.Errorf("scanner bailed on tolerated input %q", tc.doc)
			continue
		}
		if len(rep.Warnings) != tc.warnings {
			t.Errorf("%q: warnings = %q, want %d", tc.doc, rep.Warnings, tc.warnings)
		}
	}
}

func TestScanNoRootError(t *testing.T) {
	_, _, ok, err := scan(t, "<html>not ipm</html>")
	if !ok || err == nil {
		t.Fatalf("plain non-ipm XML: ok=%v err=%v, want the no-root error on the fast path", ok, err)
	}
	lexersAgree(t, "<html>not ipm</html>")
}

// TestParseInt64MatchesStrconv pins the allocation-free integer fast
// path to strconv.ParseInt on every input it accepts.
func TestParseInt64MatchesStrconv(t *testing.T) {
	cases := []string{
		"0", "1", "-1", "42", "007", "-007",
		"9223372036854775807",  // MaxInt64
		"-9223372036854775808", // MinInt64
		"9223372036854775808",  // overflow
		"-9223372036854775809", // underflow
		"92233720368547758070", // way over
		"", "-", "+1", "1x", "x", "1_0", " 1", "1 ",
	}
	for _, s := range cases {
		got, ok := parseInt64([]byte(s))
		want, err := strconv.ParseInt(s, 10, 64)
		if ok {
			if err != nil {
				t.Errorf("parseInt64(%q) accepted what strconv rejects (%v)", s, err)
			} else if got != want {
				t.Errorf("parseInt64(%q) = %d, strconv %d", s, got, want)
			}
		}
		// ok=false is always allowed: the caller falls back to strconv.
	}
}

// TestParseFloat64MatchesStrconv pins the Clinger fast path to
// strconv.ParseFloat bit for bit on every input it accepts.
func TestParseFloat64MatchesStrconv(t *testing.T) {
	cases := []string{
		"0", "0.0", "1", "1.5", "-1.5", "3.25", "0.001", "123456.789",
		"1e3", "1.5e-3", "2.5E+7", "-0", "-0.0",
		"0.1", "0.2", "0.3", // classic non-exact decimals: must defer or match
		"9007199254740993", // 2^53+1: mantissa over 53 bits
		"1e22", "1e23", "1e37", "1e38", "-1e-22", "1e-23",
		"12345678901234567890", // >19 sig digits
		"1.7976931348623157e308",
		"", ".", "e3", "1e", "1.2.3", "0x1p3", "inf", "NaN", "1_000",
	}
	for _, s := range cases {
		got, ok := parseFloat64([]byte(s))
		want, err := strconv.ParseFloat(s, 64)
		if ok {
			if err != nil {
				t.Errorf("parseFloat64(%q) accepted what strconv rejects (%v)", s, err)
			} else if got != want {
				t.Errorf("parseFloat64(%q) = %v (%x), strconv %v (%x)",
					s, got, got, want, want)
			}
		}
	}
}

// TestScanReportReuse proves the recycled-ParseReport contract: a
// second scan with a reset report must not see the first scan's
// warnings.
func TestScanReportReuse(t *testing.T) {
	var rep ParseReport
	sink := &countSink{}
	if ok, _ := ScanXMLTolerant([]byte(`<ipm_log ntasks="9"></ipm_log>`), sink, &rep); !ok {
		t.Fatal("bailed")
	}
	if len(rep.Warnings) != 1 {
		t.Fatalf("warnings = %q", rep.Warnings)
	}
	rep.Warnings = rep.Warnings[:0]
	rep.Truncated, rep.TasksRecovered, rep.TasksDeclared = false, 0, 0
	if ok, err := ScanXMLTolerant([]byte(`<ipm_log></ipm_log>`), sink, &rep); !ok || err != nil {
		t.Fatalf("second scan: ok=%v err=%v", ok, err)
	}
	if len(rep.Warnings) != 0 {
		t.Errorf("stale warnings leaked: %q", rep.Warnings)
	}
}

// benchLog is a 4-rank log of the shape the store ingests: call sites
// in the global region and in a user region, per-stream and per-kernel
// execution entries with submit and energy accounting, host idle.
func benchLog(tb testing.TB) []byte {
	tb.Helper()
	var ranks []RankProfile
	for r := 0; r < 4; r++ {
		fc := &fakeClock{}
		m := NewMonitor(r, fmt.Sprintf("node%d", r/2), "./bench", fc.clock, 0)
		m.Start()
		for i, name := range []string{"MPI_Allreduce", "MPI_Send", "MPI_Recv", "cudaMemcpy(H2D)", "cudaMemcpy(D2H)", "cudaLaunch"} {
			m.Observe(name, int64(8<<i), time.Duration(r+i+1)*time.Millisecond)
		}
		m.EnterRegion("solve")
		exec := Stats{Count: 10, Total: 2 * time.Second, Min: time.Millisecond, Max: time.Second,
			Submits: 10, SubmitStall: time.Millisecond, Energy: 5e9}
		m.ObserveN(ExecStreamName(0), 0, exec)
		m.ObserveN(ExecKernelName(0, "dgemm"), 0, exec)
		m.Observe("MPI_Allreduce", 64, time.Millisecond)
		m.ExitRegion()
		m.Observe(HostIdleName, 0, 200*time.Millisecond)
		fc.now = 10 * time.Second
		m.Stop()
		ranks = append(ranks, Snapshot(m))
	}
	var buf bytes.Buffer
	if err := WriteXML(&buf, NewJobProfile("./bench", 2, ranks)); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

type nopSink struct{}

func (nopSink) Header(*ScanHeader)  {}
func (nopSink) TaskStart(*ScanTask) {}
func (nopSink) Entry(*ScanEntry)    {}
func (nopSink) TaskEnd()            {}

// scanXMLOp scans benchLog into a sink that keeps nothing.
func scanXMLOp(tb testing.TB) func() {
	doc := benchLog(tb)
	return func() {
		var rep ParseReport
		if ok, err := ScanXMLTolerant(doc, nopSink{}, &rep); !ok || err != nil {
			tb.Fatalf("scan: ok=%v err=%v", ok, err)
		}
	}
}

// parseXMLTolerantOp reads benchLog into a profile.
func parseXMLTolerantOp(tb testing.TB) func() {
	doc := benchLog(tb)
	return func() {
		if _, _, err := ParseXMLTolerant(bytes.NewReader(doc)); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkScanXML(b *testing.B) { alloctest.Bench(b, scanXMLOp(b)) }

func BenchmarkParseXMLTolerant(b *testing.B) { alloctest.Bench(b, parseXMLTolerantOp(b)) }
