package ipm

import (
	"bytes"
	"encoding/binary"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ipmgo/internal/alloctest"
)

// The struct tree below and encoding/xml's Encoder are the oracle for
// WriteXML: xmlOracle is the log as the Encoder writes it, and
// WriteXML must produce the same bytes.

// XMLLog is the document root.
type XMLLog struct {
	XMLName   xml.Name  `xml:"ipm_log"`
	Version   string    `xml:"version,attr"`
	Command   string    `xml:"command,attr"`
	NTasks    int       `xml:"ntasks,attr"`
	NHosts    int       `xml:"nhosts,attr"`
	Start     string    `xml:"start,attr,omitempty"`
	Stop      string    `xml:"stop,attr,omitempty"`
	Wallclock float64   `xml:"wallclock,attr"`
	Tasks     []XMLTask `xml:"task"`
}

// XMLTask is one rank's profile.
type XMLTask struct {
	Rank         int         `xml:"mpi_rank,attr"`
	Host         string      `xml:"host,attr"`
	Wallclock    float64     `xml:"wallclock,attr"`
	HashLoad     float64     `xml:"hashtable_load,attr,omitempty"`
	HashOverflow int         `xml:"hashtable_overflow,attr,omitempty"`
	HashProbes   uint64      `xml:"hashtable_probes,attr,omitempty"`
	Errors       int64       `xml:"error_total,attr,omitempty"`
	SubmitStall  float64     `xml:"submit_stall_total,attr,omitempty"`
	Energy       float64     `xml:"energy_total,attr,omitempty"` // joules
	Device       string      `xml:"device,attr,omitempty"`
	MonitorErrs  int64       `xml:"monitor_errors,attr,omitempty"`
	Status       string      `xml:"status,attr,omitempty"` // "lost" for a dead rank
	LostAt       float64     `xml:"lost_at,attr,omitempty"`
	LostReason   string      `xml:"lost_reason,attr,omitempty"`
	Regions      []XMLRegion `xml:"region"`
}

// XMLRegion groups hash table entries by user region.
type XMLRegion struct {
	Name  string    `xml:"name,attr"`
	Funcs []XMLFunc `xml:"func"`
}

// XMLFunc is one hash table entry.
type XMLFunc struct {
	Name        string  `xml:"name,attr"`
	Bytes       int64   `xml:"bytes,attr"`
	Count       int64   `xml:"count,attr"`
	TTot        float64 `xml:"ttot,attr"`
	TMin        float64 `xml:"tmin,attr"`
	TMax        float64 `xml:"tmax,attr"`
	Errors      int64   `xml:"error_count,attr,omitempty"`
	SubmitN     int64   `xml:"submit_count,attr,omitempty"`
	SubmitStall float64 `xml:"submit_stall,attr,omitempty"`
	Energy      float64 `xml:"energy,attr,omitempty"` // joules
}

// ToXML converts a job profile to its XML document form.
func ToXML(jp *JobProfile) *XMLLog {
	doc := &XMLLog{
		Version:   "2.0",
		Command:   jp.Command,
		NTasks:    jp.NTasks(),
		NHosts:    jp.Nodes,
		Start:     jp.Start,
		Stop:      jp.Stop,
		Wallclock: jp.Wallclock().Seconds(),
	}
	for _, r := range jp.Ranks {
		task := XMLTask{
			Rank: r.Rank, Host: r.Host, Wallclock: r.Wallclock.Seconds(),
			HashLoad: r.LoadFactor, HashOverflow: r.Overflow, HashProbes: r.Probes,
			Errors: r.Errors, SubmitStall: r.SubmitStall.Seconds(), MonitorErrs: r.MonitorErrors,
			Energy: energyToJoules(r.Energy), Device: r.Device,
		}
		if r.Lost {
			task.Status = "lost"
			task.LostAt = r.LostAt.Seconds()
			task.LostReason = r.LostReason
		}
		// Group entries by region, preserving the sorted entry order.
		regionIdx := make(map[string]int)
		for _, e := range r.Entries {
			label := regionLabel(e.Sig.Region)
			i, ok := regionIdx[label]
			if !ok {
				i = len(task.Regions)
				regionIdx[label] = i
				task.Regions = append(task.Regions, XMLRegion{Name: label})
			}
			task.Regions[i].Funcs = append(task.Regions[i].Funcs, XMLFunc{
				Name:        e.Sig.Name,
				Bytes:       e.Sig.Bytes,
				Count:       e.Stats.Count,
				TTot:        e.Stats.Total.Seconds(),
				TMin:        e.Stats.Min.Seconds(),
				TMax:        e.Stats.Max.Seconds(),
				Errors:      e.Stats.Errors,
				SubmitN:     e.Stats.Submits,
				SubmitStall: e.Stats.SubmitStall.Seconds(),
				Energy:      energyToJoules(e.Stats.Energy),
			})
		}
		doc.Tasks = append(doc.Tasks, task)
	}
	return doc
}

// xmlOracle is the log as encoding/xml writes ToXML's tree: the header,
// the indented document, a final newline.
func xmlOracle(tb testing.TB, jp *JobProfile) []byte {
	tb.Helper()
	buf := bytes.NewBufferString(xml.Header)
	enc := xml.NewEncoder(buf)
	enc.Indent("", "  ")
	if err := enc.Encode(ToXML(jp)); err != nil {
		tb.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		tb.Fatal(err)
	}
	buf.WriteByte('\n')
	return buf.Bytes()
}

// profileFromLog is encoding/xml's reading of the log: the profile a
// reader must recover from the document.
func profileFromLog(doc *XMLLog) *JobProfile {
	jp := &JobProfile{Command: doc.Command, Start: doc.Start, Stop: doc.Stop, Nodes: doc.NHosts}
	for _, t := range doc.Tasks {
		rp := RankProfile{
			Rank: t.Rank, Host: t.Host, Wallclock: secsToDuration(t.Wallclock),
			LoadFactor: t.HashLoad, Overflow: t.HashOverflow, Probes: t.HashProbes,
			Errors: t.Errors, SubmitStall: secsToDuration(t.SubmitStall), Energy: joulesToEnergy(t.Energy),
			Device: t.Device, MonitorErrors: t.MonitorErrs,
			Lost: t.Status == "lost", LostAt: secsToDuration(t.LostAt), LostReason: t.LostReason,
		}
		for _, reg := range t.Regions {
			for _, f := range reg.Funcs {
				rp.Entries = append(rp.Entries, Entry{
					Sig: Sig{Name: f.Name, Bytes: f.Bytes, Region: regionFromLabel(reg.Name)},
					Stats: Stats{
						Count: f.Count, Total: secsToDuration(f.TTot), Min: secsToDuration(f.TMin),
						Max: secsToDuration(f.TMax), Errors: f.Errors, Submits: f.SubmitN,
						SubmitStall: secsToDuration(f.SubmitStall), Energy: joulesToEnergy(f.Energy),
					},
				})
			}
		}
		jp.Ranks = append(jp.Ranks, rp)
	}
	return jp
}

// checkWriteXML holds WriteXML to the oracle's bytes, and the readers to
// reading back what encoding/xml reads from them: ScanXMLTolerant, or
// the decoder where the scanner bails, with no warning either way.
func checkWriteXML(t *testing.T, jp *JobProfile) {
	t.Helper()
	var got bytes.Buffer
	if err := WriteXML(&got, jp); err != nil {
		t.Fatal(err)
	}
	want := xmlOracle(t, jp)
	if !bytes.Equal(got.Bytes(), want) {
		i := 0
		for i < min(got.Len(), len(want)) && got.Bytes()[i] == want[i] {
			i++
		}
		t.Fatalf("WriteXML differs from encoding/xml at byte %d of %d\ngot:  %q\nwant: %q",
			i, len(want), got.Bytes()[max(i-40, 0):min(i+40, got.Len())], want[max(i-40, 0):min(i+40, len(want))])
	}
	var doc XMLLog
	if err := xml.Unmarshal(want, &doc); err != nil {
		t.Fatalf("encoding/xml cannot read its own log: %v", err)
	}
	var sink profileSink
	var rep ParseReport
	ok, err := ScanXMLTolerant(got.Bytes(), &sink, &rep)
	if !ok {
		sink, rep = profileSink{}, ParseReport{}
		err = DecodeXMLTolerant(bytes.NewReader(got.Bytes()), &sink, &rep)
	}
	if err != nil || len(rep.Warnings) != 0 {
		t.Fatalf("reading the log back (scanner ok=%v): err %v, warnings %q", ok, err, rep.Warnings)
	}
	if back, wantBack := sink.profile(), profileFromLog(&doc); !reflect.DeepEqual(back, wantBack) {
		t.Fatalf("read back (scanner ok=%v)\n%+v\nwant\n%+v", ok, back, wantBack)
	}
}

// hostile holds every kind of byte the escaping distinguishes: the
// markup characters, the whitespace the Encoder escapes, control bytes,
// non-characters, invalid UTF-8, and valid non-ASCII to keep.
const hostile = "a\"b&c<d>e'f\tg\nh\ri\x00j\x01k\x1fl\x7fm\xffn\xfeo\xed\xa0\x80p\xef\xbf\xbeq\uFFFDr\u00e9\u65e5\u672c"

// xmlCases are the writer's hand-picked profiles, one per surface no
// golden log exercises; they also seed FuzzWriteXML.
func xmlCases() []struct {
	name string
	jp   *JobProfile
} {
	entry := func(region, name string, bytes int64, total time.Duration) Entry {
		return Entry{Sig{Name: name, Bytes: bytes, Region: region},
			Stats{Count: 3, Total: total, Min: total / 4, Max: total / 2}}
	}
	rank := func(r int, entries ...Entry) RankProfile {
		return RankProfile{Rank: r, Host: fmt.Sprintf("node%d", r), Wallclock: 1500 * time.Millisecond, Entries: entries}
	}
	job := func(ranks ...RankProfile) *JobProfile {
		return &JobProfile{Command: "./app", Nodes: len(ranks), Ranks: ranks}
	}
	basic := []Entry{entry("", "MPI_Send", 1024, 30*time.Millisecond), entry("", "cudaMemcpy(H2D)", 4096, 7*time.Microsecond)}

	monitorErrs := rank(0, basic...)
	monitorErrs.MonitorErrors = 3
	overflow := rank(0, basic...)
	overflow.Overflow, overflow.LoadFactor, overflow.Probes = 5, 0.875, 1<<40
	startStop := job(rank(0, basic...))
	startStop.Start, startStop.Stop = "Tue Oct 20 16:13:55 2026", "Tue Oct 20 16:14:01 2026"
	lost := rank(1, basic...)
	lost.Lost, lost.LostAt, lost.LostReason = true, 750*time.Millisecond, "rank killed"
	lostBare := rank(2)
	lostBare.Lost = true

	// Every omitempty attribute set, totals consistent with the entries.
	full := rank(0, basic...)
	full.Entries = append([]Entry(nil), basic...)
	full.Entries[0].Stats.Errors, full.Entries[0].Stats.Submits = 2, 3
	full.Entries[0].Stats.SubmitStall, full.Entries[0].Stats.Energy = 1234*time.Nanosecond, 76_500_000_000
	full.Errors, full.SubmitStall, full.Energy = 2, 1234*time.Nanosecond, 76_500_000_000
	full.Device, full.MonitorErrors, full.Overflow, full.LoadFactor, full.Probes = "Tesla C2050", 1, 1, 0.5, 9

	hostileRank := rank(0,
		entry(hostile, "MPI_Send", 8, time.Millisecond),
		entry("", hostile, 16, time.Microsecond),
		entry("\x01", "a", 0, time.Microsecond), // two regions that both escape to U+FFFD
		entry("\x02", "b", 0, time.Microsecond))
	hostileRank.Host, hostileRank.Device = hostile, hostile
	hostileRank.Lost, hostileRank.LostReason = true, hostile
	hostileJob := job(hostileRank)
	hostileJob.Command, hostileJob.Start, hostileJob.Stop = hostile, "\t", "'"

	// Enough entries that the writer flushes several times.
	var many []Entry
	for i := 0; i < 1200; i++ {
		many = append(many, entry([]string{"", "solve", "io"}[i%3], fmt.Sprintf("MPI_Call%04d", i), int64(i), time.Duration(i+1)*time.Microsecond))
	}

	return []struct {
		name string
		jp   *JobProfile
	}{
		{"monitor_errors", job(monitorErrs)},
		{"hashtable_overflow", job(overflow)},
		{"start_stop", startStop},
		{"empty_rank", job(rank(0, basic...), rank(1), rank(2, basic...))},
		{"zero_ranks", job()},
		{"interleaved_regions", job(rank(0,
			entry("solve", "MPI_Allreduce", 8, 9*time.Millisecond),
			entry("", "MPI_Send", 8, 8*time.Millisecond),
			entry("solve", "cudaLaunch", 0, 7*time.Millisecond),
			entry("io", "MPI_File_write", 1<<20, 6*time.Millisecond),
			entry("", "MPI_Recv", 8, 5*time.Millisecond),
			entry("solve", "MPI_Send", 8, 4*time.Millisecond)))},
		{"lost_ranks", job(rank(0, basic...), lost, lostBare)},
		{"every_attribute", job(full)},
		{"hostile_strings", hostileJob},
		{"flushes", job(rank(0, many...), rank(1, many...))},
	}
}

// TestWriteXMLMatchesEncoder: on each hand-picked profile WriteXML
// writes encoding/xml's bytes, and the readers read back what
// encoding/xml reads.
func TestWriteXMLMatchesEncoder(t *testing.T) {
	for _, c := range xmlCases() {
		t.Run(c.name, func(t *testing.T) {
			checkWriteXML(t, c.jp)
			if seed := fuzzProfile(encodeFuzzProfile(c.jp)); !reflect.DeepEqual(seed, c.jp) {
				t.Errorf("FuzzWriteXML seed decodes to\n%+v\nwant\n%+v", seed, c.jp)
			}
		})
	}
}

var errShortWrite = errors.New("disk full")

type failingWriter struct{ room int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.room {
		return w.room, errShortWrite
	}
	w.room -= len(p)
	return len(p), nil
}

// TestWriteXMLReportsWriteError: a failed write ends WriteXML with the
// writer's error, whether it fails the one flush of a short log or the
// first of a long one.
func TestWriteXMLReportsWriteError(t *testing.T) {
	for _, c := range xmlCases() {
		if err := WriteXML(&failingWriter{room: 100}, c.jp); !errors.Is(err, errShortWrite) {
			t.Errorf("%s: WriteXML error = %v, want %v", c.name, err, errShortWrite)
		}
	}
}

// FuzzWriteXML holds WriteXML to encoding/xml and the readers to reading
// its output back (checkWriteXML) over random profiles: lost, empty and
// zero ranks, omitempty attributes set and unset, several regions, and
// arbitrary bytes in every string.
func FuzzWriteXML(f *testing.F) {
	for _, c := range xmlCases() {
		f.Add(encodeFuzzProfile(c.jp))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWriteXML(t, fuzzProfile(data))
	})
}

// FuzzWriteXML's input is a sequence of uvarints and length-prefixed
// strings, each field defaulting to zero once the input runs out, so
// every input is a profile. The bounds keep durations and energies
// where their decimal seconds and joules read back exactly, and a
// profile small enough to check quickly.
const (
	fuzzMaxRanks   = 64
	fuzzMaxEntries = 2048
	fuzzMaxNanos   = 1 << 44
	fuzzMaxCount   = 1 << 62
)

type fuzzInput struct{ b []byte }

func (in *fuzzInput) uint(bound uint64) uint64 {
	v, n := binary.Uvarint(in.b)
	if n <= 0 { // empty, or no uvarint: use one byte up
		in.b = in.b[min(1, len(in.b)):]
		return 0
	}
	in.b = in.b[n:]
	return v % bound
}

func (in *fuzzInput) str() string {
	n := min(in.uint(fuzzMaxCount), uint64(len(in.b)))
	s := string(in.b[:n])
	in.b = in.b[n:]
	return s
}

func (in *fuzzInput) nanos() time.Duration { return time.Duration(in.uint(fuzzMaxNanos)) }

// fuzzProfile decodes a FuzzWriteXML input. Ranks are strictly
// increasing, and a rank total left at zero is the sum over its entries,
// as Snapshot makes it and as the readers fill it in.
func fuzzProfile(data []byte) *JobProfile {
	in := &fuzzInput{data}
	jp := &JobProfile{Command: in.str(), Start: in.str(), Stop: in.str(), Nodes: int(in.uint(1 << 20))}
	nranks := int(in.uint(fuzzMaxRanks + 1))
	next := 0
	for range nranks {
		r := RankProfile{Rank: next + int(in.uint(1<<20)), Host: in.str(), Device: in.str(), Wallclock: in.nanos()}
		next = r.Rank + 1
		r.LoadFactor = float64(in.uint(1<<16)) / (1 << 16)
		r.Overflow, r.Probes = int(in.uint(1<<31)), in.uint(fuzzMaxCount)
		r.Errors, r.MonitorErrors = int64(in.uint(fuzzMaxCount)), int64(in.uint(fuzzMaxCount))
		r.SubmitStall, r.Energy = in.nanos(), int64(in.nanos())
		r.Lost, r.LostAt, r.LostReason = in.uint(2) == 1, in.nanos(), in.str()
		nentries := int(in.uint(fuzzMaxEntries + 1))
		var errs, energy int64
		var stall time.Duration
		for range nentries {
			e := Entry{Sig: Sig{Region: in.str(), Name: in.str(), Bytes: int64(in.uint(fuzzMaxCount))}}
			s := &e.Stats
			s.Count, s.Total, s.Min, s.Max = int64(in.uint(fuzzMaxCount)), in.nanos(), in.nanos(), in.nanos()
			s.Errors, s.Submits, s.SubmitStall = int64(in.uint(fuzzMaxCount)), int64(in.uint(fuzzMaxCount)), in.nanos()
			s.Energy = int64(in.nanos())
			errs, stall, energy = errs+s.Errors, stall+s.SubmitStall, energy+s.Energy
			r.Entries = append(r.Entries, e)
		}
		if r.Errors == 0 {
			r.Errors = errs
		}
		if r.SubmitStall == 0 {
			r.SubmitStall = stall
		}
		if r.Energy == 0 {
			r.Energy = energy
		}
		jp.Ranks = append(jp.Ranks, r)
	}
	return jp
}

// encodeFuzzProfile is fuzzProfile's inverse on the profiles it decodes.
func encodeFuzzProfile(jp *JobProfile) []byte {
	var b []byte
	u := func(v uint64) { b = binary.AppendUvarint(b, v) }
	str := func(s string) { u(uint64(len(s))); b = append(b, s...) }
	str(jp.Command)
	str(jp.Start)
	str(jp.Stop)
	u(uint64(jp.Nodes))
	u(uint64(len(jp.Ranks)))
	next := 0
	for _, r := range jp.Ranks {
		u(uint64(r.Rank - next))
		next = r.Rank + 1
		str(r.Host)
		str(r.Device)
		u(uint64(r.Wallclock))
		u(uint64(r.LoadFactor * (1 << 16)))
		u(uint64(r.Overflow))
		u(r.Probes)
		u(uint64(r.Errors))
		u(uint64(r.MonitorErrors))
		u(uint64(r.SubmitStall))
		u(uint64(r.Energy))
		lost := uint64(0)
		if r.Lost {
			lost = 1
		}
		u(lost)
		u(uint64(r.LostAt))
		str(r.LostReason)
		u(uint64(len(r.Entries)))
		for _, e := range r.Entries {
			str(e.Sig.Region)
			str(e.Sig.Name)
			u(uint64(e.Sig.Bytes))
			s := e.Stats
			for _, v := range []int64{s.Count, int64(s.Total), int64(s.Min), int64(s.Max), s.Errors, s.Submits, int64(s.SubmitStall), s.Energy} {
				u(uint64(v))
			}
		}
	}
	return b
}

// amberProfile is the 4-rank Amber job of the repository's direct-path
// golden log (the XML part of testdata/golden/amber.txt).
func amberProfile(tb testing.TB) *JobProfile {
	tb.Helper()
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "amber.txt"))
	if err != nil {
		tb.Fatal(err)
	}
	end := bytes.Index(golden, []byte("</ipm_log>\n"))
	if end < 0 {
		tb.Fatal("amber golden holds no XML log")
	}
	jp, err := ParseXML(bytes.NewReader(golden[:end+len("</ipm_log>\n")]))
	if err != nil {
		tb.Fatal(err)
	}
	return jp
}

// writeXMLOp writes the Amber profile's log to io.Discard.
func writeXMLOp(tb testing.TB) func() {
	jp := amberProfile(tb)
	return func() {
		if err := WriteXML(io.Discard, jp); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkWriteXML(b *testing.B) { alloctest.Bench(b, writeXMLOp(b)) }
