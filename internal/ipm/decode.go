package ipm

import (
	"encoding/xml"
	"fmt"
	"io"
	"time"
)

// This file is the total lexer of the IPM XML log: encoding/xml's token
// loop feeding the reading rules (read.go). It reads whatever the
// decoder can tokenize — truncation, entities, non-ASCII, comments,
// renamed end tags — and is where the scanner (scan.go) sends every
// document it bails on. Both profile readers run it into profileSink.

// DecodeXMLTolerant streams an IPM XML log into sink through the
// non-strict encoding/xml decoder, salvaging what a crashed or killed
// job left behind: every complete task seen so far, the in-progress task
// at a mid-document end of input, and zero values (with a warning) for
// malformed numeric attributes. A decoder error ends the read and marks
// the log truncated. The error return is non-nil only when no ipm_log
// root element was found. rep must be zeroed by the caller.
func DecodeXMLTolerant(r io.Reader, sink ScanSink, rep *ParseReport) error {
	return decodeXML(r, sink, rep, false)
}

// decodeXML is the token loop behind both readers. strict sets the
// decoder's Strict mode and fails, instead of salvaging, on a decoder
// error, on a top-level element other than ipm_log, or on the first
// concession the rules would warn about; the declared-vs-recovered task
// count note is data, not damage, and stays a report warning.
func decodeXML(in io.Reader, sink ScanSink, rep *ParseReport, strict bool) error {
	dec := xml.NewDecoder(in)
	// Tolerant reads are non-strict: unmatched end tags and undefined
	// entities are read through instead of failing the whole document —
	// a rank that died before writing its closing tags is the expected
	// case here.
	dec.Strict = strict
	d := decodeLexer{r: reader{sink: sink, rep: rep}}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			if strict {
				return fmt.Errorf("ipm: parsing XML log: %w", err)
			}
			d.r.fail(err)
			break
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if strict && d.r.depth == 0 && t.Name.Local != "ipm_log" {
				return fmt.Errorf("ipm: unexpected root element %q", t.Name.Local)
			}
			kind := d.r.start(d.bytes(t.Name.Local))
			if kind != elOther {
				for _, a := range t.Attr {
					d.r.attr(kind, d.bytes(a.Name.Local), d.bytes(a.Value))
				}
			}
			d.r.open(kind)
		case xml.EndElement:
			d.r.end(d.bytes(t.Name.Local))
		}
		if strict && len(rep.Warnings) > 0 {
			return fmt.Errorf("ipm: parsing XML log: %s", rep.Warnings[0])
		}
	}
	return d.r.finish()
}

// arenaChunk is the size of one decodeLexer arena chunk.
const arenaChunk = 4 << 10

// decodeLexer hands the rules byte slices of the decoder's strings.
type decodeLexer struct {
	r     reader
	arena []byte
}

// bytes copies s into the arena. A full arena is replaced by a fresh
// chunk rather than grown in place, so every slice handed out stays
// valid for the whole document, as the scanner's slices of its input
// do.
func (d *decodeLexer) bytes(s string) []byte {
	if cap(d.arena)-len(d.arena) < len(s) {
		d.arena = make([]byte, 0, max(arenaChunk, len(s)))
	}
	off := len(d.arena)
	d.arena = append(d.arena, s...)
	return d.arena[off:len(d.arena):len(d.arena)]
}

// ParseXMLTolerant reads an IPM XML log with DecodeXMLTolerant,
// tolerating truncation and attribute corruption: a crashed or killed
// job writes exactly this kind of log, and a post-mortem tool that
// refuses to read it is useless at the one moment it matters.
//
// The error return is non-nil only when nothing at all is recoverable
// (no ipm_log root element). Every concession made is listed in the
// report, and the profile's ExpectedRanks is set from the ntasks
// attribute so downstream consumers see the run as partial rather than
// small.
func ParseXMLTolerant(r io.Reader) (*JobProfile, *ParseReport, error) {
	rep := &ParseReport{}
	var p profileSink
	if err := DecodeXMLTolerant(r, &p, rep); err != nil {
		return nil, rep, err
	}
	return p.profile(), rep, nil
}

// ParseXML reads an IPM XML log strictly: the same reader as
// ParseXMLTolerant, failing where that one would salvage — on any XML
// syntax error, a top-level element other than ipm_log, or any
// concession ParseXMLTolerant would warn about. A log declaring more
// tasks than it holds is still accepted, with ExpectedRanks set.
func ParseXML(r io.Reader) (*JobProfile, error) {
	var rep ParseReport
	var p profileSink
	if err := decodeXML(r, &p, &rep, true); err != nil {
		return nil, err
	}
	return p.profile(), nil
}

// profileSink builds the JobProfile the profile readers return.
type profileSink struct {
	command, start, stop string
	nhosts, ntasks       int
	ranks                []RankProfile
	names                map[string]string // interned entry and region names
}

func (p *profileSink) intern(b []byte) string {
	if s, ok := p.names[string(b)]; ok {
		return s
	}
	if p.names == nil {
		p.names = make(map[string]string)
	}
	s := string(b)
	p.names[s] = s
	return s
}

func (p *profileSink) Header(h *ScanHeader) {
	p.command, p.start, p.stop = string(h.Command), string(h.Start), string(h.Stop)
	p.nhosts, p.ntasks = h.NHosts, h.NTasks
}

func (p *profileSink) TaskStart(t *ScanTask) {
	p.ranks = append(p.ranks, RankProfile{
		Rank: t.Rank, Host: string(t.Host), Wallclock: t.Wallclock,
		LoadFactor: t.LoadFactor, Overflow: t.Overflow, Probes: t.Probes,
		Errors: t.Errors, SubmitStall: t.SubmitStall, MonitorErrors: t.MonitorErrors,
		Energy: t.Energy, Device: string(t.Device),
		Lost: t.Lost, LostAt: t.LostAt, LostReason: string(t.LostReason),
	})
}

func (p *profileSink) Entry(e *ScanEntry) {
	rp := &p.ranks[len(p.ranks)-1]
	rp.Entries = append(rp.Entries, Entry{
		Sig: Sig{Name: p.intern(e.Name), Bytes: e.Bytes, Region: regionFromLabel(p.intern(e.Region))},
		Stats: Stats{
			Count: e.Count, Total: e.Total, Min: e.Min, Max: e.Max, Errors: e.Errors,
			Submits: e.Submits, SubmitStall: e.SubmitStall, Energy: e.Energy,
		},
	})
}

// TaskEnd fills the task totals a log lacks from its entries: logs
// without a rolled-up error_total, or predating submit_stall_total or
// energy_total, still get the sums.
func (p *profileSink) TaskEnd() {
	rp := &p.ranks[len(p.ranks)-1]
	var errs, energy int64
	var stall time.Duration
	for _, e := range rp.Entries {
		errs += e.Stats.Errors
		stall += e.Stats.SubmitStall
		energy += e.Stats.Energy
	}
	if rp.Errors == 0 {
		rp.Errors = errs
	}
	if rp.SubmitStall == 0 {
		rp.SubmitStall = stall
	}
	if rp.Energy == 0 {
		rp.Energy = energy
	}
}

func (p *profileSink) profile() *JobProfile {
	jp := NewJobProfile(p.command, p.nhosts, p.ranks)
	jp.Start, jp.Stop = p.start, p.stop
	if p.ntasks > len(p.ranks) {
		jp.ExpectedRanks = p.ntasks
	}
	return jp
}
