package ipm

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

// The XML profiling log is IPM's detailed output: the full hash table of
// every task, organised by region. ipm_parse (cmd/ipmparse) consumes it to
// regenerate the banner, produce HTML, or convert to the CUBE format.
//
// The document is an ipm_log root with one task element per rank (the
// monitor's fidelity figures and fault diagnostics as attributes), each
// holding one region element per region and one func element per hash
// table entry. Attributes whose value is zero or empty are omitted, so
// logs from runs without command queues, energy models or faults keep
// the shape of older logs. WriteXML appends the bytes straight into one
// buffer; they are exactly what encoding/xml's Encoder (two-space
// indent) makes of the equivalent struct tree, which the package's
// tests keep as the writer's oracle.

// globalRegionName is how the implicit whole-program region appears in the
// log, following IPM's convention.
const globalRegionName = "ipm_global"

func regionLabel(r string) string {
	if r == GlobalRegion {
		return globalRegionName
	}
	return r
}

func regionFromLabel(l string) string {
	if l == globalRegionName {
		return GlobalRegion
	}
	return l
}

// xmlHeader is encoding/xml's Header.
const xmlHeader = `<?xml version="1.0" encoding="UTF-8"?>` + "\n"

// flushAt is the buffered length at which WriteXML hands its buffer to
// the destination writer, checked after each func element.
const flushAt = 48 << 10

// xmlWriter is one WriteXML call's output buffer and its per-task
// region grouping scratch.
type xmlWriter struct {
	w   io.Writer
	buf []byte
	err error

	regions []regionChain    // the task's regions, in order of first appearance
	index   map[string]int32 // region label → position in regions
	next    []int32          // entry index → next entry of its region, -1 at the end
}

// regionChain links one region's entries in table order.
type regionChain struct {
	label       string
	first, last int32
}

// WriteXML writes the job profile as an IPM XML log.
func WriteXML(w io.Writer, jp *JobProfile) error {
	x := &xmlWriter{w: w, buf: make([]byte, 0, xmlSizeHint(jp))}
	x.buf = append(x.buf, xmlHeader+`<ipm_log version="2.0"`...)
	x.attr(` command="`, jp.Command)
	x.int(` ntasks="`, int64(jp.NTasks()))
	x.int(` nhosts="`, int64(jp.Nodes))
	x.optAttr(` start="`, jp.Start)
	x.optAttr(` stop="`, jp.Stop)
	x.float(` wallclock="`, jp.Wallclock().Seconds())
	x.buf = append(x.buf, '>')
	for i := range jp.Ranks {
		x.task(&jp.Ranks[i])
		if x.err != nil {
			break
		}
	}
	if len(jp.Ranks) > 0 {
		x.buf = append(x.buf, '\n')
	}
	x.buf = append(x.buf, "</ipm_log>\n"...)
	x.flush()
	if x.err != nil {
		return fmt.Errorf("ipm: writing XML log: %w", x.err)
	}
	return nil
}

// xmlSizeHint estimates the document's length, capped at one flush's
// worth, so that most logs are written from one allocation.
func xmlSizeHint(jp *JobProfile) int {
	n := 256 + len(jp.Command)
	for i := range jp.Ranks {
		n += 320 + 160*len(jp.Ranks[i].Entries)
	}
	return min(n, flushAt+4<<10)
}

func (x *xmlWriter) task(r *RankProfile) {
	x.int("\n  <task mpi_rank=\"", int64(r.Rank))
	x.attr(` host="`, r.Host)
	x.float(` wallclock="`, r.Wallclock.Seconds())
	x.optFloat(` hashtable_load="`, r.LoadFactor)
	x.optInt(` hashtable_overflow="`, int64(r.Overflow))
	if r.Probes != 0 {
		x.buf = append(strconv.AppendUint(append(x.buf, ` hashtable_probes="`...), r.Probes, 10), '"')
	}
	x.optInt(` error_total="`, r.Errors)
	x.optFloat(` submit_stall_total="`, r.SubmitStall.Seconds())
	x.optFloat(` energy_total="`, energyToJoules(r.Energy))
	x.optAttr(` device="`, r.Device)
	x.optInt(` monitor_errors="`, r.MonitorErrors)
	if r.Lost {
		x.buf = append(x.buf, ` status="lost"`...)
		x.optFloat(` lost_at="`, r.LostAt.Seconds())
		x.optAttr(` lost_reason="`, r.LostReason)
	}
	x.buf = append(x.buf, '>')
	if len(r.Entries) == 0 {
		x.buf = append(x.buf, "</task>"...)
		return
	}
	x.groupByRegion(r.Entries)
	for _, reg := range x.regions {
		x.attr("\n    <region name=\"", reg.label)
		x.buf = append(x.buf, '>')
		for i := reg.first; i >= 0; i = x.next[i] {
			x.entry(&r.Entries[i])
			if len(x.buf) >= flushAt {
				x.flush()
			}
		}
		x.buf = append(x.buf, "\n    </region>"...)
	}
	x.buf = append(x.buf, "\n  </task>"...)
}

// groupByRegion chains the entries of each region, keeping the sorted
// entry order within a region and ordering regions by their first entry.
func (x *xmlWriter) groupByRegion(entries []Entry) {
	x.regions = x.regions[:0]
	if x.index == nil {
		x.index = make(map[string]int32)
	}
	clear(x.index)
	if cap(x.next) < len(entries) {
		x.next = make([]int32, len(entries))
	}
	x.next = x.next[:len(entries)]
	for i := range entries {
		label := regionLabel(entries[i].Sig.Region)
		x.next[i] = -1
		s, ok := x.index[label]
		if !ok {
			s = int32(len(x.regions))
			x.index[label] = s
			x.regions = append(x.regions, regionChain{label: label, first: int32(i), last: int32(i)})
			continue
		}
		x.next[x.regions[s].last] = int32(i)
		x.regions[s].last = int32(i)
	}
}

func (x *xmlWriter) entry(e *Entry) {
	x.attr("\n      <func name=\"", e.Sig.Name)
	x.int(` bytes="`, e.Sig.Bytes)
	x.int(` count="`, e.Stats.Count)
	x.float(` ttot="`, e.Stats.Total.Seconds())
	x.float(` tmin="`, e.Stats.Min.Seconds())
	x.float(` tmax="`, e.Stats.Max.Seconds())
	x.optInt(` error_count="`, e.Stats.Errors)
	x.optInt(` submit_count="`, e.Stats.Submits)
	x.optFloat(` submit_stall="`, e.Stats.SubmitStall.Seconds())
	x.optFloat(` energy="`, energyToJoules(e.Stats.Energy))
	x.buf = append(x.buf, "></func>"...)
}

// attr, int and float append an attribute: prefix is everything up to
// and including the value's opening quote.
func (x *xmlWriter) attr(prefix, v string) {
	x.buf = append(appendEscaped(append(x.buf, prefix...), v), '"')
}

func (x *xmlWriter) int(prefix string, v int64) {
	x.buf = append(strconv.AppendInt(append(x.buf, prefix...), v, 10), '"')
}

func (x *xmlWriter) float(prefix string, v float64) {
	x.buf = append(strconv.AppendFloat(append(x.buf, prefix...), v, 'g', -1, 64), '"')
}

// optAttr, optInt and optFloat leave out an empty or zero value, as
// encoding/xml's omitempty does (a NaN float is not zero, so it is kept).
func (x *xmlWriter) optAttr(prefix, v string) {
	if v != "" {
		x.attr(prefix, v)
	}
}

func (x *xmlWriter) optInt(prefix string, v int64) {
	if v != 0 {
		x.int(prefix, v)
	}
}

func (x *xmlWriter) optFloat(prefix string, v float64) {
	if v != 0 {
		x.float(prefix, v)
	}
}

// flush hands the buffer to the destination; after a failed write it
// keeps the first error and drops what follows.
func (x *xmlWriter) flush() {
	if x.err == nil {
		_, x.err = x.w.Write(x.buf)
	}
	x.buf = x.buf[:0]
}

// appendEscaped appends s as encoding/xml's Encoder escapes an attribute
// value: the markup characters and \t\n\r become character references,
// and each byte sequence that does not encode an XML character in UTF-8
// becomes U+FFFD. Other bytes are copied as they are, in runs.
func appendEscaped(b []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		esc, width := "", 1
		if c := s[i]; c < utf8.RuneSelf {
			if esc = attrEscape[c]; esc == "" {
				i++
				continue
			}
		} else {
			// DecodeRuneInString reports an invalid byte, an encoded
			// surrogate or a code point past U+10FFFF as RuneError of
			// width 1; U+FFFE and U+FFFF are the other non-characters.
			var r rune
			r, width = utf8.DecodeRuneInString(s[i:])
			if (r != utf8.RuneError || width > 1) && r != 0xFFFE && r != 0xFFFF {
				i += width
				continue
			}
			esc = "\uFFFD"
		}
		b = append(append(b, s[last:i]...), esc...)
		i += width
		last = i
	}
	return append(b, s[last:]...)
}

// attrEscape is what the Encoder writes for each ASCII byte of an
// attribute value, "" where it copies the byte.
var attrEscape = func() (t [utf8.RuneSelf]string) {
	for c := range ' ' {
		t[c] = "\uFFFD"
	}
	t['\t'], t['\n'], t['\r'] = "&#x9;", "&#xA;", "&#xD;"
	t['"'], t['\''], t['&'], t['<'], t['>'] = "&#34;", "&#39;", "&amp;", "&lt;", "&gt;"
	return
}()

func secsToDuration(s float64) time.Duration {
	return time.Duration(math.Round(s * float64(time.Second)))
}

// energyToJoules / joulesToEnergy convert between the internal integer
// nanojoule representation and the joule-valued energy_* XML attributes,
// the exact counterparts of Seconds()/secsToDuration for durations.
func energyToJoules(nj int64) float64 { return float64(nj) / 1e9 }

func joulesToEnergy(j float64) int64 { return int64(math.Round(j * 1e9)) }
