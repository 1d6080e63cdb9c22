package ipm

import (
	"fmt"
	"strconv"
	"time"
)

// This file is the streaming fast path of profile ingest: a zero-copy
// scanner over the raw XML bytes that feeds per-task and per-entry
// events to a sink without building the XMLLog/JobProfile DOM and
// without the per-token boxing of encoding/xml.
//
// Correctness contract: for every input on which ScanXMLTolerant
// reports ok=true, its events, warnings, truncation flag, task counts
// and error must be EXACTLY what ParseXMLTolerant would produce for the
// same bytes. The scanner earns that guarantee by handling only the
// clean core grammar and bailing out (ok=false, caller re-parses with
// ParseXMLTolerant) on anything where the encoding/xml non-strict
// decoder has behavior this scanner does not replicate bit-for-bit:
//
//   - any '&' (entity expansion) or byte outside printable ASCII +
//     \t\n\r anywhere in the document (callers prescan for this);
//   - truncation: EOF inside a tag or with elements still open (the
//     decoder's error text is embedded in the salvage warning);
//   - mismatched end tags (the non-strict decoder auto-closes
//     intermediate elements — a different event stream);
//   - unquoted or valueless attributes, '<' or '\r' inside attribute
//     values ('\r' is normalized to '\n' by the decoder);
//   - ':' in names (namespace resolution), names not matching
//     [A-Za-z_][A-Za-z0-9_.-]*;
//   - "<!" constructs (comments error on inner "--" even non-strict,
//     directives are rare) and "]]>" in character data (always an
//     error);
//   - "<?xml ...?>" processing instructions that mention a non-UTF-8
//     encoding (the decoder errors on those anywhere in the document).
//
// Everything else the decoder tolerates is tolerated identically here:
// multiple roots, stray top-level text, duplicate attributes (last
// wins), whitespace around '=', '\t'/'\n' inside attribute values,
// self-closing tags, unknown elements, and the full salvage state
// machine (interleaved tasks, region/func out of place, bad numeric
// attributes).

// ScanHeader carries the ipm_log root attributes. Byte-slice fields
// alias the input buffer and are only valid during the callback.
type ScanHeader struct {
	Version   []byte
	Command   []byte
	Start     []byte
	Stop      []byte
	NTasks    int
	NHosts    int
	Wallclock float64
}

// ScanTask carries one task element's attributes, durations already
// converted with the same rounding FromXML applies.
type ScanTask struct {
	Rank          int
	Host          []byte
	Wallclock     time.Duration
	LoadFactor    float64
	Overflow      int
	Probes        uint64
	Errors        int64
	SubmitStall   time.Duration
	Energy        int64 // nanojoules, converted like joulesToEnergy
	Device        []byte
	MonitorErrors int64
	Lost          bool
	LostAt        time.Duration
	LostReason    []byte
}

// ScanEntry is one func element inside a region: one hash-table entry.
type ScanEntry struct {
	Region      []byte // enclosing region's name attribute, "" if absent
	Name        []byte
	Bytes       int64
	Count       int64
	Total       time.Duration
	Min         time.Duration
	Max         time.Duration
	Errors      int64
	Submits     int64
	SubmitStall time.Duration
	Energy      int64 // nanojoules
}

// ScanSink receives the event stream of one document. Slices passed in
// alias the input; copy anything that must outlive the callback.
// TaskEnd fires exactly once per recovered task (including tasks closed
// implicitly by an interleaved <task>), after its entries.
type ScanSink interface {
	Header(*ScanHeader)
	TaskStart(*ScanTask)
	Entry(*ScanEntry)
	TaskEnd()
}

// ScanXMLTolerant streams data into sink. ok=false means the input
// strayed off the fast-path grammar: nothing about the partial event
// stream or rep should be trusted, and the caller must fall back to
// ParseXMLTolerant. With ok=true, rep and err match ParseXMLTolerant
// exactly (err is non-nil only when no ipm_log root was found).
//
// rep must be zeroed by the caller; its Warnings slice is appended to,
// so a recycled backing array is reused across documents.
func ScanXMLTolerant(data []byte, sink ScanSink, rep *ParseReport) (ok bool, err error) {
	s := scanner{data: data, sink: sink, rep: rep}
	if !s.run() {
		return false, nil
	}
	if !s.seenRoot {
		return true, fmt.Errorf("ipm: no ipm_log root element found")
	}
	// On the fast path every open <task> is closed by a matched end tag
	// or an interleaved start, so the "log ends inside task" salvage
	// branch is unreachable here (an EOF with the task still open is a
	// decoder error, which bails to the fallback).
	rep.TasksRecovered = s.tasks
	rep.TasksDeclared = s.ntasks
	if s.ntasks > s.tasks {
		rep.warnf("log declares %d task(s) but only %d recovered", s.ntasks, s.tasks)
	}
	return true, nil
}

// element kinds dispatched by name.
const (
	elOther = iota
	elRoot
	elTask
	elRegion
	elFunc
)

type scanner struct {
	data []byte
	pos  int
	sink ScanSink
	rep  *ParseReport

	// stack holds the open element names (slices into data). skipFrom
	// is the depth of the outermost element of a skipped subtree
	// (task-before-root, region-outside-task), 0 when not skipping:
	// while len(stack) >= skipFrom > 0, elements are syntax-checked but
	// produce no warnings or events — the dec.Skip() equivalence.
	stack    [][]byte
	skipFrom int

	seenRoot bool
	inTask   bool
	inRegion bool
	tasks    int
	ntasks   int

	hdr        ScanHeader
	task       ScanTask
	entry      ScanEntry
	regionName []byte
}

func (s *scanner) run() bool {
	for s.pos < len(s.data) {
		if c := s.data[s.pos]; c != '<' {
			if !s.text() {
				return false
			}
			continue
		}
		if s.pos+1 >= len(s.data) {
			return false // EOF mid-tag: decoder syntax error
		}
		switch s.data[s.pos+1] {
		case '/':
			if !s.endTag() {
				return false
			}
		case '?':
			if !s.procInst() {
				return false
			}
		case '!':
			return false // comments/directives: off the fast path
		default:
			if !s.startTag() {
				return false
			}
		}
	}
	// Clean EOF is only clean with nothing open.
	return len(s.stack) == 0
}

// text consumes character data up to the next '<'. The decoder accepts
// anything here except the CDATA terminator "]]>"; content is discarded
// (the tolerant parser ignores all character data).
func (s *scanner) text() bool {
	seg := s.data[s.pos:]
	end := len(seg)
	for i := 0; i < end; i++ {
		if seg[i] == '<' {
			end = i
			break
		}
		if seg[i] == ']' && i+2 < len(seg) && seg[i+1] == ']' && seg[i+2] == '>' {
			return false
		}
	}
	s.pos += end
	return true
}

// procInst consumes <?target ...?>. The decoder accepts any PI, but for
// a target of exactly "xml" it scans the body for "encoding=" and
// errors on any charset other than UTF-8 — a document-wide error this
// scanner cannot replicate, so those bail.
func (s *scanner) procInst() bool {
	s.pos += 2 // "<?"
	start := s.pos
	name := s.readName()
	if name == nil {
		return false
	}
	bodyStart := s.pos
	for {
		if s.pos+1 >= len(s.data) {
			return false // EOF inside PI
		}
		if s.data[s.pos] == '?' && s.data[s.pos+1] == '>' {
			break
		}
		s.pos++
	}
	body := s.data[bodyStart:s.pos]
	s.pos += 2
	if string(name) == "xml" && s.pos-start > 3 {
		// Replicate procInst(): a quoted encoding value other than
		// utf-8 (case-insensitive) errors; anything else — including a
		// malformed encoding= with no quote — is accepted.
		if enc, found := piEncoding(body); found && !equalFoldASCII(enc, "utf-8") {
			return false
		}
	}
	return true
}

// piEncoding finds the first `encoding=` in a PI body (substring match,
// as the decoder does) and returns its quoted value.
func piEncoding(body []byte) (val []byte, found bool) {
	for i := 0; i+9 <= len(body); i++ {
		if string(body[i:i+9]) != "encoding=" {
			continue
		}
		rest := body[i+9:]
		if len(rest) == 0 || (rest[0] != '"' && rest[0] != '\'') {
			return nil, false
		}
		q := rest[0]
		for j := 1; j < len(rest); j++ {
			if rest[j] == q {
				return rest[1:j], true
			}
		}
		return nil, false
	}
	return nil, false
}

func equalFoldASCII(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c, d := b[i], s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != d {
			return false
		}
	}
	return true
}

// readName consumes an XML name restricted to the fast-path grammar
// [A-Za-z_][A-Za-z0-9_.-]*, returning nil (without advancing past valid
// prefix) if the next byte cannot start a name.
func (s *scanner) readName() []byte {
	start := s.pos
	if s.pos >= len(s.data) || !nameStart(s.data[s.pos]) {
		return nil
	}
	s.pos++
	for s.pos < len(s.data) && nameByte(s.data[s.pos]) {
		s.pos++
	}
	return s.data[start:s.pos]
}

func nameStart(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func nameByte(c byte) bool {
	return nameStart(c) || ('0' <= c && c <= '9') || c == '.' || c == '-'
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func (s *scanner) skipSpace() {
	for s.pos < len(s.data) && isSpace(s.data[s.pos]) {
		s.pos++
	}
}

// endTag consumes </name>, allowing trailing whitespace before '>' as
// the decoder does, and requires it to match the innermost open element
// (the decoder auto-closes on mismatch — a bail).
func (s *scanner) endTag() bool {
	s.pos += 2 // "</"
	name := s.readName()
	if name == nil {
		return false
	}
	s.skipSpace()
	if s.pos >= len(s.data) || s.data[s.pos] != '>' {
		return false
	}
	s.pos++
	if len(s.stack) == 0 || string(s.stack[len(s.stack)-1]) != string(name) {
		return false
	}
	s.stack = s.stack[:len(s.stack)-1]
	if s.skipFrom > 0 {
		if len(s.stack) < s.skipFrom {
			s.skipFrom = 0 // closed the skipped subtree's own element
		}
		return true // suppressed, like tokens consumed by dec.Skip
	}
	s.closeElement(name)
	return true
}

// closeElement applies the tolerant parser's EndElement semantics.
func (s *scanner) closeElement(name []byte) {
	switch string(name) {
	case "task":
		s.finishTask()
	case "region":
		s.inRegion = false
		s.regionName = nil
	}
}

func (s *scanner) finishTask() {
	if s.inTask {
		s.tasks++
		s.inTask = false
		s.inRegion = false
		s.regionName = nil
		s.sink.TaskEnd()
	}
}

// startTag consumes <name attr="v"...> or <name .../>, dispatching the
// tolerant parser's StartElement semantics inline.
func (s *scanner) startTag() bool {
	s.pos++ // '<'
	name := s.readName()
	if name == nil {
		return false
	}

	suppressed := s.skipFrom > 0
	kind := elOther
	skipSubtree := false
	if !suppressed {
		switch string(name) {
		case "ipm_log":
			if s.seenRoot {
				s.rep.warnf("nested ipm_log element ignored")
			} else {
				s.seenRoot = true
				kind = elRoot
				s.hdr = ScanHeader{}
			}
		case "task":
			if !s.seenRoot {
				s.rep.warnf("task element before ipm_log root, skipped")
				skipSubtree = true
			} else {
				if s.inTask {
					s.rep.warnf("task (rank %d) not closed before next task, kept partial", s.task.Rank)
					s.finishTask()
				}
				kind = elTask
				s.task = ScanTask{}
			}
		case "region":
			if !s.inTask {
				s.rep.warnf("region element outside task, skipped")
				skipSubtree = true
			} else {
				kind = elRegion
				s.regionName = nil
			}
		case "func":
			if s.inRegion {
				kind = elFunc
				s.entry = ScanEntry{}
			} else {
				// Warned but not skipped: children are still processed.
				s.rep.warnf("func element outside region, skipped")
			}
		}
	}

	// Attribute loop. Values must be quoted, free of '<' and '\r', with
	// optional whitespace around '=' — exactly the subset on which the
	// decoder returns the raw bytes unchanged.
	selfClosing := false
	for {
		s.skipSpace()
		if s.pos >= len(s.data) {
			return false
		}
		switch s.data[s.pos] {
		case '>':
			s.pos++
		case '/':
			if s.pos+1 >= len(s.data) || s.data[s.pos+1] != '>' {
				return false
			}
			s.pos += 2
			selfClosing = true
		default:
			aname := s.readName()
			if aname == nil {
				return false
			}
			s.skipSpace()
			if s.pos >= len(s.data) || s.data[s.pos] != '=' {
				return false // valueless attribute: decoder invents a value
			}
			s.pos++
			s.skipSpace()
			if s.pos >= len(s.data) {
				return false
			}
			q := s.data[s.pos]
			if q != '"' && q != '\'' {
				return false // unquoted value
			}
			s.pos++
			vstart := s.pos
			for {
				if s.pos >= len(s.data) {
					return false
				}
				c := s.data[s.pos]
				if c == q {
					break
				}
				if c == '<' || c == '\r' {
					return false
				}
				s.pos++
			}
			val := s.data[vstart:s.pos]
			s.pos++
			if kind != elOther {
				s.attr(kind, aname, val)
			}
			continue
		}
		break
	}

	if skipSubtree && !selfClosing {
		// dec.Skip() equivalent: push and suppress until it closes.
		s.stack = append(s.stack, name)
		s.skipFrom = len(s.stack)
		return true
	}
	if !selfClosing {
		s.stack = append(s.stack, name)
	}
	if !suppressed && !skipSubtree {
		s.openElement(kind)
		if selfClosing {
			s.closeElement(name)
		}
	}
	return true
}

// openElement applies the post-attribute StartElement semantics.
func (s *scanner) openElement(kind int) {
	switch kind {
	case elRoot:
		s.ntasks = s.hdr.NTasks
		s.sink.Header(&s.hdr)
	case elTask:
		s.inTask = true
		s.inRegion = false
		s.regionName = nil
		s.sink.TaskStart(&s.task)
	case elRegion:
		s.inRegion = true
	case elFunc:
		s.entry.Region = s.regionName
		s.sink.Entry(&s.entry)
	}
}

// attr applies one attribute to the current semantic element, mirroring
// the tolerant parser's attribute switches (unknown names ignored,
// repeated names overwrite, numeric corruption warns and yields zero).
func (s *scanner) attr(kind int, name, val []byte) {
	switch kind {
	case elRoot:
		switch string(name) {
		case "version":
			s.hdr.Version = val
		case "command":
			s.hdr.Command = val
		case "ntasks":
			s.hdr.NTasks = int(s.attrInt("ipm_log", name, val))
		case "nhosts":
			s.hdr.NHosts = int(s.attrInt("ipm_log", name, val))
		case "start":
			s.hdr.Start = val
		case "stop":
			s.hdr.Stop = val
		case "wallclock":
			s.hdr.Wallclock = s.attrFloat("ipm_log", name, val)
		}
	case elTask:
		switch string(name) {
		case "mpi_rank":
			s.task.Rank = int(s.attrInt("task", name, val))
		case "host":
			s.task.Host = val
		case "wallclock":
			s.task.Wallclock = secsToDuration(s.attrFloat("task", name, val))
		case "hashtable_load":
			s.task.LoadFactor = s.attrFloat("task", name, val)
		case "hashtable_overflow":
			s.task.Overflow = int(s.attrInt("task", name, val))
		case "hashtable_probes":
			s.task.Probes = uint64(s.attrInt("task", name, val))
		case "error_total":
			s.task.Errors = s.attrInt("task", name, val)
		case "submit_stall_total":
			s.task.SubmitStall = secsToDuration(s.attrFloat("task", name, val))
		case "energy_total":
			s.task.Energy = joulesToEnergy(s.attrFloat("task", name, val))
		case "device":
			s.task.Device = val
		case "monitor_errors":
			s.task.MonitorErrors = s.attrInt("task", name, val)
		case "status":
			s.task.Lost = string(val) == "lost"
		case "lost_at":
			s.task.LostAt = secsToDuration(s.attrFloat("task", name, val))
		case "lost_reason":
			s.task.LostReason = val
		}
	case elRegion:
		if string(name) == "name" {
			s.regionName = val
		}
	case elFunc:
		switch string(name) {
		case "name":
			s.entry.Name = val
		case "bytes":
			s.entry.Bytes = s.funcInt(name, val)
		case "count":
			s.entry.Count = s.funcInt(name, val)
		case "ttot":
			s.entry.Total = secsToDuration(s.funcFloat(name, val))
		case "tmin":
			s.entry.Min = secsToDuration(s.funcFloat(name, val))
		case "tmax":
			s.entry.Max = secsToDuration(s.funcFloat(name, val))
		case "error_count":
			s.entry.Errors = s.funcInt(name, val)
		case "submit_count":
			s.entry.Submits = s.funcInt(name, val)
		case "submit_stall":
			s.entry.SubmitStall = secsToDuration(s.funcFloat(name, val))
		case "energy":
			s.entry.Energy = joulesToEnergy(s.funcFloat(name, val))
		}
	}
}

// funcWhere rebuilds the tolerant parser's warning location for func
// attributes: "func" until the name attribute is seen, then
// "func <name>". Cold path only (a warning is being emitted).
func (s *scanner) funcWhere() string {
	if s.entry.Name == nil {
		return "func"
	}
	return "func " + string(s.entry.Name)
}

func (s *scanner) funcInt(name, val []byte) int64 {
	if v, ok := parseInt64(val); ok {
		return v
	}
	return s.slowInt(s.funcWhere(), name, val)
}

func (s *scanner) funcFloat(name, val []byte) float64 {
	if v, ok := parseFloat64(val); ok {
		return v
	}
	return s.slowFloat(s.funcWhere(), name, val)
}

func (s *scanner) attrInt(where string, name, val []byte) int64 {
	if v, ok := parseInt64(val); ok {
		return v
	}
	return s.slowInt(where, name, val)
}

func (s *scanner) attrFloat(where string, name, val []byte) float64 {
	if v, ok := parseFloat64(val); ok {
		return v
	}
	return s.slowFloat(where, name, val)
}

// slowInt/slowFloat are the strconv-backed slow paths, shared so the
// warning text stays byte-identical to the tolerant parser's. They
// allocate (string conversion) but only run on inputs the fast parsers
// reject: corrupt values about to warn, or float shapes outside the
// exact-representation window.
func (s *scanner) slowInt(where string, name, val []byte) int64 {
	v, err := strconv.ParseInt(string(val), 10, 64)
	if err != nil {
		s.rep.warnf("%s: bad %s attribute %q, using 0", where, string(name), string(val))
		return 0
	}
	return v
}

func (s *scanner) slowFloat(where string, name, val []byte) float64 {
	v, err := strconv.ParseFloat(string(val), 64)
	if err != nil {
		s.rep.warnf("%s: bad %s attribute %q, using 0", where, string(name), string(val))
		return 0
	}
	return v
}

// parseInt64 is an allocation-free strconv.ParseInt(s, 10, 64): it
// accepts exactly the valid base-10 int64 strings (sign, digits, range
// checked) and reports ok=false otherwise.
func parseInt64(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		i++
	}
	if i == len(b) {
		return 0, false
	}
	limit := uint64(1)<<63 - 1
	if neg {
		limit = uint64(1) << 63
	}
	var n uint64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if n > (limit-d)/10 {
			return 0, false // overflow: let strconv produce the error
		}
		n = n*10 + d
	}
	if neg {
		return -int64(n), true // n == 1<<63 wraps to MinInt64, as intended
	}
	return int64(n), true
}

// float64pow10 are the powers of ten exactly representable in float64.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}

// parseFloat64 is the exact-representation fast path of
// strconv.ParseFloat(s, 64) (Clinger's algorithm): when the decimal
// mantissa fits in 2^53 and the power of ten is exactly representable,
// one multiply or divide is correctly rounded by IEEE semantics and
// matches strconv bit-for-bit. Everything else — long mantissas, big
// exponents, hex/inf/nan/underscore forms, syntax errors — returns
// ok=false for the strconv slow path.
func parseFloat64(b []byte) (float64, bool) {
	i := 0
	neg := false
	if i < len(b) && (b[i] == '+' || b[i] == '-') {
		neg = b[i] == '-'
		i++
	}
	var mantissa uint64
	sawDigit := false
	nd := 0    // significant digits consumed
	exp10 := 0 // decimal exponent adjustment from the fraction part
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			break
		}
		sawDigit = true
		if c == '0' && nd == 0 {
			continue // leading zeros are not significant
		}
		nd++
		if nd > 19 {
			return 0, false // mantissa may not be exact; strconv decides
		}
		mantissa = mantissa*10 + uint64(c-'0')
	}
	if i < len(b) && b[i] == '.' {
		i++
		for ; i < len(b); i++ {
			c := b[i]
			if c < '0' || c > '9' {
				break
			}
			sawDigit = true
			if c == '0' && nd == 0 {
				exp10--
				continue
			}
			nd++
			if nd > 19 {
				return 0, false
			}
			mantissa = mantissa*10 + uint64(c-'0')
			exp10--
		}
	}
	if !sawDigit {
		return 0, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		esign := 1
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			if b[i] == '-' {
				esign = -1
			}
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return 0, false
		}
		e := 0
		for ; i < len(b); i++ {
			c := b[i]
			if c < '0' || c > '9' {
				break
			}
			if e < 10000 {
				e = e*10 + int(c-'0')
			}
		}
		exp10 += esign * e
	}
	if i != len(b) {
		return 0, false // trailing garbage (or underscores, hex, inf...)
	}
	if mantissa>>53 != 0 {
		return 0, false // not exactly representable
	}
	f := float64(mantissa)
	switch {
	case exp10 == 0:
	case exp10 > 0 && exp10 <= 15+22:
		// 10^k * small-int is exact for k <= 22; one extra exact
		// scaling step is allowed while the product stays < 1e15.
		if exp10 > 22 {
			f *= float64pow10[exp10-22]
			exp10 = 22
			if f > 1e15 || f < -1e15 {
				return 0, false
			}
		}
		f *= float64pow10[exp10]
	case exp10 < 0 && exp10 >= -22:
		f /= float64pow10[-exp10]
	default:
		return 0, false
	}
	if neg {
		f = -f
	}
	return f, true
}
