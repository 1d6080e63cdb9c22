package ipm

import (
	"fmt"
	"strconv"
	"time"
)

// This file holds the reading rules of the IPM XML log, written once and
// shared by its two lexers: scan.go's zero-copy byte scanner (the
// ingest fast path) and decode.go's encoding/xml token loop (total over
// damaged input). A lexer turns bytes into element starts, attributes
// and ends; the rules decide what they mean — which element opens a
// task, region or entry, what each attribute converts to, which
// concessions a damaged log warrants — and hand the result to a
// ScanSink.

// ScanHeader carries the ipm_log root attributes. Byte-slice fields
// alias the lexer's input and are only valid during the callback.
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
// converted to nanoseconds.
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
// implicitly by an interleaved <task> or by the end of input), after its
// entries.
type ScanSink interface {
	Header(*ScanHeader)
	TaskStart(*ScanTask)
	Entry(*ScanEntry)
	TaskEnd()
}

// ParseReport describes what a reader recovered from a damaged log and
// what it had to guess at.
type ParseReport struct {
	Warnings       []string
	Truncated      bool // input ended mid-document
	TasksRecovered int
	TasksDeclared  int // ntasks attribute, 0 if never seen
}

func (pr *ParseReport) warnf(format string, args ...any) {
	pr.Warnings = append(pr.Warnings, fmt.Sprintf(format, args...))
}

// element kinds dispatched by name.
const (
	elOther = iota
	elRoot
	elTask
	elRegion
	elFunc
)

// reader applies the rules to one document's element events. A lexer
// calls start for each start tag, attr for each attribute of a tag whose
// kind is not elOther, open once the tag's attributes are read, end for
// each end tag (and right after open for a self-closing one), fail when
// it cannot read further, and finish at the end of input. Slices handed
// in must stay valid for the whole document.
type reader struct {
	sink ScanSink
	rep  *ParseReport

	// depth counts the open elements. skipFrom is the depth of the
	// outermost element of a skipped subtree (task before the root,
	// region outside a task), 0 when not skipping: while depth >=
	// skipFrom > 0, elements produce no warnings or events.
	depth    int
	skipFrom int

	seenRoot bool
	inTask   bool
	inRegion bool
	named    bool // the current func has a name attribute
	tasks    int
	ntasks   int

	hdr        ScanHeader
	task       ScanTask
	entry      ScanEntry
	regionName []byte
}

// start applies a start tag's semantics and returns the element kind
// its attributes are read for.
func (r *reader) start(name []byte) int {
	r.depth++
	if r.skipFrom > 0 {
		return elOther
	}
	switch string(name) {
	case "ipm_log":
		if r.seenRoot {
			r.rep.warnf("nested ipm_log element ignored")
			return elOther
		}
		r.seenRoot = true
		r.hdr = ScanHeader{}
		return elRoot
	case "task":
		if !r.seenRoot {
			r.rep.warnf("task element before ipm_log root, skipped")
			r.skipFrom = r.depth
			return elOther
		}
		if r.inTask {
			r.rep.warnf("task (rank %d) not closed before next task, kept partial", r.task.Rank)
			r.finishTask()
		}
		r.task = ScanTask{}
		return elTask
	case "region":
		if !r.inTask {
			r.rep.warnf("region element outside task, skipped")
			r.skipFrom = r.depth
			return elOther
		}
		r.regionName = nil
		return elRegion
	case "func":
		if !r.inRegion {
			// Warned but not skipped: children are still processed.
			r.rep.warnf("func element outside region, skipped")
			return elOther
		}
		r.entry = ScanEntry{}
		r.named = false
		return elFunc
	}
	return elOther
}

// open applies the semantics that follow a start tag's attributes.
func (r *reader) open(kind int) {
	switch kind {
	case elRoot:
		r.ntasks = r.hdr.NTasks
		r.sink.Header(&r.hdr)
	case elTask:
		r.inTask = true
		r.inRegion = false
		r.regionName = nil
		r.sink.TaskStart(&r.task)
	case elRegion:
		r.inRegion = true
	case elFunc:
		r.entry.Region = r.regionName
		r.sink.Entry(&r.entry)
	}
}

// end applies an end tag's semantics.
func (r *reader) end(name []byte) {
	r.depth--
	if r.skipFrom > 0 {
		if r.depth < r.skipFrom {
			r.skipFrom = 0 // closed the skipped subtree's own element
		}
		return
	}
	switch string(name) {
	case "task":
		r.finishTask()
	case "region":
		r.inRegion = false
		r.regionName = nil
	}
}

func (r *reader) finishTask() {
	if r.inTask {
		r.tasks++
		r.inTask = false
		r.inRegion = false
		r.regionName = nil
		r.sink.TaskEnd()
	}
}

// fail records that the lexer stopped at err: the document is
// truncated or corrupt there, and everything read so far is kept. A
// failure inside a skipped subtree marks the log truncated without a
// warning of its own.
func (r *reader) fail(err error) {
	r.rep.Truncated = true
	if r.skipFrom == 0 {
		r.rep.warnf("log truncated or corrupt: %v", err)
	}
}

// finish closes the document: a task still open is kept partial, and
// the report gets its task counts. The error is non-nil only when no
// ipm_log root was found.
func (r *reader) finish() error {
	if !r.seenRoot {
		return fmt.Errorf("ipm: no ipm_log root element found")
	}
	if r.inTask {
		r.rep.Truncated = true
		r.rep.warnf("log ends inside task (rank %d), kept partial", r.task.Rank)
		r.finishTask()
	}
	r.rep.TasksRecovered = r.tasks
	r.rep.TasksDeclared = r.ntasks
	if r.ntasks > r.tasks {
		r.rep.warnf("log declares %d task(s) but only %d recovered", r.ntasks, r.tasks)
	}
	return nil
}

// attr applies one attribute to the current element: unknown names are
// ignored, repeated names overwrite, numeric corruption warns and
// yields zero.
func (r *reader) attr(kind int, name, val []byte) {
	switch kind {
	case elRoot:
		switch string(name) {
		case "version":
			r.hdr.Version = val
		case "command":
			r.hdr.Command = val
		case "ntasks":
			r.hdr.NTasks = int(r.attrInt("ipm_log", name, val))
		case "nhosts":
			r.hdr.NHosts = int(r.attrInt("ipm_log", name, val))
		case "start":
			r.hdr.Start = val
		case "stop":
			r.hdr.Stop = val
		case "wallclock":
			r.hdr.Wallclock = r.attrFloat("ipm_log", name, val)
		}
	case elTask:
		switch string(name) {
		case "mpi_rank":
			r.task.Rank = int(r.attrInt("task", name, val))
		case "host":
			r.task.Host = val
		case "wallclock":
			r.task.Wallclock = secsToDuration(r.attrFloat("task", name, val))
		case "hashtable_load":
			r.task.LoadFactor = r.attrFloat("task", name, val)
		case "hashtable_overflow":
			r.task.Overflow = int(r.attrInt("task", name, val))
		case "hashtable_probes":
			r.task.Probes = r.attrUint("task", name, val)
		case "error_total":
			r.task.Errors = r.attrInt("task", name, val)
		case "submit_stall_total":
			r.task.SubmitStall = secsToDuration(r.attrFloat("task", name, val))
		case "energy_total":
			r.task.Energy = joulesToEnergy(r.attrFloat("task", name, val))
		case "device":
			r.task.Device = val
		case "monitor_errors":
			r.task.MonitorErrors = r.attrInt("task", name, val)
		case "status":
			r.task.Lost = string(val) == "lost"
		case "lost_at":
			r.task.LostAt = secsToDuration(r.attrFloat("task", name, val))
		case "lost_reason":
			r.task.LostReason = val
		}
	case elRegion:
		if string(name) == "name" {
			r.regionName = val
		}
	case elFunc:
		switch string(name) {
		case "name":
			r.entry.Name = val
			r.named = true
		case "bytes":
			r.entry.Bytes = r.funcInt(name, val)
		case "count":
			r.entry.Count = r.funcInt(name, val)
		case "ttot":
			r.entry.Total = secsToDuration(r.funcFloat(name, val))
		case "tmin":
			r.entry.Min = secsToDuration(r.funcFloat(name, val))
		case "tmax":
			r.entry.Max = secsToDuration(r.funcFloat(name, val))
		case "error_count":
			r.entry.Errors = r.funcInt(name, val)
		case "submit_count":
			r.entry.Submits = r.funcInt(name, val)
		case "submit_stall":
			r.entry.SubmitStall = secsToDuration(r.funcFloat(name, val))
		case "energy":
			r.entry.Energy = joulesToEnergy(r.funcFloat(name, val))
		}
	}
}

// funcWhere is the warning location for func attributes: "func" until
// the name attribute is seen, then "func <name>". Cold path only (a
// warning is being emitted).
func (r *reader) funcWhere() string {
	if !r.named {
		return "func"
	}
	return "func " + string(r.entry.Name)
}

func (r *reader) funcInt(name, val []byte) int64 {
	if v, ok := parseInt64(val); ok {
		return v
	}
	return r.slowInt(r.funcWhere(), name, val)
}

func (r *reader) funcFloat(name, val []byte) float64 {
	if v, ok := parseFloat64(val); ok {
		return v
	}
	return r.slowFloat(r.funcWhere(), name, val)
}

func (r *reader) attrInt(where string, name, val []byte) int64 {
	if v, ok := parseInt64(val); ok {
		return v
	}
	return r.slowInt(where, name, val)
}

// attrUint reads an unsigned attribute: a sign, like any other
// non-digit, is corruption.
func (r *reader) attrUint(where string, name, val []byte) uint64 {
	if v, ok := parseInt64(val); ok && val[0] != '-' && val[0] != '+' {
		return uint64(v)
	}
	v, err := strconv.ParseUint(string(val), 10, 64)
	if err != nil {
		r.rep.warnf("%s: bad %s attribute %q, using 0", where, string(name), string(val))
		return 0
	}
	return v
}

func (r *reader) attrFloat(where string, name, val []byte) float64 {
	if v, ok := parseFloat64(val); ok {
		return v
	}
	return r.slowFloat(where, name, val)
}

// slowInt/slowFloat are the strconv-backed slow paths, shared so every
// warning has one text. They allocate (string conversion) but only run
// on inputs the fast parsers reject: corrupt values about to warn, or
// float shapes outside the exact-representation window.
func (r *reader) slowInt(where string, name, val []byte) int64 {
	v, err := strconv.ParseInt(string(val), 10, 64)
	if err != nil {
		r.rep.warnf("%s: bad %s attribute %q, using 0", where, string(name), string(val))
		return 0
	}
	return v
}

func (r *reader) slowFloat(where string, name, val []byte) float64 {
	v, err := strconv.ParseFloat(string(val), 64)
	if err != nil {
		r.rep.warnf("%s: bad %s attribute %q, using 0", where, string(name), string(val))
		return 0
	}
	return v
}
