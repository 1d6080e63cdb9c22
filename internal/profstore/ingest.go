package profstore

import (
	"slices"
	"strings"
	"sync"
	"time"

	"ipmgo/internal/ipm"
)

// This file is the streaming ingest hot path: one pass over the raw XML
// computes the per-job rollup, with all scratch state pooled and reused
// across uploads. The reading itself lives in internal/ipm:
// ScanXMLTolerant, or DecodeXMLTolerant for the documents the scanner
// bails on, both feeding the same rules; everything here is the
// reduction of their event stream to a rollup (rollupSink).
//
// Correctness rests on one property: folding entries per name first and
// merging the per-name subtotals afterwards yields the same rollup as a
// flat fold over the profile's entries — ipm.Stats.Merge is commutative and
// associative over non-empty operands, zero-count operands contribute
// nothing, and the unconditional duration sums are plain integer
// addition. The differential tests and FuzzScanVsParse hold rollupSink
// to that flat fold over ParseXMLTolerant's profile.

// fnv1aOffset/fnv1aPrime are the FNV-1a 64-bit parameters, matching
// hash/fnv (and therefore DeriveID).
const (
	fnv1aOffset = 14695981039346656037
	fnv1aPrime  = 1099511628211
)

// prescanHash computes the FNV-1a content hash of the document: the
// derived job id.
func prescanHash(xml []byte) uint64 {
	h := uint64(fnv1aOffset)
	for _, b := range xml {
		h = (h ^ uint64(b)) * fnv1aPrime
	}
	return h
}

// formatID renders a content hash as the derived job id, equal to
// DeriveID's fmt.Sprintf("j%016x", h) without the fmt round trip.
func formatID(h uint64) string {
	const hex = "0123456789abcdef"
	var b [17]byte
	b[0] = 'j'
	for i := 16; i >= 1; i-- {
		b[i] = hex[h&0xf]
		h >>= 4
	}
	return string(b[:])
}

// nameAcc accumulates everything the rollup needs about one call-site
// name: the merged Stats (sites/kernels tables), the unconditional
// duration sum (gpu/idle/xfer/mpi classification and the imbalance
// total), and the per-task fold behind the max/avg imbalance.
type nameAcc struct {
	name   string
	kernel string // kernelOf(name), computed once at interning

	run uint64 // last sink run that touched this acc (lazy reset)

	merged ipm.Stats
	raw    time.Duration // unconditional sum of entry totals

	// Per-task imbalance fold: curSum accumulates within the task
	// numbered lastTask; crossing into a new task folds it into
	// maxSum/seen. Mirrors spreadOf over per-rank FuncTime values.
	curSum   time.Duration
	lastTask int
	maxSum   time.Duration
	seen     int
}

// fold closes the pending per-task sum, if any.
func (a *nameAcc) fold() {
	if a.lastTask == 0 {
		return
	}
	if a.seen == 0 || a.curSum > a.maxSum {
		a.maxSum = a.curSum
	}
	a.seen++
	a.curSum = 0
	a.lastTask = 0
}

// maxAccCache bounds the cross-ingest name cache; a scratch that has
// seen more distinct names than this is reset wholesale rather than
// growing without bound on adversarial corpora.
const maxAccCache = 4096

// rollupSink reduces a scan's event stream straight into rollup form.
// It is reused across ingests via the scratch pool: the accs map
// persists (interned names, allocated nameAccs) while per-run state is
// reset lazily through the run counter.
type rollupSink struct {
	run  uint64
	accs map[string]*nameAcc
	list []*nameAcc // accs touched this run, in first-appearance order

	cmds map[string]string // interned command strings

	// Per-run document state.
	command   string
	declared  int // the header's ntasks
	taskIdx   int
	tasks     int
	wall      time.Duration
	wallMax   time.Duration
	monErrors int64
	gpu       time.Duration
	xfer      time.Duration
	idle      time.Duration
	mpi       time.Duration
	lostRanks int

	// Submit-stall fold. The task-level attribute wins when present;
	// logs predating it fall back to summing the entry attributes, as
	// ParseXMLTolerant's profile does.
	stall          time.Duration
	taskStall      time.Duration
	taskEntryStall time.Duration

	// Energy and error folds, same task-attribute-wins contract as
	// submit stall.
	energy          int64
	taskEnergy      int64
	taskEntryEnergy int64
	errors          int64
	taskErrors      int64
	taskEntryErrors int64
}

func newRollupSink() *rollupSink {
	return &rollupSink{
		accs: make(map[string]*nameAcc),
		cmds: make(map[string]string),
	}
}

// reset prepares the sink for a new document without discarding the
// interned name cache.
func (k *rollupSink) reset() {
	k.run++
	k.list = k.list[:0]
	k.command = ""
	k.declared, k.taskIdx, k.tasks = 0, 0, 0
	k.wall, k.gpu, k.xfer, k.idle, k.mpi = 0, 0, 0, 0, 0
	k.wallMax, k.monErrors = 0, 0
	k.lostRanks = 0
	k.stall, k.taskStall, k.taskEntryStall = 0, 0, 0
	k.energy, k.taskEnergy, k.taskEntryEnergy = 0, 0, 0
	k.errors, k.taskErrors, k.taskEntryErrors = 0, 0, 0
	if len(k.accs) > maxAccCache {
		k.accs = make(map[string]*nameAcc)
	}
	if len(k.cmds) > maxAccCache {
		k.cmds = make(map[string]string)
	}
}

func (k *rollupSink) Header(h *ipm.ScanHeader) {
	cmd, ok := k.cmds[string(h.Command)] // no-alloc []byte map key lookup
	if !ok {
		cmd = string(h.Command)
		k.cmds[cmd] = cmd
	}
	k.command = cmd
	k.declared = h.NTasks
}

func (k *rollupSink) TaskStart(t *ipm.ScanTask) {
	k.taskIdx++
	k.wall += t.Wallclock
	k.wallMax = max(k.wallMax, t.Wallclock)
	k.monErrors += t.MonitorErrors
	k.taskStall = t.SubmitStall
	k.taskEntryStall = 0
	k.taskEnergy = t.Energy
	k.taskEntryEnergy = 0
	k.taskErrors = t.Errors
	k.taskEntryErrors = 0
	if t.Lost {
		k.lostRanks++
	}
}

func (k *rollupSink) TaskEnd() {
	k.tasks++
	if k.taskStall != 0 {
		k.stall += k.taskStall
	} else {
		k.stall += k.taskEntryStall
	}
	k.taskStall, k.taskEntryStall = 0, 0
	if k.taskEnergy != 0 {
		k.energy += k.taskEnergy
	} else {
		k.energy += k.taskEntryEnergy
	}
	k.taskEnergy, k.taskEntryEnergy = 0, 0
	if k.taskErrors != 0 {
		k.errors += k.taskErrors
	} else {
		k.errors += k.taskEntryErrors
	}
	k.taskErrors, k.taskEntryErrors = 0, 0
}

// lookup returns the accumulator for name, interning it on first sight
// and lazily resetting stale per-run state.
func (k *rollupSink) lookup(name []byte) *nameAcc {
	acc := k.accs[string(name)] // no-alloc []byte map key lookup
	if acc == nil {
		n := string(name)
		acc = &nameAcc{name: n, kernel: kernelOf(n)}
		k.accs[n] = acc
	}
	if acc.run != k.run {
		acc.run = k.run
		acc.merged = ipm.Stats{}
		acc.raw, acc.curSum, acc.maxSum = 0, 0, 0
		acc.lastTask, acc.seen = 0, 0
		k.list = append(k.list, acc)
	}
	return acc
}

func (k *rollupSink) Entry(e *ipm.ScanEntry) {
	name := e.Name
	total := e.Total
	switch {
	case isGPUExecB(name):
		k.gpu += total
	case string(name) == ipm.HostIdleName:
		k.idle += total
	case len(name) > 0 && name[0] == '@':
		// Other pseudo entries: tallied only via sites/kernels below.
	case isTransferB(name):
		k.xfer += total
	}
	if hasPrefixB(name, "MPI_") { // Classify == DomainMPI ('@' wins first, but "MPI_" excludes it)
		k.mpi += total
	}

	acc := k.lookup(name)
	if acc.lastTask != k.taskIdx {
		acc.fold()
		acc.lastTask = k.taskIdx
	}
	acc.curSum += total
	acc.raw += total
	k.taskEntryStall += e.SubmitStall
	k.taskEntryEnergy += e.Energy
	k.taskEntryErrors += e.Errors
	acc.merged.Merge(ipm.Stats{
		Count: e.Count, Total: e.Total, Min: e.Min, Max: e.Max, Errors: e.Errors,
		Submits: e.Submits, SubmitStall: e.SubmitStall, Energy: e.Energy,
	})
}

func hasPrefixB(b []byte, p string) bool {
	return len(b) >= len(p) && string(b[:len(p)]) == p
}

func containsB(b []byte, sub string) bool {
	if len(sub) == 0 {
		return true
	}
	for i := 0; i+len(sub) <= len(b); i++ {
		if string(b[i:i+len(sub)]) == sub {
			return true
		}
	}
	return false
}

// isTransferB is the byte-slice twin of agg.go's isTransfer.
func isTransferB(b []byte) bool { return containsB(b, "Memcpy") || containsB(b, "Memset") }

// isGPUExecB matches the per-stream kernel-execution pseudo entries
// (@CUDA_EXEC_STRMxx without a :kernel suffix), the basis of the paper's
// GPU utilisation metric.
func isGPUExecB(b []byte) bool {
	return hasPrefixB(b, "@CUDA_EXEC_STRM") && !containsB(b, ":")
}

// build materializes the accumulated state into the rollup fields of a
// job; the metadata fields are left zero. jobID labels the imbalance
// rows. It allocates the three row slices and nothing else.
func (k *rollupSink) build(jobID string) Job {
	w := Job{
		Lost: k.lostRanks,
		Wall: int64(k.wall), GPU: int64(k.gpu), Xfer: int64(k.xfer),
		Idle: int64(k.idle), MPI: int64(k.mpi), Stall: int64(k.stall),
		Energy:  k.energy,
		WallMax: int64(k.wallMax), Errors: k.errors, MonErrors: k.monErrors,
	}
	if k.declared > k.tasks {
		w.Declared = k.declared
	}
	// Call sites (kernel "") first, by name; then the per-kernel entries.
	slices.SortFunc(k.list, func(a, b *nameAcc) int {
		if c := strings.Compare(a.kernel, b.kernel); c != 0 {
			return c
		}
		return strings.Compare(a.name, b.name)
	})
	nsites := 0
	for _, acc := range k.list {
		acc.fold()
		if acc.kernel == "" {
			nsites++
		}
	}
	if nsites > 0 {
		w.Sites = make([]WireSite, nsites)
		for i, acc := range k.list[:nsites] {
			w.Sites[i] = WireSite{Name: acc.name, Stats: acc.merged}
		}
	}
	if n := len(k.list) - nsites; n > 0 {
		// One kernel on several streams is one row.
		w.Kernels = make([]WireSite, n)
		for i, acc := range k.list[nsites:] {
			w.Kernels[i] = WireSite{Name: acc.kernel, Stats: acc.merged}
		}
		w.Kernels = foldRows(w.Kernels)
	}
	if k.tasks > 1 {
		// FuncTotals order: merged total descending, then name — the
		// comparator is a total order (names are unique), so any sort
		// reproduces it.
		slices.SortFunc(k.list, func(a, b *nameAcc) int {
			switch {
			case a.merged.Total != b.merged.Total:
				if a.merged.Total > b.merged.Total {
					return -1
				}
				return 1
			case a.name < b.name:
				return -1
			case a.name > b.name:
				return 1
			}
			return 0
		})
		w.Imb = make([]WireImb, len(k.list))
		for i, acc := range k.list {
			// spreadOf over per-rank FuncTime: ranks without the name
			// contribute zeros, so the max is clamped at zero when any
			// rank missed it.
			max := acc.maxSum
			if acc.seen < k.tasks && max < 0 {
				max = 0
			}
			avg := acc.raw / time.Duration(k.tasks)
			mo := 0.0
			if avg != 0 {
				mo = float64(max) / float64(avg)
			}
			w.Imb[i] = WireImb{Name: acc.name, MaxOverAvg: mo, WorstJob: jobID}
		}
	}
	return w
}

// ingestScratch is the pooled per-ingest working set: the sink, the
// scanner's parse report (its warning slice's backing array is reused)
// and the WAL encode buffer.
type ingestScratch struct {
	sink   *rollupSink
	rep    ipm.ParseReport
	walBuf []byte
}

var scratchPool = sync.Pool{
	New: func() any { return &ingestScratch{sink: newRollupSink()} },
}

// resetReport clears a recycled ParseReport, keeping the warning
// slice's capacity.
func resetReport(rep *ipm.ParseReport) {
	rep.Warnings = rep.Warnings[:0]
	rep.Truncated = false
	rep.TasksRecovered = 0
	rep.TasksDeclared = 0
}
