package ipm

import (
	"sort"
)

// DefaultTableSize is the default capacity of the performance data hash
// table (IPM's MAXSIZE_HASH is of this order).
const DefaultTableSize = 8192

// Table is IPM's central performance data hash table: fixed-capacity open
// addressing with linear probing, so per-event cost is a hash plus a short
// probe and memory stays bounded for arbitrarily long runs. If the fixed
// region fills up, entries spill to an overflow map and the spill is
// counted — a monitored run can then report its own degraded fidelity.
//
// The open-addressing region is an index: each slot is 2 bytes naming an
// entry in a dense, append-only slice, so a table costs 2 bytes per slot
// plus one entry per signature actually recorded. Probe order, the
// one-slot headroom rule and the spill are those of a table of inline
// entries; only where an occupied slot's payload lives differs.
type Table struct {
	mask     uint64
	slots    []uint16 // 0 = empty, k = entries[k-1]
	entries  []entry  // dense, in insertion order
	overflow map[Sig]*Stats
	probes   uint64 // total probe steps, for diagnostics/benchmarks
}

type entry struct {
	sig   Sig
	stats Stats
}

// maxTableSize caps a table's capacity: with one slot of headroom, every
// entry index then fits a 16-bit slot.
const maxTableSize = 1 << 16

// NewTable creates a table with the given capacity rounded up to a power
// of two, at most maxTableSize. capacity <= 0 selects DefaultTableSize.
func NewTable(capacity int) *Table {
	if capacity <= 0 {
		capacity = DefaultTableSize
	}
	capacity = min(capacity, maxTableSize)
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Table{
		mask:  uint64(n - 1),
		slots: make([]uint16, n),
	}
}

// FNV-1a parameters, shared by hashString and the per-event mixer.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashString is FNV-1a over one string. Wrapper layers call it once per
// constant event name (via NewSigRef) and the monitor once per region
// change; the per-event fast path never rehashes a string.
func hashString(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// mixSig combines the memoized name and region hashes with the bytes
// attribute into the table hash. This is the only hashing work on the
// per-event fast path: two multiplies plus a splitmix-style finalizer so
// the low bits (the table index) depend on every input bit even for
// page-aligned byte counts.
func mixSig(nameHash, regionHash uint64, bytes int64) uint64 {
	h := nameHash
	h = (h ^ regionHash) * fnvPrime
	h = (h ^ uint64(bytes)) * fnvPrime
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// hashSig hashes a full signature; the string-keyed slow path of Update
// and Lookup. It agrees with the SigRef fast path by construction.
func hashSig(s Sig) uint64 {
	return mixSig(hashString(s.Name), hashString(s.Region), s.Bytes)
}

// Update folds one observation into the signature's entry, creating it on
// first use.
func (t *Table) Update(sig Sig, d Stats) { t.UpdateHashed(hashSig(sig), sig, d) }

// UpdateHashed is Update with the signature hash supplied by the caller —
// the zero-rehash fast path used by Monitor.ObserveRef. h must equal
// hashSig(sig).
func (t *Table) UpdateHashed(h uint64, sig Sig, d Stats) {
	// Fast path: fixed open-addressing region.
	idx := h & t.mask
	for i := uint64(0); i <= t.mask; i++ {
		slot := &t.slots[(idx+i)&t.mask]
		t.probes++
		if k := *slot; k != 0 {
			if e := &t.entries[k-1]; e.sig == sig {
				e.stats.Merge(d)
				return
			}
			continue
		}
		// Leave one slot of headroom so probes of absent keys terminate.
		if len(t.entries) < len(t.slots)-1 {
			t.entries = append(t.entries, entry{sig, d})
			*slot = uint16(len(t.entries))
			return
		}
		break
	}
	// Spill path.
	if t.overflow == nil {
		t.overflow = make(map[Sig]*Stats)
	}
	if s, ok := t.overflow[sig]; ok {
		s.Merge(d)
	} else {
		c := d
		t.overflow[sig] = &c
	}
}

// Observe is the common single-observation form of Update.
func (t *Table) Observe(sig Sig, d Stats) { t.Update(sig, d) }

// Lookup returns the statistics for a signature and whether it exists.
// Like Update it advances the probe counter, so probe statistics reflect
// reads as well as writes.
func (t *Table) Lookup(sig Sig) (Stats, bool) {
	idx := hashSig(sig) & t.mask
	for i := uint64(0); i <= t.mask; i++ {
		k := t.slots[(idx+i)&t.mask]
		t.probes++
		if k == 0 {
			break
		}
		if e := &t.entries[k-1]; e.sig == sig {
			return e.stats, true
		}
	}
	if s, ok := t.overflow[sig]; ok {
		return *s, true
	}
	return Stats{}, false
}

// Len returns the number of distinct signatures stored.
func (t *Table) Len() int { return len(t.entries) + len(t.overflow) }

// Overflowed returns the number of signatures that spilled out of the
// fixed region.
func (t *Table) Overflowed() int { return len(t.overflow) }

// Probes returns the accumulated probe count (a load-factor diagnostic).
func (t *Table) Probes() uint64 { return t.probes }

// LoadFactor returns the fill ratio of the fixed open-addressing region,
// in [0, 1]. The banner's degraded-fidelity note reports it when entries
// have spilled to the overflow map.
func (t *Table) LoadFactor() float64 {
	if len(t.slots) == 0 {
		return 0
	}
	return float64(len(t.entries)) / float64(len(t.slots))
}

// Entry is a flattened (signature, statistics) pair.
type Entry struct {
	Sig   Sig
	Stats Stats
}

// Entries returns all entries sorted by descending total time, ties broken
// by name, bytes, then region — the order the banner reports. Fixed-region
// and spilled entries are interleaved by the same ordering, so overflow
// does not perturb the report beyond its own (counted) fidelity loss.
func (t *Table) Entries() []Entry {
	out := make(entrySlice, 0, t.Len())
	for _, e := range t.entries {
		out = append(out, Entry{e.sig, e.stats})
	}
	for sig, s := range t.overflow {
		out = append(out, Entry{sig, *s})
	}
	sort.Sort(out)
	return out
}

// entrySlice sorts without the per-call closure and reflection of
// sort.Slice — Entries sits on the Snapshot path of every rank.
type entrySlice []Entry

func (s entrySlice) Len() int      { return len(s) }
func (s entrySlice) Swap(i, j int) { s[i], s[j] = s[j], s[i] }
func (s entrySlice) Less(i, j int) bool {
	if s[i].Stats.Total != s[j].Stats.Total {
		return s[i].Stats.Total > s[j].Stats.Total
	}
	if s[i].Sig.Name != s[j].Sig.Name {
		return s[i].Sig.Name < s[j].Sig.Name
	}
	if s[i].Sig.Bytes != s[j].Sig.Bytes {
		return s[i].Sig.Bytes < s[j].Sig.Bytes
	}
	return s[i].Sig.Region < s[j].Sig.Region
}
