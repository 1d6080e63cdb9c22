package ipm

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"ipmgo/internal/alloctest"
	"ipmgo/internal/devmodel"
)

func obs(d time.Duration) Stats { return Stats{Count: 1, Total: d, Min: d, Max: d} }

func TestStatsAdd(t *testing.T) {
	var s Stats
	s.Add(5 * time.Millisecond)
	s.Add(2 * time.Millisecond)
	s.Add(9 * time.Millisecond)
	if s.Count != 3 || s.Total != 16*time.Millisecond {
		t.Errorf("count/total = %d/%v", s.Count, s.Total)
	}
	if s.Min != 2*time.Millisecond || s.Max != 9*time.Millisecond {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.Avg() != 16*time.Millisecond/3 {
		t.Errorf("avg = %v", s.Avg())
	}
	if (Stats{}).Avg() != 0 {
		t.Error("empty avg not zero")
	}
}

func TestStatsMerge(t *testing.T) {
	var a, b Stats
	a.Add(time.Millisecond)
	a.Add(3 * time.Millisecond)
	b.Add(2 * time.Millisecond)
	b.Add(10 * time.Millisecond)
	a.Merge(b)
	if a.Count != 4 || a.Total != 16*time.Millisecond || a.Min != time.Millisecond || a.Max != 10*time.Millisecond {
		t.Errorf("merged = %+v", a)
	}
	var empty Stats
	a.Merge(empty) // no-op
	if a.Count != 4 {
		t.Error("merging empty changed stats")
	}
	empty.Merge(a)
	if empty != a {
		t.Error("merge into empty should copy")
	}
}

func TestTableUpdateLookup(t *testing.T) {
	tb := NewTable(64)
	sig := Sig{Name: "cudaMemcpy(D2H)", Bytes: 1024}
	tb.Update(sig, obs(time.Millisecond))
	tb.Update(sig, obs(3*time.Millisecond))
	s, ok := tb.Lookup(sig)
	if !ok || s.Count != 2 || s.Total != 4*time.Millisecond {
		t.Errorf("lookup = %+v, %v", s, ok)
	}
	if _, ok := tb.Lookup(Sig{Name: "missing"}); ok {
		t.Error("lookup of missing key succeeded")
	}
	if tb.Len() != 1 {
		t.Errorf("len = %d", tb.Len())
	}
}

func TestTableDistinguishesAttributes(t *testing.T) {
	tb := NewTable(64)
	tb.Update(Sig{Name: "MPI_Send", Bytes: 8}, obs(time.Millisecond))
	tb.Update(Sig{Name: "MPI_Send", Bytes: 16}, obs(time.Millisecond))
	tb.Update(Sig{Name: "MPI_Send", Bytes: 8, Region: "solver"}, obs(time.Millisecond))
	if tb.Len() != 3 {
		t.Errorf("len = %d, want 3 distinct signatures", tb.Len())
	}
}

func TestTableOverflowSpills(t *testing.T) {
	tb := NewTable(8) // 8 slots, 7 usable
	for i := 0; i < 20; i++ {
		tb.Update(Sig{Name: fmt.Sprintf("f%d", i)}, obs(time.Millisecond))
	}
	if tb.Len() != 20 {
		t.Errorf("len = %d, want 20", tb.Len())
	}
	if tb.Overflowed() == 0 {
		t.Error("expected overflow")
	}
	// All keys still retrievable and updatable.
	for i := 0; i < 20; i++ {
		sig := Sig{Name: fmt.Sprintf("f%d", i)}
		tb.Update(sig, obs(time.Millisecond))
		s, ok := tb.Lookup(sig)
		if !ok || s.Count != 2 {
			t.Fatalf("key f%d lost after overflow: %+v %v", i, s, ok)
		}
	}
}

func TestTableEntriesSorted(t *testing.T) {
	tb := NewTable(64)
	tb.Update(Sig{Name: "small"}, obs(time.Millisecond))
	tb.Update(Sig{Name: "big"}, obs(time.Second))
	tb.Update(Sig{Name: "mid"}, obs(time.Millisecond*500))
	es := tb.Entries()
	if len(es) != 3 || es[0].Sig.Name != "big" || es[2].Sig.Name != "small" {
		t.Errorf("entries order: %v", es)
	}
}

func TestTableLookupAdvancesProbes(t *testing.T) {
	tb := NewTable(64)
	sig := Sig{Name: "cudaLaunch"}
	tb.Update(sig, obs(time.Millisecond))
	before := tb.Probes()
	tb.Lookup(sig)
	if tb.Probes() <= before {
		t.Error("Lookup did not advance the probe counter")
	}
	before = tb.Probes()
	tb.Lookup(Sig{Name: "absent"})
	if tb.Probes() <= before {
		t.Error("missed Lookup did not advance the probe counter")
	}
}

func TestTableLoadFactor(t *testing.T) {
	tb := NewTable(64)
	if lf := tb.LoadFactor(); lf != 0 {
		t.Errorf("empty load factor = %v", lf)
	}
	for i := 0; i < 32; i++ {
		tb.Update(Sig{Name: fmt.Sprintf("f%d", i)}, obs(time.Millisecond))
	}
	if lf := tb.LoadFactor(); lf != 0.5 {
		t.Errorf("load factor = %v, want 0.5", lf)
	}
}

func TestTableOverflowEntriesOrdering(t *testing.T) {
	tb := NewTable(8) // 8 slots, 7 usable, the rest spills
	const n = 24
	for i := 0; i < n; i++ {
		// Distinct totals so the expected order is exact: f0 largest.
		tb.Update(Sig{Name: fmt.Sprintf("f%02d", i)}, obs(time.Duration(n-i)*time.Millisecond))
	}
	if tb.Overflowed() != n-7 {
		t.Fatalf("overflowed = %d, want %d", tb.Overflowed(), n-7)
	}
	es := tb.Entries()
	if len(es) != n {
		t.Fatalf("entries = %d, want %d", len(es), n)
	}
	for i, e := range es {
		if want := fmt.Sprintf("f%02d", i); e.Sig.Name != want {
			t.Fatalf("entries[%d] = %s, want %s (fixed and spill regions must interleave by total)", i, e.Sig.Name, want)
		}
		if i > 0 && es[i-1].Stats.Total < e.Stats.Total {
			t.Fatalf("entries not sorted by descending total at %d", i)
		}
	}
	// Spilled keys stay fully readable and updatable through Lookup.
	for i := 7; i < n; i++ {
		sig := Sig{Name: fmt.Sprintf("f%02d", i)}
		if s, ok := tb.Lookup(sig); !ok || s.Count != 1 {
			t.Fatalf("overflow lookup %s = %+v, %v", sig.Name, s, ok)
		}
	}
}

// TestHashSigDistribution bounds the worst probe chain at 50% load: with a
// well-mixed hash over realistic signatures (wrapper names, page-aligned
// byte counts), open addressing with linear probing must not develop long
// clusters. The bound of 50 is generous — expected max chain at this load
// is O(log n) — so a failure means the hash lost its avalanche.
func TestHashSigDistribution(t *testing.T) {
	names := []string{
		"cudaMemcpy(D2H)", "cudaMemcpy(H2D)", "cudaLaunch", "MPI_Allreduce",
		"MPI_Send", "cublasDgemm", "cublasSetMatrix", "fwrite",
		"@CUDA_EXEC_STRM00", "cufftExecZ2Z",
	}
	regions := []string{"", "solver", "io-phase"}
	tb := NewTable(4096)
	inserted := 0
	worst := uint64(0)
	for i := 0; inserted < 2048; i++ {
		sig := Sig{
			Name:   names[i%len(names)],
			Bytes:  int64(i/len(names)) * 4096, // page-aligned, low bits zero
			Region: regions[i%len(regions)],
		}
		before := tb.Probes()
		tb.Update(sig, obs(time.Microsecond))
		if chain := tb.Probes() - before; chain > worst {
			worst = chain
		}
		inserted = tb.Len()
	}
	if tb.Overflowed() != 0 {
		t.Fatalf("table overflowed at 50%% load: %d", tb.Overflowed())
	}
	if worst > 50 {
		t.Errorf("max probe chain %d at 50%% load exceeds bound 50", worst)
	}
}

// TestObserveRefMatchesStringPath checks the zero-rehash fast path is
// bit-identical to the string path: same entries, same hashes (hence the
// same probe behaviour), for any mix of names, bytes and regions.
func TestObserveRefMatchesStringPath(t *testing.T) {
	clock := func() time.Duration { return 0 }
	a := NewMonitor(0, "h", "c", clock, 64)
	b := NewMonitor(0, "h", "c", clock, 64)
	names := []string{"cudaMemcpy(D2H)", "MPI_Send", "@CUDA_EXEC_STRM00"}
	refs := make([]SigRef, len(names))
	for i, n := range names {
		refs[i] = NewSigRef(n)
	}
	regionOps := []string{"", "solver", "", "fft", ""}
	for r, region := range regionOps {
		if region != "" {
			a.EnterRegion(region)
			b.EnterRegion(region)
		}
		for i := range names {
			bytes := int64(r*1000 + i*4096)
			a.Observe(names[i], bytes, time.Microsecond)
			b.ObserveRef(refs[i], bytes, time.Microsecond)
		}
		if region != "" {
			a.ExitRegion()
			b.ExitRegion()
		}
	}
	ea, eb := a.Table().Entries(), b.Table().Entries()
	if len(ea) != len(eb) {
		t.Fatalf("entry counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
	if a.Table().Probes() != b.Table().Probes() {
		t.Errorf("probe counts differ (%d vs %d): fast path hashed differently",
			a.Table().Probes(), b.Table().Probes())
	}
}

func TestSigRefAccessors(t *testing.T) {
	r := NewSigRef("cudaLaunch")
	if r.Name() != "cudaLaunch" {
		t.Errorf("name = %q", r.Name())
	}
	if r.Hash() != hashString("cudaLaunch") {
		t.Error("hash not memoized FNV of name")
	}
}

func TestTableCapacityRounding(t *testing.T) {
	tb := NewTable(100)
	if len(tb.slots) != 128 {
		t.Errorf("capacity = %d, want 128", len(tb.slots))
	}
	if NewTable(0).Len() != 0 {
		t.Error("default table not empty")
	}
}

// fixedTable is the inline-entry layout Table replaced, kept as the
// differential oracle: every slot holds its signature and statistics, so
// a table costs a full entry per slot whether used or not. Table must
// agree with it on every observable, probe count included.
type fixedTable struct {
	mask     uint64
	entries  []fixedEntry
	used     int
	overflow map[Sig]*Stats
	probes   uint64
}

type fixedEntry struct {
	inUse bool
	sig   Sig
	stats Stats
}

func newFixedTable(capacity int) *fixedTable {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &fixedTable{mask: uint64(n - 1), entries: make([]fixedEntry, n)}
}

func (t *fixedTable) UpdateHashed(h uint64, sig Sig, d Stats) {
	idx := h & t.mask
	for i := uint64(0); i <= t.mask; i++ {
		e := &t.entries[(idx+i)&t.mask]
		t.probes++
		if e.inUse {
			if e.sig == sig {
				e.stats.Merge(d)
				return
			}
			continue
		}
		if t.used < len(t.entries)-1 {
			*e = fixedEntry{true, sig, d}
			t.used++
			return
		}
		break
	}
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

func (t *fixedTable) Lookup(sig Sig) (Stats, bool) {
	idx := hashSig(sig) & t.mask
	for i := uint64(0); i <= t.mask; i++ {
		e := &t.entries[(idx+i)&t.mask]
		t.probes++
		if !e.inUse {
			break
		}
		if e.sig == sig {
			return e.stats, true
		}
	}
	if s, ok := t.overflow[sig]; ok {
		return *s, true
	}
	return Stats{}, false
}

func (t *fixedTable) Len() int            { return t.used + len(t.overflow) }
func (t *fixedTable) LoadFactor() float64 { return float64(t.used) / float64(len(t.entries)) }

func (t *fixedTable) Entries() []Entry {
	var out entrySlice
	for _, e := range t.entries {
		if e.inUse {
			out = append(out, Entry{e.sig, e.stats})
		}
	}
	for sig, s := range t.overflow {
		out = append(out, Entry{sig, *s})
	}
	sort.Sort(out)
	return out
}

// TestTableMatchesFixedLayout drives the slot-index table and the
// inline-entry oracle with the same seeded operation streams and checks
// that every observable agrees after every operation — including tiny
// capacities that spill to the overflow map, where probe counts are
// most sensitive to the probe sequence.
func TestTableMatchesFixedLayout(t *testing.T) {
	names := []string{"MPI_Send", "cudaLaunch", "cudaMemcpy(D2H)", "@CUDA_EXEC_STRM00", "fwrite"}
	regions := []string{"", "solver", "io"}
	for _, capacity := range []int{8, 16, 64, 1024} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			got, want := NewTable(capacity), newFixedTable(capacity)
			// Twice the capacity in distinct signatures, so the small
			// tables fill, spill, and keep hitting both regions.
			sigs := make([]Sig, 2*capacity)
			for i := range sigs {
				sigs[i] = Sig{
					Name:   names[rng.Intn(len(names))],
					Bytes:  int64(i) * 8,
					Region: regions[rng.Intn(len(regions))],
				}
			}
			for op := 0; op < 400; op++ {
				sig := sigs[rng.Intn(len(sigs))]
				d := obs(time.Duration(1+rng.Intn(1000)) * time.Microsecond)
				switch rng.Intn(3) {
				case 0:
					got.Update(sig, d)
					want.UpdateHashed(hashSig(sig), sig, d)
				case 1:
					h := hashSig(sig)
					got.UpdateHashed(h, sig, d)
					want.UpdateHashed(h, sig, d)
				case 2:
					gs, gok := got.Lookup(sig)
					ws, wok := want.Lookup(sig)
					if gs != ws || gok != wok {
						t.Fatalf("cap %d seed %d op %d: Lookup(%v) = %+v,%v, oracle %+v,%v",
							capacity, seed, op, sig, gs, gok, ws, wok)
					}
				}
				if got.Probes() != want.probes || got.LoadFactor() != want.LoadFactor() ||
					got.Overflowed() != len(want.overflow) || got.Len() != want.Len() {
					t.Fatalf("cap %d seed %d op %d: probes/load/overflow/len = %d/%v/%d/%d, oracle %d/%v/%d/%d",
						capacity, seed, op, got.Probes(), got.LoadFactor(), got.Overflowed(), got.Len(),
						want.probes, want.LoadFactor(), len(want.overflow), want.Len())
				}
				ge, we := got.Entries(), want.Entries()
				if len(ge) != len(we) {
					t.Fatalf("cap %d seed %d op %d: %d entries, oracle %d", capacity, seed, op, len(ge), len(we))
				}
				for i := range ge {
					if ge[i] != we[i] {
						t.Fatalf("cap %d seed %d op %d: entry %d = %+v, oracle %+v", capacity, seed, op, i, ge[i], we[i])
					}
				}
			}
		}
	}
}

// TestMonitorFootprint pins the monitor's own memory: a default-capacity
// monitor that records 64 distinct signatures costs the 4-byte slot
// index plus the entries it holds, not a full entry per slot (≈917 KB
// at DefaultTableSize).
func TestMonitorFootprint(t *testing.T) {
	clock := func() time.Duration { return 0 }
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := NewMonitor(0, "h", "c", clock, 0)
			for k := 0; k < 64; k++ {
				m.Observe("MPI_Send", int64(k)*8, time.Microsecond)
			}
		}
	})
	if kb := res.AllocedBytesPerOp() / 1024; kb > 48 {
		t.Errorf("NewMonitor + 64 signatures allocates %d KB, want <= 48 KB", kb)
	}
}

// Property: updating signature-by-signature matches a reference map, for
// any update sequence (including heavy collisions in a tiny table).
func TestPropTableMatchesMap(t *testing.T) {
	prop := func(names []uint8, durs []uint16) bool {
		n := len(names)
		if len(durs) < n {
			n = len(durs)
		}
		tb := NewTable(16)
		ref := make(map[Sig]*Stats)
		for i := 0; i < n; i++ {
			sig := Sig{Name: fmt.Sprintf("f%d", names[i]%40), Bytes: int64(names[i] % 3)}
			d := time.Duration(durs[i]) * time.Microsecond
			tb.Update(sig, obs(d))
			if s, ok := ref[sig]; ok {
				s.Add(d)
			} else {
				c := obs(d)
				ref[sig] = &c
			}
		}
		if tb.Len() != len(ref) {
			return false
		}
		for sig, want := range ref {
			got, ok := tb.Lookup(sig)
			if !ok || got != *want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: merge is order-insensitive for totals/min/max/count.
func TestPropMergeCommutative(t *testing.T) {
	prop := func(a, b []uint16) bool {
		mk := func(ds []uint16) Stats {
			var s Stats
			for _, d := range ds {
				s.Add(time.Duration(d) * time.Microsecond)
			}
			return s
		}
		x, y := mk(a), mk(b)
		xy, yx := x, y
		xy.Merge(y)
		yx.Merge(x)
		return xy == yx
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// The benchmarks below run an op that alloc_test.go pins at zero
// allocations; each op is built warm, with every signature it cycles
// over already resident.

// A namedOp is one variant of a benchmark: its b.Run name and its op.
type namedOp struct {
	name string
	op   func()
}

// tableUpdateHitOp updates one resident signature.
func tableUpdateHitOp() func() {
	tb := NewTable(DefaultTableSize)
	sig := Sig{Name: "cudaLaunch"}
	o := obs(time.Microsecond)
	tb.Update(sig, o)
	return func() { tb.Update(sig, o) }
}

// manyKeys returns 512 MPI_Send signatures that differ in size only.
func manyKeys() []Sig {
	sigs := make([]Sig, 512)
	for i := range sigs {
		sigs[i] = Sig{Name: "MPI_Send", Bytes: int64(i * 8)}
	}
	return sigs
}

// tableUpdateManyKeysOp updates the 512 manyKeys signatures in turn.
func tableUpdateManyKeysOp() func() {
	tb := NewTable(DefaultTableSize)
	sigs := manyKeys()
	o := obs(time.Microsecond)
	i := 0
	return warm(func() {
		tb.Update(sigs[i&511], o)
		i++
	})
}

// mapUpdateManyKeysOp is the ablation baseline: the same update pattern
// over a plain Go map in place of the fixed open-addressing table.
func mapUpdateManyKeysOp() func() {
	m := make(map[Sig]*Stats)
	sigs := manyKeys()
	i := 0
	return warm(func() {
		sig := sigs[i&511]
		if s, ok := m[sig]; ok {
			s.Add(time.Microsecond)
		} else {
			c := obs(time.Microsecond)
			m[sig] = &c
		}
		i++
	})
}

// warm runs a manyKeys op once per signature, so every one is resident,
// and returns it.
func warm(op func()) func() {
	for range 512 {
		op()
	}
	return op
}

// observeHotOps are BenchmarkObserveHot's variants, each recording one
// event on its own monitor.
func observeHotOps() []namedOp {
	clock := func() time.Duration { return 0 }
	monitor := func() *Monitor { return NewMonitor(0, "host", "bench", clock, 1024) }
	ref := NewSigRef("cudaMemcpy(D2H)")
	str, sigref := monitor(), monitor()
	ops := []namedOp{
		{"string-sig", func() { str.Observe("cudaMemcpy(D2H)", 1<<20, time.Microsecond) }},
		{"sigref", func() { sigref.ObserveRef(ref, 1<<20, time.Microsecond) }},
	}
	// Per-backend energy attribution: the same hot path with each
	// registered device backend's copy-engine wattage priced into the
	// observation. The energy fold must stay allocation-free too.
	for _, d := range devmodel.List() {
		m := monitor()
		nj := devmodel.EnergyNJ(d.Power.CopyWatts, time.Microsecond)
		st := Stats{Count: 1, Total: time.Microsecond, Min: time.Microsecond, Max: time.Microsecond, Energy: nj}
		ops = append(ops, namedOp{"energy-" + d.Name, func() { m.ObserveNRef(ref, 1<<20, st) }})
	}
	return ops
}

func BenchmarkTableUpdateHit(b *testing.B) { alloctest.Bench(b, tableUpdateHitOp()) }

func BenchmarkTableUpdateManyKeys(b *testing.B) { alloctest.Bench(b, tableUpdateManyKeysOp()) }

// BenchmarkMapUpdateManyKeys is the ablation baseline for
// BenchmarkTableUpdateManyKeys.
func BenchmarkMapUpdateManyKeys(b *testing.B) { alloctest.Bench(b, mapUpdateManyKeysOp()) }

// BenchmarkObserveHot compares the per-event recording cost of the
// string-signature path (rehashes the name on every event) against the
// SigRef fast path (name hashed once at wrapper-construction time).
func BenchmarkObserveHot(b *testing.B) {
	for _, c := range observeHotOps() {
		b.Run(c.name, func(b *testing.B) { alloctest.Bench(b, c.op) })
	}
}
