package profstore

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
)

// The differential tests of the accumulators: a Memo driven through
// ingests, replacements, change-log overflows and new store generations
// answers every read exactly as the oracle walk over Select does.

// zeroCountDoc has a call site whose only row counts no calls
// (cudaEventRecord carrying queue submissions only) and a count-0
// kernel: both names are in the report while such a row is, whatever
// their Count.
const zeroCountDoc = `<?xml version="1.0" encoding="UTF-8"?>
<ipm_log version="2.0" command="./events" ntasks="2" nhosts="1" wallclock="1.0">
  <task mpi_rank="0" host="n1" wallclock="1.0">
    <region name="ipm_global">
      <func name="cudaEventRecord" bytes="0" count="0" ttot="0" tmin="0" tmax="0" submit_count="52" submit_stall="0.0001547"></func>
      <func name="cudaLaunch" bytes="0" count="4" ttot="0.01" tmin="0.002" tmax="0.003"></func>
      <func name="@CUDA_EXEC_STRM00:idle" bytes="0" count="0" ttot="0" tmin="0" tmax="0"></func>
    </region>
  </task>
  <task mpi_rank="1" host="n1" wallclock="0.5">
    <region name="ipm_global">
      <func name="cudaLaunch" bytes="0" count="2" ttot="0.04" tmin="0.02" tmax="0.02"></func>
    </region>
  </task>
</ipm_log>
`

// genCorpus is a Corpus whose store can be replaced by a new generation
// holding the same jobs, as a restart on the WAL replaces it, while the
// Memo over it lives on.
type genCorpus struct{ s *Store }

func (g *genCorpus) Epoch() uint64                     { return g.s.Epoch() }
func (g *genCorpus) Select(sel string) []*Job          { return g.s.Select(sel) }
func (g *genCorpus) Since(ver uint64) ([]string, bool) { return g.s.Since(ver) }

// memoAggQueries and memoRegressQueries are the reads checked after every
// read op: several selectors, top= values and comparisons, one of each
// on a single id.
var (
	memoAggQueries = []AggOptions{
		{}, {TopN: 1}, {TopN: 3}, {Sel: "tag:t0"}, {Sel: "tag:t1", TopN: 2},
		{Sel: "cmd:./relax"}, {Sel: "id1"},
	}
	memoRegressQueries = []RegressOptions{
		{Base: "tag:t0", Head: "tag:t1"}, {Base: "tag:t1", Head: "", Threshold: 5},
		{Base: "id0", Head: "tag:t0"}, {Base: "tag:t0", Head: "tag:t0"},
	}
)

// checkMemoOracle compares every memo query over c with the oracle walk
// over c.Select. Equal reports encode to equal JSON; on a difference
// the failure shows both encodings.
func checkMemoOracle(t *testing.T, m *Memo, c Corpus, when string) {
	t.Helper()
	for _, q := range memoAggQueries {
		want := q
		if want.TopN <= 0 {
			want.TopN = 10
		}
		if got, w := m.Aggregate(c, q), aggregateJobs(c.Select(q.Sel), want); !sameReport(got, w) {
			t.Fatalf("%s: /agg %+v differs from the oracle\ngot:  %s\nwant: %s", when, q, reportJSON(t, got), reportJSON(t, w))
		}
	}
	for _, q := range memoRegressQueries {
		want := q
		if want.Threshold <= 0 {
			want.Threshold = 10
		}
		if got, w := m.Regress(c, q), regressFrom(c.Select(q.Base), c.Select(q.Head), want); !sameReport(got, w) {
			t.Fatalf("%s: /regress %+v differs from the oracle\ngot:  %s\nwant: %s", when, q, reportJSON(t, got), reportJSON(t, w))
		}
	}
}

// sameReport compares a memo report with the oracle's, field for field,
// leaving out the memo's once-encoded body holder.
func sameReport[R AggReport | RegressReport](got, want *R) bool {
	g := *got
	switch r := any(&g).(type) {
	case *AggReport:
		r.body = nil
	case *RegressReport:
		r.body = nil
	}
	return reflect.DeepEqual(&g, want)
}

// memoScript drives a Memo through the ops script encodes, over ids
// id0..id3, tags t0/t1 and docs, checking it against the oracle after
// every read and at the end. Per op byte b:
//
//	b%8 < 4   ingest docs[b>>5 % len] as id(b>>3 & 3), tag t(b>>2 & 1):
//	          a fresh job, or a replacement that may move it between
//	          tags, change its energy or imbalance, or tie another's
//	b%8 == 4  read
//	b%8 == 5  read, or — when b is 5 — 300 writes of the small count-0
//	          document first, more than the change log holds
//	b%8 == 6  a new store generation over the same jobs, then a read
//	b%8 == 7  replace the job holding the worst imbalance of a site
//	          with a doc that does not hold it, then a read
func memoScript(t *testing.T, docs [][]byte, script []byte) (m *Memo) {
	t.Helper()
	type write struct {
		doc int
		tag string
	}
	model := map[string]write{}
	c := &genCorpus{New()}
	m = new(Memo)
	ingest := func(id string, w write) {
		if _, err := c.s.Ingest(docs[w.doc], id, []string{w.tag}); err != nil {
			t.Fatalf("ingest %s: %v", id, err)
		}
		model[id] = w
	}
	for i, b := range script {
		id := fmt.Sprintf("id%d", b>>3&3)
		when := fmt.Sprintf("op %d (%#02x)", i, b)
		switch b % 8 {
		case 0, 1, 2, 3:
			ingest(id, write{int(b>>5) % len(docs), fmt.Sprintf("t%d", b>>2&1)})
			continue
		case 5:
			if b == 5 {
				for k := 0; k < 300; k++ {
					ingest(fmt.Sprintf("id%d", k%5), write{zeroCountIdx, fmt.Sprintf("t%d", k/5%2)})
				}
			}
		case 6:
			next := New()
			for id, w := range model {
				if _, err := next.Ingest(docs[w.doc], id, []string{w.tag}); err != nil {
					t.Fatal(err)
				}
			}
			c.s = next
		case 7:
			rep := aggregateJobs(c.Select(""), AggOptions{TopN: 10})
			if len(rep.Imbalance) > 0 {
				worst := rep.Imbalance[0].WorstJob
				w := model[worst]
				w.doc = (w.doc + 1) % len(docs)
				ingest(worst, w)
			}
		}
		checkMemoOracle(t, m, c, when)
	}
	checkMemoOracle(t, m, c, "end of script")
	return m
}

// zeroCountIdx is zeroCountDoc's index in memoDocs.
const zeroCountIdx = 3

// memoDocs is the differential corpus: two synthetic profiles, the
// energy fixture, the count-0 document and extra.
func memoDocs(t *testing.T, extra ...[]byte) [][]byte {
	docs := [][]byte{fixedSyntheticXML(t, 3), fixedSyntheticXML(t, 5), fixture(t, "energy.xml"), []byte(zeroCountDoc)}
	return append(docs, extra...)
}

// scriptOf derives a deterministic op script from data.
func scriptOf(data []byte, n int) []byte {
	h := fnv.New64a()
	h.Write(data)
	x := h.Sum64()
	out := make([]byte, n)
	for i := range out {
		x = splitmix64(x)
		out[i] = byte(x)
	}
	return out
}

// TestMemoMatchesOracle runs seeded scripts through the memo: every read
// equals the oracle, and the scripts moved accumulators both by deltas
// and by rebuilds.
func TestMemoMatchesOracle(t *testing.T) {
	docs := memoDocs(t)
	var deltas, fulls int64
	for seed := 0; seed < 24; seed++ {
		m := memoScript(t, docs, scriptOf([]byte{byte(seed)}, 48))
		_, d, f := m.Stats()
		deltas += d
		fulls += f
	}
	if deltas == 0 || fulls == 0 {
		t.Errorf("scripts moved accumulators by %d deltas and %d rebuilds, want both", deltas, fulls)
	}
	// The two branches a corpus change can take are both exercised on
	// purpose: an overflow and a generation.
	for _, script := range [][]byte{{0x00, 0x04, 0x08, 0x04, 0x05, 0x04}, {0x00, 0x09, 0x04, 0x06, 0x12, 0x04, 0x07}} {
		memoScript(t, docs, script)
	}
}

// TestMemoWorstImbalanceLeaves: replacing the job that holds a site's
// worst imbalance — with a tie left behind, or none — recomputes that
// site over the remaining members.
func TestMemoWorstImbalanceLeaves(t *testing.T) {
	docs := memoDocs(t)
	c := &genCorpus{New()}
	var m Memo
	// id0..id2 hold the same document: every site's worst is a tie on
	// max/avg, won by the lowest id.
	for i := 0; i < 3; i++ {
		if _, err := c.s.Ingest(docs[zeroCountIdx], fmt.Sprintf("id%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	checkMemoOracle(t, &m, c, "three tied jobs")
	for _, step := range []struct {
		id  string
		doc int
	}{{"id0", 0}, {"id1", 1}, {"id2", 0}, {"id0", zeroCountIdx}, {"id2", zeroCountIdx}} {
		if _, err := c.s.Ingest(docs[step.doc], step.id, nil); err != nil {
			t.Fatal(err)
		}
		checkMemoOracle(t, &m, c, fmt.Sprintf("%s replaced by doc %d", step.id, step.doc))
	}
	if _, d, _ := m.Stats(); d == 0 {
		t.Error("no read moved an accumulator by a delta")
	}
}

// fuzzMemoScript is FuzzRollupWire's memo leg: the fuzz document joins
// the differential corpus, and an op script derived from it drives the
// memo.
func fuzzMemoScript(t *testing.T, doc []byte) {
	memoScript(t, memoDocs(t, doc), scriptOf(doc, 32))
}
