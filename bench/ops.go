package main

import "fmt"

// The store workloads draw their operations from a stream that is a pure
// function of (seed, mix, client, index): the generator keeps no state,
// so a client that gets further in its time box sees a longer prefix of
// the same stream, never a different one.

type opKind uint8

const (
	opIngest  opKind = iota // POST /ingest of a rendered document
	opProbe                 // publish probe: WriteXML, POST, GET /agg?sel=<id> until it reflects the document
	opAggAll                // GET /agg
	opAggTop                // GET /agg?top=10
	opAggSel                // GET /agg?sel=tag:batch:K
	opRegress               // GET /regress?base=tag:batch:0&head=tag:batch:1&threshold=5
)

var (
	opClasses   = [...]string{"ingest", "probe", "agg", "agg", "agg", "regress"}
	opSpanNames = [...]string{"op:ingest", "op:probe", "op:agg", "op:agg", "op:agg", "op:regress"}
)

// class is the latency class an op's round trip is reported under.
func (k opKind) class() string { return opClasses[k] }

// spanName names the op's root span.
func (k opKind) spanName() string { return opSpanNames[k] }

type mixKind uint8

const (
	// mixWrite: 95 % writes to fresh ids (about one in twenty of them a
	// publish probe), 5 % GET /agg. Every read follows an ingest, so it
	// misses the memo.
	mixWrite mixKind = iota
	// mixRead: 5 % publish probes that replace a preloaded job, so the
	// corpus keeps its size; 95 % reads, of which 80 % /agg?top=10,
	// 10 % /agg?sel=tag:batch:K and 10 % /regress.
	mixRead
	// mixPublish: nothing but the replacing publish probes of mixRead.
	mixPublish
)

const batchTags = 7 // jobs carry tag batch:(index mod 7)

// op is one client operation.
type op struct {
	Kind opKind
	ID   string // job id written (writes) — fresh in mixWrite, a preloaded id in mixRead
	Doc  int    // pool index of the document written
	Tag  int    // batch tag of the job written, or K of opAggSel
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func preloadID(i int) string { return fmt.Sprintf("job-%05d", i) }

// opAt returns operation i of one client's stream. corpus is the number
// of preloaded jobs (ids preloadID(0..corpus-1), documents pool[0..corpus-1])
// and pool the number of rendered documents; writes draw their document
// from the part of the pool the preload did not use.
func opAt(seed uint64, mix mixKind, client, nclients, i, corpus, pool int) op {
	h := splitmix64(seed ^ splitmix64(uint64(mix)<<56^uint64(client)<<40^uint64(i)))
	r := int(h % 100)
	h = splitmix64(h)
	doc := corpus + int(h%uint64(pool-corpus))
	h = splitmix64(h)
	switch mix {
	case mixWrite:
		o := op{Kind: opIngest, ID: fmt.Sprintf("bench-%d-%d", client, i), Doc: doc, Tag: i % batchTags}
		switch {
		case r < 5:
			return op{Kind: opAggAll}
		case r < 10:
			o.Kind = opProbe
		}
		return o
	default:
		if r < 5 || mix == mixPublish {
			// Each client replaces only ids congruent to its own index,
			// so the last write to an id is unambiguous.
			j := client + nclients*int(h%uint64(corpus/nclients))
			return op{Kind: opProbe, ID: preloadID(j), Doc: doc, Tag: j % batchTags}
		}
		switch q := int(h % 10); {
		case q < 8:
			return op{Kind: opAggTop}
		case q == 8:
			return op{Kind: opAggSel, Tag: int(splitmix64(h) % batchTags)}
		default:
			return op{Kind: opRegress}
		}
	}
}

// path is the request path of a read op.
func (o op) path() string {
	switch o.Kind {
	case opAggAll:
		return "/agg"
	case opAggTop:
		return "/agg?top=10"
	case opAggSel:
		return fmt.Sprintf("/agg?sel=tag:batch:%d", o.Tag)
	case opRegress:
		return "/regress?base=tag:batch:0&head=tag:batch:1&threshold=5"
	}
	return ""
}
