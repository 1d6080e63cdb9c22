package mpisim

import (
	"fmt"
	"time"

	"ipmgo/internal/des"
)

// collKey identifies one matching collective instance: all ranks' n-th
// call of a given collective kind meet in the same instance, mirroring
// MPI's ordered-collective matching rule.
type collKey struct {
	kind string
	seq  int
}

// collState is the rendezvous for one collective instance.
type collState struct {
	arrived  int
	maxT     time.Duration
	contribs [][]byte
	root     int
	op       Op
	result   []byte
	done     []des.Signal // per-rank completion
	err      error
}

// enterColl registers the calling rank's contribution and blocks until the
// collective completes for this rank. finish computes, once all ranks have
// arrived, the result buffer and the per-rank completion offsets relative
// to the arrival of the last rank.
func (c *comm) enterColl(kind string, contrib []byte, root int, op Op,
	finish func(st *collState) []time.Duration) (*collState, error) {

	w := c.w
	// A broken communicator fails collectives immediately: survivors must
	// not rendezvous with ranks that can never arrive.
	if err := w.failedErr(); err != nil {
		return nil, err
	}
	seq := c.seq[kind]
	c.seq[kind] = seq + 1
	key := collKey{kind, seq}
	st, ok := w.colls[key]
	if !ok {
		st = &collState{
			contribs: make([][]byte, w.size),
			root:     root,
			op:       op,
			done:     make([]des.Signal, w.size),
		}
		for i := range st.done {
			w.eng.InitSignal(&st.done[i], kind)
		}
		w.colls[key] = st
	}
	if st.root != root {
		st.err = fmt.Errorf("mpisim: %s root mismatch: %d vs %d", kind, st.root, root)
	}
	st.contribs[c.rank] = contrib
	st.arrived++
	if now := c.proc.Now(); now > st.maxT {
		st.maxT = now
	}
	if st.arrived == w.size {
		delete(w.colls, key)
		offsets := finish(st)
		for i, off := range offsets {
			st.done[i].FireAt(st.maxT + off)
		}
	}
	c.proc.Wait(&st.done[c.rank])
	return st, st.err
}

// uniform returns the same completion offset for every rank.
func (w *World) uniform(d time.Duration) []time.Duration {
	out := make([]time.Duration, w.size)
	for i := range out {
		out[i] = d
	}
	return out
}

// spansNodes reports whether the job crosses node boundaries, selecting
// the network vs shared-memory cost parameters for collectives.
func (w *World) spansNodes() bool { return w.Nodes() > 1 }

func (w *World) hop(n int64) time.Duration {
	return w.net.PointToPoint(n, !w.spansNodes())
}

// reduceCompute models the local arithmetic of combining p vectors of n
// bytes down a tree (log2 p stages at ~4 GB/s).
func reduceCompute(n int64, p int) time.Duration {
	sec := float64(n) * float64(log2ceil(p)) / 4e9
	return time.Duration(sec * float64(time.Second))
}

// Barrier blocks until all ranks arrive (dissemination algorithm:
// ceil(log2 p) latency-bound rounds).
func (c *comm) Barrier() error {
	w := c.w
	cost := time.Duration(log2ceil(w.size)) * w.hop(0)
	_, err := c.enterColl("barrier", nil, 0, nil, func(st *collState) []time.Duration {
		return w.uniform(cost)
	})
	return err
}

// Bcast broadcasts root's buffer to all ranks (binomial tree). The copy
// happens in place when the last rank arrives: every rank is parked in
// the collective then, so root's buffer goes straight into each
// non-root's with no intermediate clone. A non-root buffer that starts
// where root's does is root's own bytes and is not written at all, so
// ranks may share one read-only buffer. A failed collective (root
// mismatch) copies nothing.
func (c *comm) Bcast(data []byte, root int) error {
	if err := c.checkRank(root, false); err != nil {
		return err
	}
	w := c.w
	_, err := c.enterColl("bcast", data, root, nil, func(st *collState) []time.Duration {
		src := st.contribs[st.root]
		if st.err == nil {
			for i, dst := range st.contribs {
				if i != st.root && !sameStart(dst, src) {
					copy(dst, src)
				}
			}
		}
		return w.uniform(time.Duration(log2ceil(w.size)) * w.hop(int64(len(src))))
	})
	return err
}

// sameStart reports whether a and b begin at the same byte, so copying
// one onto the other is the identity.
func sameStart(a, b []byte) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// Reduce combines all ranks' send buffers with op into recv at root
// (binomial tree). recv may be nil on non-root ranks.
func (c *comm) Reduce(send, recv []byte, op Op, root int) error {
	if err := c.checkRank(root, false); err != nil {
		return err
	}
	w := c.w
	st, err := c.enterColl("reduce", send, root, op, func(st *collState) []time.Duration {
		reduceContribs(st)
		n := int64(len(send))
		cost := time.Duration(log2ceil(w.size))*w.hop(n) + reduceCompute(n, w.size)
		return w.uniform(cost)
	})
	if err != nil {
		return err
	}
	if c.rank == root {
		copy(recv, st.result)
	}
	return nil
}

// Allreduce combines all ranks' send buffers with op into every recv
// (recursive doubling).
func (c *comm) Allreduce(send, recv []byte, op Op) error {
	w := c.w
	st, err := c.enterColl("allreduce", send, 0, op, func(st *collState) []time.Duration {
		reduceContribs(st)
		n := int64(len(send))
		cost := time.Duration(log2ceil(w.size))*w.hop(n) + reduceCompute(n, w.size)
		return w.uniform(cost)
	})
	if err != nil {
		return err
	}
	copy(recv, st.result)
	return nil
}

func reduceContribs(st *collState) {
	st.result = append([]byte(nil), st.contribs[0]...)
	for i := 1; i < len(st.contribs); i++ {
		st.op.Reduce(st.result, st.contribs[i])
	}
}

// Gather concatenates all ranks' send buffers into recv at root, in rank
// order. The root drains p-1 incoming flows through one endpoint, so its
// cost grows super-linearly with the job size via the contention model —
// the behaviour behind the MPI_Gather blow-up in the paper's Fig. 10.
func (c *comm) Gather(send, recv []byte, root int) error {
	if err := c.checkRank(root, false); err != nil {
		return err
	}
	w := c.w
	st, err := c.enterColl("gather", send, root, nil, func(st *collState) []time.Duration {
		// The result is assembled lazily by the root from contribs, so a
		// gather whose root discards the data costs no assembly.
		n := int64(len(send))
		out := make([]time.Duration, w.size)
		flows := w.size - 1
		var rootCost time.Duration
		for i := 0; i < flows; i++ {
			rootCost += w.net.Contended(n, !w.spansNodes(), flows)
		}
		leaf := w.hop(n)
		for i := range out {
			if i == st.root {
				out[i] = rootCost
			} else {
				out[i] = leaf
			}
		}
		return out
	})
	if err != nil {
		return err
	}
	if c.rank == root && recv != nil {
		off := 0
		for _, b := range st.contribs {
			off += copy(recv[off:], b)
		}
	}
	return nil
}

// Allgather concatenates all ranks' send buffers into every recv (ring
// algorithm: p-1 steps of n bytes).
func (c *comm) Allgather(send, recv []byte) error {
	w := c.w
	st, err := c.enterColl("allgather", send, 0, nil, func(st *collState) []time.Duration {
		st.result = concat(st.contribs)
		n := int64(len(send))
		return w.uniform(time.Duration(w.size-1) * w.hop(n))
	})
	if err != nil {
		return err
	}
	copy(recv, st.result)
	return nil
}

// Scatter splits root's send buffer into size equal chunks and delivers
// chunk i to rank i's recv.
func (c *comm) Scatter(send, recv []byte, root int) error {
	if err := c.checkRank(root, false); err != nil {
		return err
	}
	w := c.w
	st, err := c.enterColl("scatter", send, root, nil, func(st *collState) []time.Duration {
		st.result = append([]byte(nil), st.contribs[st.root]...)
		chunk := int64(len(st.result) / w.size)
		out := make([]time.Duration, w.size)
		flows := w.size - 1
		var rootCost time.Duration
		for i := 0; i < flows; i++ {
			rootCost += w.net.Contended(chunk, !w.spansNodes(), flows)
		}
		leaf := w.hop(chunk)
		for i := range out {
			if i == st.root {
				out[i] = rootCost
			} else {
				out[i] = leaf
			}
		}
		return out
	})
	if err != nil {
		return err
	}
	chunk := len(st.result) / w.size
	copy(recv, st.result[c.rank*chunk:(c.rank+1)*chunk])
	return nil
}

// Alltoall sends chunk j of each rank i's send buffer to rank j; rank j
// receives the chunks in rank order (pairwise exchange with contention).
func (c *comm) Alltoall(send, recv []byte) error {
	w := c.w
	st, err := c.enterColl("alltoall", send, 0, nil, func(st *collState) []time.Duration {
		chunk := len(st.contribs[0]) / w.size
		result := make([]byte, w.size*w.size*chunk)
		for i, contrib := range st.contribs {
			for j := 0; j < w.size; j++ {
				copy(result[(j*w.size+i)*chunk:], contrib[j*chunk:(j+1)*chunk])
			}
		}
		st.result = result
		cost := time.Duration(w.size-1) * w.net.Contended(int64(chunk), !w.spansNodes(), w.size-1)
		return w.uniform(cost)
	})
	if err != nil {
		return err
	}
	per := len(st.result) / w.size
	copy(recv, st.result[c.rank*per:(c.rank+1)*per])
	return nil
}

func concat(bufs [][]byte) []byte {
	var n int
	for _, b := range bufs {
		n += len(b)
	}
	out := make([]byte, 0, n)
	for _, b := range bufs {
		out = append(out, b...)
	}
	return out
}
