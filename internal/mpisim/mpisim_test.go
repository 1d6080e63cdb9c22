package mpisim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"ipmgo/internal/des"
	"ipmgo/internal/perfmodel"
)

// runWorld spawns size ranks running fn and returns the final virtual time.
func runWorld(t *testing.T, size, ranksPerNode int, fn func(c Comm)) time.Duration {
	t.Helper()
	e := des.NewEngine()
	w, err := NewWorld(e, Config{Size: size, Net: perfmodel.QDRInfiniBand(), RanksPerNode: ranksPerNode})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < size; r++ {
		r := r
		e.Spawn(fmt.Sprintf("rank%d", r), func(p *des.Proc) {
			c, err := w.Attach(r, p)
			if err != nil {
				t.Error(err)
				return
			}
			fn(c)
		})
	}
	if err := e.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	return e.Now()
}

func TestSendRecvRoundTrip(t *testing.T) {
	runWorld(t, 2, 1, func(c Comm) {
		if c.Rank() == 0 {
			if err := c.Send([]byte("hello"), 1, 7); err != nil {
				t.Error(err)
			}
		} else {
			buf := make([]byte, 5)
			st, err := c.Recv(buf, 0, 7)
			if err != nil {
				t.Error(err)
			}
			if string(buf) != "hello" || st.Source != 0 || st.Tag != 7 || st.Count != 5 {
				t.Errorf("recv = %q status=%+v", buf, st)
			}
		}
	})
}

func TestMessageOrderingFIFO(t *testing.T) {
	runWorld(t, 2, 1, func(c Comm) {
		if c.Rank() == 0 {
			c.Send([]byte{1}, 1, 0)
			c.Send([]byte{2}, 1, 0)
		} else {
			buf := make([]byte, 1)
			c.Recv(buf, 0, 0)
			first := buf[0]
			c.Recv(buf, 0, 0)
			if first != 1 || buf[0] != 2 {
				t.Errorf("messages reordered: %d then %d", first, buf[0])
			}
		}
	})
}

func TestWildcardRecv(t *testing.T) {
	runWorld(t, 3, 1, func(c Comm) {
		switch c.Rank() {
		case 1:
			c.Send([]byte{42}, 0, 9)
		case 0:
			buf := make([]byte, 1)
			st, err := c.Recv(buf, AnySource, AnyTag)
			if err != nil {
				t.Error(err)
			}
			if st.Source != 1 || st.Tag != 9 || buf[0] != 42 {
				t.Errorf("wildcard recv status=%+v data=%v", st, buf)
			}
		}
	})
}

func TestIsendIrecvWaitall(t *testing.T) {
	runWorld(t, 2, 1, func(c Comm) {
		if c.Rank() == 0 {
			var reqs []*Request
			for i := 0; i < 4; i++ {
				r, err := c.Isend([]byte{byte(i)}, 1, i)
				if err != nil {
					t.Error(err)
				}
				reqs = append(reqs, r)
			}
			if err := c.Waitall(reqs); err != nil {
				t.Error(err)
			}
		} else {
			// Post receives in reverse tag order; matching is by tag.
			bufs := make([][]byte, 4)
			var reqs []*Request
			for i := 3; i >= 0; i-- {
				bufs[i] = make([]byte, 1)
				r, err := c.Irecv(bufs[i], 0, i)
				if err != nil {
					t.Error(err)
				}
				reqs = append(reqs, r)
			}
			if err := c.Waitall(reqs); err != nil {
				t.Error(err)
			}
			for i := 0; i < 4; i++ {
				if bufs[i][0] != byte(i) {
					t.Errorf("tag %d got %d", i, bufs[i][0])
				}
			}
		}
	})
}

func TestIsendBufferReuse(t *testing.T) {
	runWorld(t, 2, 1, func(c Comm) {
		if c.Rank() == 0 {
			buf := []byte{7}
			r, _ := c.Isend(buf, 1, 0)
			buf[0] = 99 // reuse immediately; message must carry 7
			c.Wait(r)
		} else {
			buf := make([]byte, 1)
			c.Recv(buf, 0, 0)
			if buf[0] != 7 {
				t.Errorf("Isend did not copy: got %d", buf[0])
			}
		}
	})
}

func TestTruncationError(t *testing.T) {
	runWorld(t, 2, 1, func(c Comm) {
		if c.Rank() == 0 {
			c.Send([]byte{1, 2, 3, 4}, 1, 0)
		} else {
			buf := make([]byte, 2)
			_, err := c.Recv(buf, 0, 0)
			if err == nil {
				t.Error("truncation not reported")
			}
		}
	})
}

func TestSendToSelf(t *testing.T) {
	runWorld(t, 1, 1, func(c Comm) {
		r, err := c.Isend([]byte{5}, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1)
		if _, err := c.Recv(buf, 0, 0); err != nil {
			t.Fatal(err)
		}
		c.Wait(r)
		if buf[0] != 5 {
			t.Errorf("self message = %d", buf[0])
		}
	})
}

func TestInvalidRanks(t *testing.T) {
	runWorld(t, 2, 1, func(c Comm) {
		if err := c.Send(nil, 5, 0); err == nil {
			t.Error("send to invalid rank accepted")
		}
		if _, err := c.Irecv(nil, 17, 0); err == nil {
			t.Error("recv from invalid rank accepted")
		}
		if err := c.Bcast(nil, -2); err == nil {
			t.Error("bcast with invalid root accepted")
		}
		if _, err := c.Wait(nil); err == nil {
			t.Error("wait on nil request accepted")
		}
		c.Barrier()
	})
}

func TestIntraNodeFasterThanInterNode(t *testing.T) {
	var intra, inter time.Duration
	// Two ranks on one node.
	intra = runWorld(t, 2, 2, func(c Comm) {
		if c.Rank() == 0 {
			c.Send(make([]byte, 1<<20), 1, 0)
		} else {
			buf := make([]byte, 1<<20)
			c.Recv(buf, 0, 0)
		}
	})
	// Two ranks on two nodes.
	inter = runWorld(t, 2, 1, func(c Comm) {
		if c.Rank() == 0 {
			c.Send(make([]byte, 1<<20), 1, 0)
		} else {
			buf := make([]byte, 1<<20)
			c.Recv(buf, 0, 0)
		}
	})
	if intra >= inter {
		t.Errorf("intra-node %v not faster than inter-node %v", intra, inter)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	var releases [4]time.Duration
	runWorld(t, 4, 1, func(c Comm) {
		// Stagger arrivals.
		c.Proc().Sleep(time.Duration(c.Rank()) * 10 * time.Millisecond)
		if err := c.Barrier(); err != nil {
			t.Error(err)
		}
		releases[c.Rank()] = c.Proc().Now()
	})
	for r, rel := range releases {
		if rel < 30*time.Millisecond {
			t.Errorf("rank %d released at %v, before last arrival", r, rel)
		}
	}
}

// TestBcast: with a root other than 0, every non-root's own buffer
// receives root's bytes — a shorter buffer its prefix, a longer one
// root's bytes followed by its own untouched tail.
func TestBcast(t *testing.T) {
	bufs := [][]byte{
		make([]byte, 3), // shorter than root's
		{0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE}, // longer than root's
		{1, 2, 3, 4, 5}, // root
		make([]byte, 5), // same length
	}
	runWorld(t, 4, 1, func(c Comm) {
		if err := c.Bcast(bufs[c.Rank()], 2); err != nil {
			t.Error(err)
		}
	})
	want := [][]byte{
		{1, 2, 3},
		{1, 2, 3, 4, 5, 0xEE, 0xEE},
		{1, 2, 3, 4, 5},
		{1, 2, 3, 4, 5},
	}
	for r := range bufs {
		if string(bufs[r]) != string(want[r]) {
			t.Errorf("rank %d buffer = %v, want %v", r, bufs[r], want[r])
		}
	}
}

// TestBcastAliasedBuffersUntouched: ranks that pass root's own buffer (or
// a slice of it starting at the same byte) are not written. Two jobs run
// concurrently over the one shared buffer, so under -race any write to
// it — even of the bytes already there — is reported.
func TestBcastAliasedBuffersUntouched(t *testing.T) {
	shared := []byte{7, 7, 7, 7, 7, 7, 7, 7}
	job := func() error {
		e := des.NewEngine()
		w, err := NewWorld(e, Config{Size: 4, Net: perfmodel.QDRInfiniBand(), RanksPerNode: 2})
		if err != nil {
			return err
		}
		for r := 0; r < 4; r++ {
			r := r
			e.Spawn(fmt.Sprintf("rank%d", r), func(p *des.Proc) {
				c, err := w.Attach(r, p)
				if err != nil {
					t.Error(err)
					return
				}
				buf := shared
				if r == 3 {
					buf = shared[:4]
				}
				if err := c.Bcast(buf, 1); err != nil {
					t.Error(err)
				}
			})
		}
		return e.Run()
	}
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { errs <- job() }()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range shared {
		if b != 7 {
			t.Fatalf("shared buffer changed: %v", shared)
		}
	}
}

// TestBcastAllocs pins the in-place copy: broadcasting 1 MB across 4
// ranks costs the collective's bookkeeping, not a clone of the payload.
// The per-collective figure is the difference between a job of 65
// broadcasts and a job of one, so world and process set-up cancel out.
func TestBcastAllocs(t *testing.T) {
	bufs := make([][]byte, 4)
	for r := range bufs {
		bufs[r] = make([]byte, 1<<20)
	}
	job := func(n int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		runWorld(t, 4, 1, func(c Comm) {
			for i := 0; i < n; i++ {
				if err := c.Bcast(bufs[c.Rank()], 0); err != nil {
					t.Error(err)
				}
			}
		})
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	job(1) // warm up
	one, many := job(1), job(65)
	if many < one {
		many = one
	}
	if per := (many - one) / 64; per >= 4<<10 {
		t.Errorf("1 MB bcast over 4 ranks allocates %d B per collective, want < 4 KB", per)
	}
}

func TestReduceSumAtRoot(t *testing.T) {
	runWorld(t, 4, 1, func(c Comm) {
		send := Float64Bytes([]float64{float64(c.Rank() + 1)})
		recv := make([]byte, 8)
		if err := c.Reduce(send, recv, OpSum, 0); err != nil {
			t.Error(err)
		}
		if c.Rank() == 0 {
			got := BytesFloat64(recv)[0]
			if got != 10 { // 1+2+3+4
				t.Errorf("reduce sum = %v, want 10", got)
			}
		}
	})
}

func TestAllreduceOps(t *testing.T) {
	runWorld(t, 4, 1, func(c Comm) {
		v := float64(c.Rank() + 1)
		recv := make([]byte, 8)
		if err := c.Allreduce(Float64Bytes([]float64{v}), recv, OpSum); err != nil {
			t.Error(err)
		}
		if got := BytesFloat64(recv)[0]; got != 10 {
			t.Errorf("allreduce sum = %v, want 10", got)
		}
		if err := c.Allreduce(Float64Bytes([]float64{v}), recv, OpMax); err != nil {
			t.Error(err)
		}
		if got := BytesFloat64(recv)[0]; got != 4 {
			t.Errorf("allreduce max = %v, want 4", got)
		}
		if err := c.Allreduce(Float64Bytes([]float64{v}), recv, OpMin); err != nil {
			t.Error(err)
		}
		if got := BytesFloat64(recv)[0]; got != 1 {
			t.Errorf("allreduce min = %v, want 1", got)
		}
		one := []byte{byte(1 << c.Rank())}
		out := make([]byte, 1)
		if err := c.Allreduce(one, out, OpBOr); err != nil {
			t.Error(err)
		}
		if out[0] != 0x0F {
			t.Errorf("allreduce bor = %x, want 0x0F", out[0])
		}
	})
}

func TestGather(t *testing.T) {
	var rootDone, leafDone time.Duration
	runWorld(t, 4, 1, func(c Comm) {
		send := []byte{byte(c.Rank())}
		var recv []byte
		if c.Rank() == 0 {
			recv = make([]byte, 4)
		}
		if err := c.Gather(send, recv, 0); err != nil {
			t.Error(err)
		}
		if c.Rank() == 0 {
			rootDone = c.Proc().Now()
			for i, b := range recv {
				if b != byte(i) {
					t.Errorf("gather result = %v", recv)
					break
				}
			}
		}
		if c.Rank() == 1 {
			leafDone = c.Proc().Now()
		}
	})
	if rootDone <= leafDone {
		t.Errorf("root finished at %v, not after leaf %v (root drains all flows)", rootDone, leafDone)
	}
}

func TestGatherCostGrowsSuperLinearly(t *testing.T) {
	// Doubling the rank count should much more than double the gather
	// completion time at the root (contention model, paper Fig. 10).
	cost := func(p int) time.Duration {
		return runWorld(t, p, 1, func(c Comm) {
			send := make([]byte, 1<<16)
			var recv []byte
			if c.Rank() == 0 {
				recv = make([]byte, p*(1<<16))
			}
			c.Gather(send, recv, 0)
		})
	}
	c8, c32 := cost(8), cost(32)
	if float64(c32) < 4.5*float64(c8) {
		t.Errorf("gather cost p=32 (%v) vs p=8 (%v): ratio %.2f, want super-linear growth",
			c32, c8, float64(c32)/float64(c8))
	}
}

func TestAllgather(t *testing.T) {
	runWorld(t, 3, 1, func(c Comm) {
		send := []byte{byte(10 + c.Rank())}
		recv := make([]byte, 3)
		if err := c.Allgather(send, recv); err != nil {
			t.Error(err)
		}
		for i := range recv {
			if recv[i] != byte(10+i) {
				t.Errorf("allgather = %v", recv)
			}
		}
	})
}

func TestScatter(t *testing.T) {
	runWorld(t, 4, 1, func(c Comm) {
		var send []byte
		if c.Rank() == 1 {
			send = []byte{0, 1, 2, 3}
		}
		recv := make([]byte, 1)
		if err := c.Scatter(send, recv, 1); err != nil {
			t.Error(err)
		}
		if recv[0] != byte(c.Rank()) {
			t.Errorf("rank %d scatter = %v", c.Rank(), recv)
		}
	})
}

func TestAlltoall(t *testing.T) {
	const p = 3
	runWorld(t, p, 1, func(c Comm) {
		send := make([]byte, p)
		for j := range send {
			send[j] = byte(c.Rank()*10 + j)
		}
		recv := make([]byte, p)
		if err := c.Alltoall(send, recv); err != nil {
			t.Error(err)
		}
		for i := range recv {
			want := byte(i*10 + c.Rank())
			if recv[i] != want {
				t.Errorf("rank %d recv[%d] = %d, want %d", c.Rank(), i, recv[i], want)
			}
		}
	})
}

// TestCollectiveRootMismatch: ranks that disagree on the root all get an
// error, and the failed broadcast leaves every buffer as it was.
func TestCollectiveRootMismatch(t *testing.T) {
	bufs := [][]byte{{1, 1}, {2, 2}, {3, 3}}
	errs := make([]error, len(bufs))
	runWorld(t, 3, 1, func(c Comm) {
		root := 0
		if c.Rank() == 2 {
			root = 2
		}
		errs[c.Rank()] = c.Bcast(bufs[c.Rank()], root)
	})
	for r, b := range bufs {
		if errs[r] == nil {
			t.Errorf("rank %d: root mismatch not reported", r)
		}
		if want := byte(r + 1); b[0] != want || b[1] != want {
			t.Errorf("rank %d buffer = %v after a failed bcast", r, b)
		}
	}
}

func TestRecvDeadlockDetected(t *testing.T) {
	e := des.NewEngine()
	w, _ := NewWorld(e, Config{Size: 1, Net: perfmodel.QDRInfiniBand()})
	e.Spawn("rank0", func(p *des.Proc) {
		c, _ := w.Attach(0, p)
		buf := make([]byte, 1)
		c.Recv(buf, 0, 0) // never satisfied
	})
	var dl *des.DeadlockError
	if err := e.Run(); !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
}

func TestAttachValidation(t *testing.T) {
	e := des.NewEngine()
	w, _ := NewWorld(e, Config{Size: 2, Net: perfmodel.QDRInfiniBand()})
	if _, err := w.Attach(5, nil); err == nil {
		t.Error("attach of out-of-range rank accepted")
	}
	if _, err := NewWorld(e, Config{Size: 0}); err == nil {
		t.Error("zero-size world accepted")
	}
}

func TestTopology(t *testing.T) {
	e := des.NewEngine()
	w, _ := NewWorld(e, Config{Size: 8, Net: perfmodel.QDRInfiniBand(), RanksPerNode: 4})
	if w.NodeOf(3) != 0 || w.NodeOf(4) != 1 {
		t.Error("block distribution wrong")
	}
	if w.Nodes() != 2 {
		t.Errorf("nodes = %d, want 2", w.Nodes())
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() time.Duration {
		return runWorld(t, 8, 2, func(c Comm) {
			recv := make([]byte, 8)
			for i := 0; i < 5; i++ {
				c.Allreduce(Float64Bytes([]float64{1}), recv, OpSum)
				if c.Rank()%2 == 0 && c.Rank()+1 < c.Size() {
					c.Send(make([]byte, 1024), c.Rank()+1, i)
				} else if c.Rank()%2 == 1 {
					buf := make([]byte, 1024)
					c.Recv(buf, c.Rank()-1, i)
				}
			}
			c.Barrier()
		})
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Errorf("nondeterministic: %v vs %v", a, b)
	}
}

// Property: Allreduce(sum) over random contributions equals the local sum,
// on every rank.
func TestPropAllreduceSum(t *testing.T) {
	prop := func(vals [4]int16) bool {
		var want float64
		for _, v := range vals {
			want += float64(v)
		}
		ok := true
		runWorld(t, 4, 1, func(c Comm) {
			recv := make([]byte, 8)
			if err := c.Allreduce(Float64Bytes([]float64{float64(vals[c.Rank()])}), recv, OpSum); err != nil {
				ok = false
				return
			}
			if BytesFloat64(recv)[0] != want {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: Alltoall twice is the identity permutation of chunks.
func TestPropAlltoallInvolution(t *testing.T) {
	prop := func(seed uint8) bool {
		const p = 4
		ok := true
		runWorld(t, p, 1, func(c Comm) {
			orig := make([]byte, p)
			for j := range orig {
				orig[j] = byte(int(seed) + c.Rank()*p + j)
			}
			once := make([]byte, p)
			twice := make([]byte, p)
			if err := c.Alltoall(orig, once); err != nil {
				ok = false
				return
			}
			if err := c.Alltoall(once, twice); err != nil {
				ok = false
				return
			}
			for j := range orig {
				if twice[j] != orig[j] {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFloat64BytesRoundTrip(t *testing.T) {
	prop := func(xs []float64) bool {
		got := BytesFloat64(Float64Bytes(xs))
		if len(got) != len(xs) {
			return false
		}
		for i := range xs {
			if got[i] != xs[i] && !(got[i] != got[i] && xs[i] != xs[i]) { // NaN-safe
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkAllreduce64Ranks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := des.NewEngine()
		w, _ := NewWorld(e, Config{Size: 64, Net: perfmodel.QDRInfiniBand(), RanksPerNode: 8})
		for r := 0; r < 64; r++ {
			r := r
			e.Spawn(fmt.Sprintf("rank%d", r), func(p *des.Proc) {
				c, _ := w.Attach(r, p)
				recv := make([]byte, 8)
				for k := 0; k < 10; k++ {
					c.Allreduce(Float64Bytes([]float64{1}), recv, OpSum)
				}
			})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
