//go:build !race

package storecluster

import (
	"fmt"
	"testing"

	"ipmgo/internal/alloctest"
)

// The ops behind the cluster benchmarks allocate what they did when the
// pins were taken (the figures below), within 30 %. Every figure counts
// the whole process: client, router and members. Excluded under -race,
// whose runtime adds bookkeeping allocations.
func TestClusterBenchmarkAllocs(t *testing.T) {
	for _, c := range []struct {
		shards        int
		allocs, bytes float64
	}{
		{1, 142, 12277},
		{4, 142, 12277},
	} {
		alloctest.Pin(t, fmt.Sprintf("ClusterIngest/shards=%d", c.shards), 200,
			clusterIngestOp(t, c.shards), c.allocs, c.bytes)
	}
	for _, c := range []struct {
		shards        int
		mixed         bool
		allocs, bytes float64
	}{
		{1, false, 130, 26039},
		{1, true, 139, 28233},
		{4, false, 446, 53367},
		{4, true, 475, 58809},
	} {
		name := fmt.Sprintf("ClusterAgg/shards=%d", c.shards)
		if c.mixed {
			name += "/mix=read95"
		}
		// 200 runs after the warm-up call: ten replacing ingests when mixed.
		alloctest.Pin(t, name, 200, clusterAggOp(t, c.shards, c.mixed), c.allocs, c.bytes)
	}
}
