package profstore

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"

	"ipmgo/internal/ipm"
)

// This file holds the deterministic synthetic corpus that the store
// harness (soak.go) ingests and bench/ builds its document pool from,
// and the harness's bounded HTTP read.

// splitmix64 steps the PRNG behind the synthetic corpus — the same
// generator faultsim uses, chosen for determinism across platforms.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

var synthKernels = []string{"dgemm_nt", "relax", "pme_forces", "fft3d", "scan_up"}
var synthCommands = []string{"./hpl", "./amber", "./paratec", "./square"}

// SyntheticProfile builds a deterministic synthetic job profile: job i
// always yields the same ranks, call sites and durations, so a corpus
// of N synthetic jobs has one canonical /agg answer.
func SyntheticProfile(seed uint64, i int) *ipm.JobProfile {
	s := splitmix64(seed ^ uint64(i)*0x9e3779b97f4a7c15)
	nranks := 2 + int(s%7)
	kernel := synthKernels[int(s>>8)%len(synthKernels)]
	command := synthCommands[i%len(synthCommands)]
	ranks := make([]ipm.RankProfile, nranks)
	for r := range ranks {
		u := splitmix64(s ^ uint64(r)*0xbf58476d1ce4e5b9)
		us := func(scale uint64) time.Duration { // bounded pseudo-random microseconds
			u = splitmix64(u)
			return time.Duration(u%scale+1) * time.Microsecond
		}
		launches := int64(20 + u%60)
		kexec := time.Duration(launches) * us(400)
		h2d := time.Duration(launches) * us(40)
		d2h := time.Duration(launches) * us(40)
		idle := kexec * 9 / 10
		mpiT := time.Duration(launches) * us(25)
		wall := kexec + h2d + d2h + mpiT + us(300_000)
		mk := func(name string, bytes, count int64, total time.Duration) ipm.Entry {
			st := ipm.Stats{Count: count, Total: total, Min: total / time.Duration(count), Max: total / time.Duration(count)}
			return ipm.Entry{Sig: ipm.Sig{Name: name, Bytes: bytes, Region: ipm.GlobalRegion}, Stats: st}
		}
		ranks[r] = ipm.RankProfile{
			Rank: r, Host: fmt.Sprintf("dirac%d", r+1), Wallclock: wall,
			Entries: []ipm.Entry{
				mk(ipm.ExecStreamName(0), 0, launches, kexec),
				mk(ipm.ExecKernelName(0, kernel), 0, launches, kexec),
				mk(ipm.HostIdleName, 0, 2*launches, idle),
				mk("cudaMemcpy(H2D)", 1<<17, launches, h2d),
				mk("cudaMemcpy(D2H)", 1<<17, launches, d2h),
				mk("cudaLaunch", 0, launches, time.Duration(launches)*5*time.Microsecond),
				mk("MPI_Allreduce", 8, launches/2+1, mpiT),
			},
		}
	}
	return ipm.NewJobProfile(command, nranks, ranks)
}

// getClient bounds every harness read (gated queries, concurrent
// readers, readiness polls): a member that accepts connections but never
// answers fails the run instead of hanging it.
var getClient = &http.Client{Timeout: 10 * time.Second}

// httpGet fetches one URL body, demanding a 200.
func httpGet(url string) ([]byte, error) {
	resp, err := getClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}
