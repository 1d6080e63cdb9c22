package profstore

import (
	"reflect"
	"strings"
	"testing"
)

func TestSoakMemberArgv(t *testing.T) {
	urls := []string{"http://127.0.0.1:1", "http://127.0.0.1:2", "http://127.0.0.1:3"}
	plain := []string{"srv", "-x",
		"-addr", "127.0.0.1:2", "-wal", "d/member1.wal", "-compact-every", "32", "-snapshot-on-exit"}

	// A lone member is the plain server: no cluster flags at all.
	one := SoakOptions{ServerCmd: []string{"srv", "-x"}, Replicas: 2}
	one.setDefaults()
	if one.Members != 1 || one.Replicas != 1 || one.Cycles != 0 {
		t.Fatalf("defaults: Members=%d Replicas=%d Cycles=%d, want 1, 1 and 0", one.Members, one.Replicas, one.Cycles)
	}
	if got := one.memberArgv(1, urls, "d"); !reflect.DeepEqual(got, plain) {
		t.Errorf("Members=1 argv\n got %q\nwant %q", got, plain)
	}

	// A cluster member adds membership, self and the clamped replicas.
	three := SoakOptions{ServerCmd: []string{"srv", "-x"}, Members: 3, Replicas: 5}
	three.setDefaults()
	want := append(append([]string{}, plain...),
		"-peers", "http://127.0.0.1:1,http://127.0.0.1:2,http://127.0.0.1:3",
		"-self", "http://127.0.0.1:2",
		"-replicas", "3")
	if got := three.memberArgv(1, urls, "d"); !reflect.DeepEqual(got, want) {
		t.Errorf("Members=3 argv\n got %q\nwant %q", got, want)
	}

	// One in-process member cannot route, so a cluster needs a ServerCmd.
	_, err := Soak(SoakOptions{Members: 3, Dir: t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), "ServerCmd") {
		t.Errorf("in-process Members=3: err = %v, want one naming ServerCmd", err)
	}
}

// TestSoakInProcess runs the harness end to end with one in-process
// member: kill cycles close the store mid-ingest without a snapshot,
// readers query it throughout, and both gates hold on the live store and
// after the final restart.
func TestSoakInProcess(t *testing.T) {
	rep, err := Soak(SoakOptions{
		Jobs: 60, Workers: 3, Readers: 2, Cycles: 2,
		Dir: t.TempDir(), Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kills != 2 || rep.Restarts != 3 || rep.Acked != 60 {
		t.Errorf("acked/kills/restarts = %d/%d/%d, want 60/2/3", rep.Acked, rep.Kills, rep.Restarts)
	}
	if rep.WALRecovered != 60 {
		t.Errorf("final restart recovered %d records, want 60", rep.WALRecovered)
	}
	if rep.Queries == 0 {
		t.Error("readers completed no query during ingest")
	}
}
