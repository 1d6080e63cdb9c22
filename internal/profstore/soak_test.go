package profstore

import (
	"reflect"
	"testing"
)

func TestSoakMemberArgv(t *testing.T) {
	urls := []string{"http://127.0.0.1:1", "http://127.0.0.1:2", "http://127.0.0.1:3"}
	plain := []string{"srv", "-x",
		"-addr", "127.0.0.1:2", "-wal", "d/member1.wal", "-compact-every", "32", "-snapshot-on-exit"}

	// A lone member is the plain server: no cluster flags at all.
	one := SoakOptions{ServerCmd: []string{"srv", "-x"}, Replicas: 2}
	one.setDefaults()
	if one.Members != 1 || one.Replicas != 1 {
		t.Fatalf("defaults: Members=%d Replicas=%d, want 1 and 1", one.Members, one.Replicas)
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
}
