// Package storecluster shards the profile store across N ipmserve
// members: a deterministic consistent-hash ring places each
// content-hash job id on R members, any member routes /ingest to the
// owners and answers /jobs, /job/{id}, /agg and /regress from its
// mirror of every member's compact per-job rollups — never raw XML — and
// the merge is the store's own count-independent rollup merge, so a cluster
// of any size answers byte-identically to a single node holding the
// whole corpus (see DESIGN.md "Cluster mode").
package storecluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// vnodesPerMember is the number of ring points each member projects.
// 128 keeps the placement spread within ~10% of uniform for small
// clusters while the ring stays tiny (N*128 points).
const vnodesPerMember = 128

// ringPoint is one virtual node: the hash position and the index of the
// member (into the canonical member list) that owns it.
type ringPoint struct {
	hash   uint64
	member int
}

// Ring is an immutable consistent-hash ring over member base URLs.
// Placement depends only on the SET of member URLs — the constructor
// canonicalises order — and on FNV-1a, so two processes (or the same
// process across restarts) built from the same membership place every
// job id identically: no map iteration, no seeding, no time.
type Ring struct {
	members []string // canonical: sorted, deduplicated
	points  []ringPoint
}

// hash64 is the ring's one hash function: FNV-1a over the key bytes,
// finished with the splitmix64 mixer. Ring keys are nearly identical
// strings (same URL prefix, small vnode suffix) and raw FNV leaves
// enough structure in the high bits to skew arc lengths badly; the
// finisher's avalanche restores a uniform spread. Deterministic and
// unseeded, like everything else about placement.
func hash64(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := h.Sum64()
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewRing builds the ring over the given member base URLs. Order and
// duplicates in the input are irrelevant; at least one member is
// required.
func NewRing(members []string) (*Ring, error) {
	canon := append([]string(nil), members...)
	sort.Strings(canon)
	// Deduplicate in place (the list is sorted).
	w := 0
	for i, m := range canon {
		if m == "" {
			return nil, fmt.Errorf("storecluster: empty member URL")
		}
		if i == 0 || m != canon[i-1] {
			canon[w] = m
			w++
		}
	}
	canon = canon[:w]
	if len(canon) == 0 {
		return nil, fmt.Errorf("storecluster: ring needs at least one member")
	}
	r := &Ring{
		members: canon,
		points:  make([]ringPoint, 0, len(canon)*vnodesPerMember),
	}
	for mi, m := range canon {
		for v := 0; v < vnodesPerMember; v++ {
			r.points = append(r.points, ringPoint{
				hash:   hash64(fmt.Sprintf("%s#%d", m, v)),
				member: mi,
			})
		}
	}
	// Tie-break equal hashes by member index (deterministic even in the
	// astronomically unlikely event of a vnode collision).
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r, nil
}

// Members returns the canonical (sorted) member list. Shared; do not
// mutate.
func (r *Ring) Members() []string { return r.members }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Owners returns the base URLs of the R distinct members owning the
// job id, in ring-walk order (the first is the primary). R is clamped
// to the member count.
func (r *Ring) Owners(id string, replicas int) []string {
	if replicas < 1 {
		replicas = 1
	}
	if replicas > len(r.members) {
		replicas = len(r.members)
	}
	h := hash64(id)
	// First point at or after h, wrapping.
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	owners := make([]string, 0, replicas)
	seen := make(map[int]bool, replicas)
	for i := 0; len(owners) < replicas; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.member] {
			continue
		}
		seen[p.member] = true
		owners = append(owners, r.members[p.member])
	}
	return owners
}

// Owns reports whether member is one of the R owners of id.
func (r *Ring) Owns(id, member string, replicas int) bool {
	for _, o := range r.Owners(id, replicas) {
		if o == member {
			return true
		}
	}
	return false
}

// PlacementHash fingerprints the primary placement of a corpus of ids:
// FNV-1a over every (id, primary-owner) pair in id order. Two ring
// implementations — or the same ring in two processes — agree on every
// placement iff the fingerprints match; the ring stability test pins it
// to a golden value.
func (r *Ring) PlacementHash(ids []string) uint64 {
	h := fnv.New64a()
	for _, id := range ids {
		h.Write([]byte(id))
		h.Write([]byte{0})
		h.Write([]byte(r.Owners(id, 1)[0]))
		h.Write([]byte{0})
	}
	return h.Sum64()
}
