// Package fleet shards the RCA service across replicas: a consistent-
// hash ring orders replicas per session, a hysteretic health checker
// tracks replica liveness, and the gateway re-serves the single-node /v1
// surface while routing each session to the first healthy replica in
// its ring order — migrating sessions off draining or dead replicas by
// replaying their journals onto a successor. See DESIGN.md "Fleet
// routing & handoff".
package fleet

import (
	"cmp"
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
)

// vnodesPerReplica is the number of ring points per replica: enough to
// keep every replica's share of keys within a few percent at 3 replicas.
const vnodesPerReplica = 64

// Ring is a consistent-hash ring with virtual nodes over a fixed set of
// replica names. Keys (gateway session ids) hash onto a circle of vnode
// points; a key's preference order is the distinct replicas met walking
// clockwise from its hash. The ring never changes after NewRing: which
// replicas take work is Health's to say, and skipping the down replicas
// in a key's order picks exactly what a ring without their vnodes
// would — so a replica going down moves only the keys it owned, and its
// return moves them back.
type Ring struct {
	points []ringPoint // sorted by hash
	size   int         // replica count
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds the ring over names. The result does not depend on the
// order of names.
func NewRing(names []string) *Ring {
	r := &Ring{size: len(names)}
	for _, name := range names {
		for i := 0; i < vnodesPerReplica; i++ {
			r.points = append(r.points, ringPoint{hashKey(name + "#" + strconv.Itoa(i)), name})
		}
	}
	slices.SortFunc(r.points, func(a, b ringPoint) int {
		return cmp.Or(cmp.Compare(a.hash, b.hash), cmp.Compare(a.node, b.node))
	})
	return r
}

func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	// FNV-1a clusters on short, similar keys ("r1#0", "r1#1", …), which
	// skews vnode placement badly; a splitmix64 finalizer scatters the
	// avalanche-poor output across the full circle.
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Successors returns every replica in key's preference order: the
// owner of the first vnode at or clockwise of key's hash, then each
// further replica in the order the walk meets it.
func (r *Ring) Successors(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, r.size)
	for i := 0; i < len(r.points) && len(out) < r.size; i++ {
		p := r.points[(start+i)%len(r.points)] // past the last point wraps to the first
		if !slices.Contains(out, p.node) {
			out = append(out, p.node)
		}
	}
	return out
}
