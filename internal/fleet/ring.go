package fleet

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
)

// Ring is a consistent hash ring over replica names. Each node is
// placed at vnodes pseudo-random points; a key routes to the first
// node clockwise of its hash. The property the fleet needs is memo
// locality under churn: a licensee's queries keep landing on the same
// replica (whose engine has that licensee's snapshots memoized), and
// when a replica dies only the keys it owned move — the survivors'
// hot shards stay hot.
type Ring struct {
	points []ringPoint // sorted by hash
	nodes  []string    // sorted
}

// ringPoint is one virtual node: its hash and its node's index.
type ringPoint struct {
	hash uint64
	node int
}

// NewRing builds a ring over nodes with the given virtual-node count
// per node (<=0 means 64). Node order does not matter; the same node
// set always yields the same ring.
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	r := &Ring{nodes: slices.Sorted(slices.Values(nodes))}
	for i, n := range r.nodes {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash64(fmt.Sprintf("%s#%d", n, v)), i})
		}
	}
	// On the (astronomically unlikely) collision, first sorted node
	// wins deterministically: the stable sort keeps its point first
	// and the compaction keeps the first.
	slices.SortStableFunc(r.points, func(a, b ringPoint) int { return cmp.Compare(a.hash, b.hash) })
	r.points = slices.CompactFunc(r.points, func(a, b ringPoint) bool { return a.hash == b.hash })
	return r
}

// Seq returns every node in ring order starting at key's position: the
// first element is the key's owner, the rest are the failover order.
// Deterministic for a given (ring, key).
func (r *Ring) Seq(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(j int) bool { return r.points[j].hash >= h })
	seq := make([]string, 0, len(r.nodes))
	seen := make([]bool, len(r.nodes))
	for k := 0; k < len(r.points) && len(seq) < len(r.nodes); k++ {
		p := r.points[(i+k)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			seq = append(seq, r.nodes[p.node])
		}
	}
	return seq
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	// FNV of short, similar strings differs mostly in the low bits, so
	// raw sums cluster on the ring; a splitmix64 finalizer spreads them.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
