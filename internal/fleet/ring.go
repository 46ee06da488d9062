package fleet

import (
	"sort"
)

// defaultVnodes is the virtual-node count per replica. 64 points per
// member keeps the load spread within a few percent of uniform for the
// fleet sizes this router targets (a handful to a few dozen replicas)
// while keeping the ring small enough that a lookup's binary search and
// clockwise walk stay trivially cheap.
const defaultVnodes = 64

// ring is a consistent-hash ring over replica IDs. It is immutable after
// construction — membership changes are handled by the router skipping
// non-routable members during the clockwise walk, so the hash placement
// of healthy keys never moves when an unrelated replica flaps (the
// property that keeps encode caches warm through partial outages).
type ring struct {
	points []ringPoint // sorted by hash
	ids    []string    // distinct member IDs, construction order
}

type ringPoint struct {
	hash uint64
	id   string
}

// newRing places vnodes points per member on the circle. IDs must be
// distinct; vnodes <= 0 means defaultVnodes.
func newRing(ids []string, vnodes int) *ring {
	if vnodes <= 0 {
		vnodes = defaultVnodes
	}
	r := &ring{ids: append([]string(nil), ids...)}
	r.points = make([]ringPoint, 0, len(ids)*vnodes)
	var buf []byte
	for _, id := range ids {
		for v := 0; v < vnodes; v++ {
			buf = buf[:0]
			buf = append(buf, id...)
			buf = append(buf, '#', byte(v), byte(v>>8))
			r.points = append(r.points, ringPoint{hash: hashBytes(buf), id: id})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].id < r.points[j].id
	})
	return r
}

// Order returns every member exactly once, in ring order starting at
// key's successor point — the preference list for affinity routing:
// element 0 owns the key, element 1 is the first failover target, and
// so on. Deterministic for a given member set and key.
func (r *ring) Order(key string) []string {
	out := make([]string, 0, len(r.ids))
	if len(r.points) == 0 {
		return out
	}
	h := hashString(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool, len(r.ids))
	for i := 0; i < len(r.points) && len(out) < len(r.ids); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.id] {
			seen[p.id] = true
			out = append(out, p.id)
		}
	}
	return out
}

// hashString is FNV-1a 64 over the key with a splitmix64 finalizer.
// Raw FNV disperses poorly in the high bits for short, similar inputs
// (exactly what vnode labels like "r0#1" are), which skews ring
// placement; the avalanche pass fixes that while staying
// dependency-free.
func hashString(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return mix64(h)
}

func hashBytes(b []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, c := range b {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection, so it
// cannot introduce collisions, only spread them.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
