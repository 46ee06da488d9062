package raal

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"

	"raal/internal/encode"
	"raal/internal/lru"
)

// encodeCache is a mutex-guarded LRU (internal/lru) from plan-only
// fingerprints to the plan part of an encoded sample
// (encode.Encoder.EncodePlanPart). Plan encoding walks the whole operator
// tree (word2vec lookups, statistics aggregation) on every Estimate call,
// yet serving workloads re-submit the same few plans over and over;
// caching the encoder's output removes that repeated walk entirely. The
// allocation is not part of the key: it only becomes the sample's resource
// vector, which is a few divisions, so the same plan under a new
// allocation is a hit. The encoder is deterministic — identical plans
// yield identical encodings — so serving a cached plan part is
// bit-identical to re-encoding, and the model never mutates the samples it
// scores.
//
// Every cached plan part carries a memo slot (encode.PlanMemo) in which the
// serving network parks the plan prefix it derived (core.Net.prefix), so a
// hit skips the recurrence as well as the encoder. The slot lives and dies
// with the entry: this one LRU and its one capacity bound both.
type encodeCache struct {
	mu      sync.Mutex
	entries *lru.Cache[string, *cacheEntry] // keyed by Plan.Key
}

type cacheEntry struct {
	sample *encode.Sample // plan part only: Resource is nil
	hits   uint64         // lookups served from this entry since it was cached; guarded by mu
}

func newEncodeCache(capacity int) *encodeCache {
	return &encodeCache{entries: lru.New[string, *cacheEntry](capacity)}
}

func (c *encodeCache) get(planKey string) (*encode.Sample, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries.Get(planKey)
	if !ok {
		return nil, false
	}
	e.hits++
	return e.sample, true
}

// keyStats snapshots per-entry hit counts in most-recently-used order.
func (c *encodeCache) keyStats() []CacheKeyStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CacheKeyStats, 0, c.entries.Len())
	c.entries.Each(func(k string, e *cacheEntry) {
		out = append(out, CacheKeyStats{Key: FingerprintID(k), Hits: e.hits})
	})
	return out
}

// add caches s under the key. A key already present (two concurrent
// misses on one plan) keeps its entry and hit count and takes the newer
// sample.
func (c *encodeCache) add(planKey string, s *encode.Sample) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries.Get(planKey); ok {
		e.sample = s
		return
	}
	c.entries.Add(planKey, &cacheEntry{sample: s})
}

func (c *encodeCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.Len()
}

// CacheKeyStats is one encode-cache entry's hit attribution: how many
// lookups the entry has served since it was cached — summed over every
// allocation the plan was priced under — keyed by the plan's short
// fingerprint ID (FingerprintID of PlanOnlyFingerprint). Per-key
// attribution is what lets the fleet benchmark tie a routed plan's traffic
// to the replica whose cache actually served it.
type CacheKeyStats struct {
	Key  string `json:"key"`
	Hits uint64 `json:"hits"`
}

// FingerprintID condenses a canonical fingerprint to a short stable
// identifier — 64-bit FNV-1a in hex. The full plan-only fingerprint is the
// cache key (exact, collision-free); the ID exists only for reporting, where
// echoing whole rendered plans would bloat every /cachez response. Clients
// correlate by computing FingerprintID(PlanOnlyFingerprint(p)) for the
// plans they routed.
func FingerprintID(fingerprint string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(fingerprint))
	return fmt.Sprintf("%016x", h.Sum64())
}

// EncodeCacheKeyStats returns the encode cache's per-key hit counts in
// most-recently-used order, or nil when no cache is enabled. Evicted
// entries drop their counts: the report attributes the *current* working
// set, which is what affinity effectiveness is measured on.
func (cm *CostModel) EncodeCacheKeyStats() []CacheKeyStats {
	if cm.cache == nil {
		return nil
	}
	return cm.cache.keyStats()
}

// PlanFingerprint returns the canonical (plan, resources) fingerprint: the
// plan-only fingerprint the encode cache memoizes under, followed by the
// allocation's feature vector. The string is exact, not a hash, so distinct
// inputs never collide. It is not the fleet router's affinity key: the
// router routes on the SQL text (sql.CanonicalKey) and never sees a plan.
func PlanFingerprint(p *Plan, res Resources) string {
	var b strings.Builder
	b.WriteString(p.Key())
	for _, v := range res.Vector() {
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		b.WriteByte(',')
	}
	return b.String()
}

// PlanOnlyFingerprint returns the plan part of PlanFingerprint, p.Key(): the
// exact key of the plan's encode-cache entry, shared by every allocation the
// plan is priced under. FingerprintID of it is the key /cachez reports.
func PlanOnlyFingerprint(p *Plan) string { return p.Key() }
