// Package collection implements the keyed object layer of the serving
// stack: a tile38-style collection where every object has a string key,
// SET replaces the key's previous position (delete-old + reinsert into
// the spatial index), GET and DEL address objects by key through a
// B+-tree key map, and the range/KNN queries page through stable
// cursors with limits.
//
// This is the layer that makes live-update workloads — fleet tracking,
// geofencing, millions of points moving at high churn — expressible:
// the paper's dynamic-environment companion work makes update churn the
// headline scenario, and an insert/delete-by-rect API cannot express
// "object X moved". The spatial half is any index satisfying Spatial
// (rtree.ConcurrentTree and shard.ShardedTree both do), so the keyed
// layer inherits whatever concurrency, sharding and pruning the index
// underneath provides.
//
// Consistency model: Set and Del serialize per key (striped locks), so
// concurrent SETs of one key apply in some serial order and the final
// state is the last acknowledged write. A query concurrent with a SET
// may observe the key at its old position, its new position, or —
// because the move is delete + reinsert — briefly absent; it never
// observes both positions. The differential suite pins the sequential
// behaviour byte-for-byte against a map + brute-force-scan oracle, and
// the race hammer pins the concurrent final state.
package collection

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"

	"github.com/rlr-tree/rlrtree/internal/btree"
	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/rtree"
)

// Spatial is the index contract the keyed layer needs: single-object
// mutation plus the streaming range and KNN kernels. Both
// *rtree.ConcurrentTree and *shard.ShardedTree satisfy it. The
// collection stores each object's key string as the index payload, so a
// restored index snapshot is self-describing.
type Spatial interface {
	Insert(r geom.Rect, data any)
	Delete(r geom.Rect, data any) bool
	SearchEach(q geom.Rect, fn func(geom.Rect, any)) rtree.QueryStats
	KNNAppend(p geom.Point, k int, dst []rtree.Neighbor) ([]rtree.Neighbor, rtree.QueryStats)
	Len() int
}

// keyStripes is the size of the per-key lock set that serializes Set/Del
// on the same key while unrelated keys stay fully concurrent.
const keyStripes = 64

// entry is one keyed object in the key map. The btree stores *entry
// values under the key's hash; collisions share a hash slot and are
// disambiguated by the key string.
type entry struct {
	key  string
	rect geom.Rect
}

// SetResult reports what a Set did.
type SetResult struct {
	// Replaced is true when the key existed and its position was updated
	// (an "update in place" in the stats counters).
	Replaced bool
	// Prev is the position the key held before the Set; the zero Rect
	// when Replaced is false.
	Prev geom.Rect
}

// Stats is the collection's counter snapshot, mirrored into /stats and
// expvar by the server.
type Stats struct {
	// Objects is the number of keys currently stored.
	Objects int64 `json:"objects"`
	// Sets counts every acknowledged Set (first insert and update alike).
	Sets uint64 `json:"sets"`
	// UpdatesInPlace counts the Sets that moved an existing key.
	UpdatesInPlace uint64 `json:"updates_in_place"`
	// Dels counts the Dels that removed a key.
	Dels uint64 `json:"dels"`
}

// Collection is the keyed object layer over a spatial index. All methods
// are safe for concurrent use. The collection owns keyed consistency
// only for objects that flow through it: an object inserted into the
// underlying index directly is one the key map does not know, and
// Validate rejects it.
type Collection struct {
	ix Spatial

	// stripes serialize Set/Del per key across their lookup + index
	// delete + index insert + key-map update sequence.
	stripes [keyStripes]sync.Mutex
	// kmu guards the key map btree (not safe for concurrent mutation)
	// and entry rects. Held only around btree operations and entry
	// reads/writes, never across index calls.
	kmu  sync.RWMutex
	keys *btree.Tree

	objects atomic.Int64
	sets    atomic.Uint64
	moves   atomic.Uint64
	dels    atomic.Uint64
}

// New returns an empty collection over ix.
func New(ix Spatial) *Collection {
	return &Collection{ix: ix, keys: btree.New(0)}
}

// KeyRect is one (key, position) pair of the key map, the unit a
// snapshot persists it in.
type KeyRect struct {
	Key  string
	Rect geom.Rect
}

// Pairs captures the key map in key-hash order, the input to Restore.
// Consistent with the index only if no mutations run concurrently — the
// server captures both under its snapshot lock, which excludes every
// write.
func (c *Collection) Pairs() []KeyRect {
	pairs := make([]KeyRect, 0, c.Len())
	c.Each(func(key string, r geom.Rect) bool {
		pairs = append(pairs, KeyRect{Key: key, Rect: r})
		return true
	})
	return pairs
}

// Restore returns a collection over ix whose key map is pre-filled with
// pairs — the key map of a snapshot — WITHOUT inserting anything
// into ix, whose snapshot restore already holds the objects. The two
// halves must come from the same snapshot or Validate will fail.
func Restore(ix Spatial, pairs []KeyRect) *Collection {
	c := New(ix)
	for _, p := range pairs {
		c.keys.Insert(hashKey(p.Key), &entry{key: p.Key, rect: p.Rect})
	}
	c.objects.Store(int64(len(pairs)))
	return c
}

// hashKey maps a key string onto the btree's uint64 key space. FNV-1a
// keeps the mapping deterministic across processes (nothing persisted
// depends on it — snapshots store key strings — but determinism makes
// test failures reproducible).
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

func (c *Collection) stripe(key string) *sync.Mutex {
	return &c.stripes[hashKey(key)%keyStripes]
}

// lookup returns the live entry for key, or nil. Caller must hold kmu
// (either half).
func (c *Collection) lookupLocked(key string) *entry {
	h := hashKey(key)
	var found *entry
	c.keys.ScanRange(h, h, func(_ uint64, v any) bool {
		if e := v.(*entry); e.key == key {
			found = e
			return false
		}
		return true
	})
	return found
}

// Set stores key at r, replacing its previous position when the key
// already exists. The replace is delete-old + reinsert in the spatial
// index, serialized per key.
func (c *Collection) Set(key string, r geom.Rect) SetResult {
	mu := c.stripe(key)
	mu.Lock()
	defer mu.Unlock()

	c.kmu.RLock()
	e := c.lookupLocked(key)
	var prev geom.Rect
	if e != nil {
		prev = e.rect
	}
	c.kmu.RUnlock()

	if e != nil {
		c.ix.Delete(prev, key)
		c.ix.Insert(r, key)
		c.kmu.Lock()
		e.rect = r
		c.kmu.Unlock()
		c.sets.Add(1)
		c.moves.Add(1)
		return SetResult{Replaced: true, Prev: prev}
	}
	c.ix.Insert(r, key)
	c.kmu.Lock()
	c.keys.Insert(hashKey(key), &entry{key: key, rect: r})
	c.kmu.Unlock()
	c.objects.Add(1)
	c.sets.Add(1)
	return SetResult{}
}

// Get returns key's current position.
func (c *Collection) Get(key string) (geom.Rect, bool) {
	c.kmu.RLock()
	defer c.kmu.RUnlock()
	if e := c.lookupLocked(key); e != nil {
		return e.rect, true
	}
	return geom.Rect{}, false
}

// Del removes key and its object from the spatial index, reporting
// whether the key existed. The removed position is returned for the
// caller's WAL record.
func (c *Collection) Del(key string) (geom.Rect, bool) {
	mu := c.stripe(key)
	mu.Lock()
	defer mu.Unlock()

	c.kmu.RLock()
	e := c.lookupLocked(key)
	c.kmu.RUnlock()
	if e == nil {
		return geom.Rect{}, false
	}
	c.ix.Delete(e.rect, key)
	c.kmu.Lock()
	c.keys.Delete(hashKey(key), e)
	c.kmu.Unlock()
	c.objects.Add(-1)
	c.dels.Add(1)
	return e.rect, true
}

// Len returns the number of keys stored.
func (c *Collection) Len() int { return int(c.objects.Load()) }

// Stats returns the counter snapshot.
func (c *Collection) Stats() Stats {
	return Stats{
		Objects:        c.objects.Load(),
		Sets:           c.sets.Load(),
		UpdatesInPlace: c.moves.Load(),
		Dels:           c.dels.Load(),
	}
}

// Each streams every (key, rect) pair in key-hash order. fn returning
// false stops the walk. The key map lock is held for the duration; fn
// must not call collection mutators.
func (c *Collection) Each(fn func(key string, r geom.Rect) bool) {
	c.kmu.RLock()
	defer c.kmu.RUnlock()
	c.keys.ScanRange(0, ^uint64(0), func(_ uint64, v any) bool {
		e := v.(*entry)
		return fn(e.key, e.rect)
	})
}

// everything is the query window covering any representable object.
var everything = geom.Rect{
	MinX: -math.MaxFloat64, MinY: -math.MaxFloat64,
	MaxX: math.MaxFloat64, MaxY: math.MaxFloat64,
}

// Validate checks the key↔spatial-index consistency invariant both
// ways: every keyed object is present in the spatial index exactly once
// at exactly its key-map rect, every indexed object is a keyed object,
// and the counts agree. When the underlying index exposes its own
// Validate (both ConcurrentTree and ShardedTree do — the sharded one
// additionally proves each object routed to exactly one shard cell),
// that runs first, so a collection-level pass certifies the whole
// stack. Intended for tests and quiescent states: concurrent mutations
// make the two sides momentarily disagree by design.
func (c *Collection) Validate() error {
	if v, ok := c.ix.(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			return fmt.Errorf("collection: index invalid: %w", err)
		}
	}
	c.kmu.RLock()
	want := make(map[string]geom.Rect, c.keys.Len())
	c.keys.ScanRange(0, ^uint64(0), func(_ uint64, v any) bool {
		e := v.(*entry)
		want[e.key] = e.rect
		return true
	})
	mapLen := c.keys.Len()
	c.kmu.RUnlock()
	if mapLen != len(want) {
		return fmt.Errorf("collection: key map holds %d entries but only %d distinct keys", mapLen, len(want))
	}
	if got := int(c.objects.Load()); got != mapLen {
		return fmt.Errorf("collection: objects counter %d != key map size %d", got, mapLen)
	}

	seen := make(map[string]int, len(want))
	var stray []string
	c.ix.SearchEach(everything, func(r geom.Rect, d any) {
		key, ok := d.(string)
		if !ok {
			stray = append(stray, fmt.Sprintf("non-string payload %v", d))
			return
		}
		wr, ok := want[key]
		if !ok {
			stray = append(stray, fmt.Sprintf("unkeyed object %q at %v", key, r))
			return
		}
		if r != wr {
			stray = append(stray, fmt.Sprintf("key %q indexed at %v, key map says %v", key, r, wr))
			return
		}
		seen[key]++
	})
	if len(stray) > 0 {
		return fmt.Errorf("collection: %d index objects violate the key map: %s", len(stray), stray[0])
	}
	for key, n := range seen {
		if n != 1 {
			return fmt.Errorf("collection: key %q present %d times in the spatial index", key, n)
		}
	}
	if len(seen) != len(want) {
		for key := range want {
			if seen[key] == 0 {
				return fmt.Errorf("collection: key %q in the key map but missing from the spatial index", key)
			}
		}
	}
	if il := c.ix.Len(); il != len(want) {
		return fmt.Errorf("collection: spatial index holds %d objects, key map %d", il, len(want))
	}
	return nil
}
