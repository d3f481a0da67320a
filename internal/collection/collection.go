// Package collection implements the keyed object layer of the serving
// stack: a tile38-style collection where every object has a string key,
// SET replaces the key's previous position (delete-old + reinsert into
// the spatial index), GET and DEL address objects by key through a key
// map, and the range/KNN queries page through stable cursors with
// limits.
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
// The key map is a Go map from key to rect, and it is derived state: the
// index stores each object's key as its payload, so Restore rebuilds the
// map from the index's leaves and a snapshot holds only the index.
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
	"hash/maphash"
	"maps"
	"math"
	"sync"
	"sync/atomic"

	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/rtree"
)

// Spatial is the index contract the keyed layer needs: single-object
// and batch mutation plus the streaming range and KNN kernels. Both
// *rtree.ConcurrentTree and *shard.ShardedTree satisfy it. The
// collection stores each object's key string as the index payload, so a
// restored index snapshot is self-describing.
type Spatial interface {
	Insert(r geom.Rect, data any)
	Delete(r geom.Rect, data any) bool
	// Apply runs a batch of inserts and deletes in order, leaving the
	// index as the same Insert and Delete calls would, and returns how
	// many deletes removed an object. Every delete names a stored
	// object or one an earlier op inserts.
	Apply(ops []rtree.Op) int
	SearchEach(q geom.Rect, fn func(geom.Rect, any)) rtree.QueryStats
	KNNAppend(p geom.Point, k int, dst []rtree.Neighbor) ([]rtree.Neighbor, rtree.QueryStats)
	Len() int
}

// keyStripes is the size of the per-key lock set that serializes Set/Del
// on the same key while unrelated keys stay fully concurrent.
const keyStripes = 64

// stripeSeed makes the stripe hash stable for the process lifetime.
var stripeSeed = maphash.MakeSeed()

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
	// kmu guards the key map. Held only around map reads and writes,
	// never across index calls.
	kmu  sync.RWMutex
	keys map[string]geom.Rect

	objects atomic.Int64
	sets    atomic.Uint64
	moves   atomic.Uint64
	dels    atomic.Uint64

	// logOps is ApplyLog's reusable index batch, owned by whoever holds
	// every stripe.
	logOps []rtree.Op
}

// LogOp is one keyed write of a replayed log: Set(Key, Rect), or
// Del(Key) when Del is set.
type LogOp struct {
	Key  string
	Rect geom.Rect
	Del  bool
}

// New returns an empty collection over ix.
func New(ix Spatial) *Collection {
	return &Collection{ix: ix, keys: make(map[string]geom.Rect)}
}

// Restore returns a collection over ix whose key map is rebuilt from the
// index's own leaves — the index restored from a snapshot already holds
// every object under its key, so the key map is derived state, never
// stored twice. Nothing is inserted into ix; the walk is one
// whole-plane query of ix and counts in its query statistics like any
// other. It fails when a leaf payload is not a string key or a key is
// indexed twice.
func Restore(ix Spatial) (*Collection, error) {
	c := &Collection{ix: ix, keys: make(map[string]geom.Rect, ix.Len())}
	var err error
	ix.SearchEach(everything, func(r geom.Rect, d any) {
		if err != nil {
			return
		}
		key, ok := d.(string)
		if !ok {
			err = fmt.Errorf("collection: restore: index object at %v has a %T payload, not a key", r, d)
			return
		}
		if prev, dup := c.keys[key]; dup {
			err = fmt.Errorf("collection: restore: key %q indexed twice, at %v and %v", key, prev, r)
			return
		}
		c.keys[key] = r
	})
	if err != nil {
		return nil, err
	}
	c.objects.Store(int64(len(c.keys)))
	return c, nil
}

func (c *Collection) stripe(key string) *sync.Mutex {
	return &c.stripes[maphash.String(stripeSeed, key)%keyStripes]
}

// Set stores key at r, replacing its previous position when the key
// already exists. The replace is delete-old + reinsert in the spatial
// index, serialized per key.
func (c *Collection) Set(key string, r geom.Rect) SetResult {
	mu := c.stripe(key)
	mu.Lock()
	defer mu.Unlock()

	c.kmu.RLock()
	prev, ok := c.keys[key]
	c.kmu.RUnlock()

	if ok {
		c.ix.Delete(prev, key)
		c.ix.Insert(r, key)
		c.kmu.Lock()
		c.keys[key] = r
		c.kmu.Unlock()
		c.sets.Add(1)
		c.moves.Add(1)
		return SetResult{Replaced: true, Prev: prev}
	}
	c.ix.Insert(r, key)
	c.kmu.Lock()
	c.keys[key] = r
	c.kmu.Unlock()
	c.objects.Add(1)
	c.sets.Add(1)
	return SetResult{}
}

// ApplyLog applies ops in order, leaving the key map, the counters and
// every index tree exactly as the same Set and Del calls would, with
// one index Apply for the whole batch instead of two mutations per
// write. It holds every key stripe, so no Set or Del interleaves. The
// key map is updated before the index batch publishes, so a concurrent
// Get may see a batched position a moment early; recovery runs it
// before anything reads.
func (c *Collection) ApplyLog(ops []LogOp) {
	for i := range c.stripes {
		c.stripes[i].Lock()
	}
	defer func() {
		for i := range c.stripes {
			c.stripes[i].Unlock()
		}
	}()

	batch := c.logOps[:0]
	var sets, moves, dels uint64
	objects := int64(0)
	c.kmu.Lock()
	for _, op := range ops {
		prev, ok := c.keys[op.Key]
		if ok {
			batch = append(batch, rtree.Op{Rect: prev, Data: op.Key, Delete: true})
		}
		if op.Del {
			if ok {
				delete(c.keys, op.Key)
				objects--
				dels++
			}
			continue
		}
		batch = append(batch, rtree.Op{Rect: op.Rect, Data: op.Key})
		c.keys[op.Key] = op.Rect
		sets++
		if ok {
			moves++
		} else {
			objects++
		}
	}
	c.kmu.Unlock()

	c.ix.Apply(batch)
	c.objects.Add(objects)
	c.sets.Add(sets)
	c.moves.Add(moves)
	c.dels.Add(dels)
	clear(batch) // drop the keys so the buffer pins nothing
	c.logOps = batch[:0]
}

// Get returns key's current position.
func (c *Collection) Get(key string) (geom.Rect, bool) {
	c.kmu.RLock()
	defer c.kmu.RUnlock()
	r, ok := c.keys[key]
	return r, ok
}

// Del removes key and its object from the spatial index, reporting
// whether the key existed. The removed position is returned for the
// caller's WAL record.
func (c *Collection) Del(key string) (geom.Rect, bool) {
	mu := c.stripe(key)
	mu.Lock()
	defer mu.Unlock()

	c.kmu.RLock()
	r, ok := c.keys[key]
	c.kmu.RUnlock()
	if !ok {
		return geom.Rect{}, false
	}
	c.ix.Delete(r, key)
	c.kmu.Lock()
	delete(c.keys, key)
	c.kmu.Unlock()
	c.objects.Add(-1)
	c.dels.Add(1)
	return r, true
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

// Each streams every (key, rect) pair in an unspecified order. fn
// returning false stops the walk. The key map lock is held for the
// duration; fn must not call collection mutators.
func (c *Collection) Each(fn func(key string, r geom.Rect) bool) {
	c.kmu.RLock()
	defer c.kmu.RUnlock()
	for key, r := range c.keys {
		if !fn(key, r) {
			return
		}
	}
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
	want := maps.Clone(c.keys)
	c.kmu.RUnlock()
	if got := int(c.objects.Load()); got != len(want) {
		return fmt.Errorf("collection: objects counter %d != key map size %d", got, len(want))
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
