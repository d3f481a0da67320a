// Keyed objects: the live-update layer. Objects are addressed by string
// key — Set("bus-17", pos) moves the object, Get/Del find and remove it
// by key — instead of by (rect, id) pairs the caller must remember. The
// collection keeps a key map and a spatial index consistent: a
// Set on an existing key is delete-old + reinsert under per-key locks,
// so "the object moved" is one call, not two that can half-apply.
//
// Queries page through stable cursors: each page is ordered by key, the
// cursor names the last key delivered, and a resume sees every object
// that existed throughout the query exactly once even while the
// collection churns between pages.
//
// Run with:
//
//	go run ./examples/keyed-objects
package main

import (
	"fmt"
	"math/rand"

	rlrtree "github.com/rlr-tree/rlrtree"
)

func main() {
	// A sharded index underneath gives writers per-shard locks — the
	// right shape for update churn. A single NewConcurrentTree works too.
	ix, err := rlrtree.NewShardedTree(rlrtree.ShardOptions{Shards: 4})
	if err != nil {
		panic(err)
	}
	coll := rlrtree.NewCollection(ix)

	// A small fleet of buses on the unit square.
	rng := rand.New(rand.NewSource(7))
	pos := make(map[string]rlrtree.Point, 500)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("bus-%03d", i)
		p := rlrtree.Pt(rng.Float64(), rng.Float64())
		pos[key] = p
		coll.Set(key, rlrtree.PointRect(p))
	}
	fmt.Printf("placed %d buses\n", coll.Len())

	// Churn: every bus moves 100 times. One Set per move — the collection
	// finds the old position via the key map and replaces it atomically.
	for step := 0; step < 100; step++ {
		for key, p := range pos {
			p.X += (rng.Float64() - 0.5) * 0.02
			p.Y += (rng.Float64() - 0.5) * 0.02
			pos[key] = p
			res := coll.Set(key, rlrtree.PointRect(p))
			if !res.Replaced {
				panic("a moving bus must replace its previous position")
			}
		}
	}
	stats := coll.Stats()
	fmt.Printf("after churn: %d buses, %d sets (%d updates in place)\n",
		stats.Objects, stats.Sets, stats.UpdatesInPlace)

	// Point lookup by key.
	if r, ok := coll.Get("bus-042"); ok {
		fmt.Printf("bus-042 is at (%.3f, %.3f)\n", r.MinX, r.MinY)
	}

	// Page through a monitored region, 10 buses per page. The cursor is
	// an opaque resume token; an empty cursor means the query is done.
	region := rlrtree.NewRect(0.25, 0.25, 0.75, 0.75)
	var cursor string
	total, pages := 0, 0
	for {
		page, _, err := coll.Within(region, cursor, 10)
		if err != nil {
			panic(err)
		}
		total += len(page.Keys)
		pages++
		if page.Cursor == "" {
			break
		}
		cursor = page.Cursor
	}
	fmt.Printf("central region: %d buses over %d pages of ≤10\n", total, pages)

	// Nearest buses to the depot, with squared distances.
	page, _, err := coll.Nearby(rlrtree.Pt(0.5, 0.5), 3, "", 0)
	if err != nil {
		panic(err)
	}
	for i, key := range page.Keys {
		fmt.Printf("  #%d nearest to depot: %s (dist² %.5f)\n", i+1, key, page.Dists[i])
	}

	// Retire a bus by key; no rect needed.
	if _, ok := coll.Del("bus-042"); !ok {
		panic("bus-042 should exist")
	}
	fmt.Printf("retired bus-042; %d buses remain\n", coll.Len())

	// The key map and the spatial index must agree exactly, both ways.
	if err := coll.Validate(); err != nil {
		panic(fmt.Sprintf("collection corrupted by churn: %v", err))
	}
	fmt.Println("key map ↔ spatial index consistency verified")
}
