package shard

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/rtree"
)

func shardEncodings(t *testing.T, s *ShardedTree) [][]byte {
	t.Helper()
	out := make([][]byte, s.NumShards())
	for i := range out {
		var buf bytes.Buffer
		var err error
		s.Shard(i).View(func(tr *rtree.Tree) { err = tr.Encode(&buf) })
		if err != nil {
			t.Fatal(err)
		}
		out[i] = buf.Bytes()
	}
	return out
}

// TestApplyMatchesSequential feeds one op stream to a sharded tree as
// Apply batches and to another one call at a time. The batches hold
// cross-shard moves (delete in one shard, reinsert in another), objects
// deleted in the batch that inserted them, and a cell emptied and
// refilled inside one batch. Every shard's tree must encode
// byte-identically, the batched tree must validate (routing, cell and
// shard counts, covers), and its pruned answers must equal exhaustive
// ones.
func TestApplyMatchesSequential(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		seq, bat := newTestSharded(t, 4), newTestSharded(t, 4)
		live := map[int]geom.Rect{}
		next := 0
		randRect := func() geom.Rect {
			return geom.Square(rng.Float64(), rng.Float64(), 0.01*rng.Float64())
		}
		for b := 0; b < 30; b++ {
			var ops []rtree.Op
			for n := 1 + rng.Intn(300); len(ops) < n; {
				id := rng.Intn(next + 1)
				old, ok := live[id]
				switch {
				case !ok:
					next++
					r := randRect()
					live[next] = r
					ops = append(ops, rtree.Op{Rect: r, Data: next})
				case rng.Intn(4) == 0:
					delete(live, id)
					ops = append(ops, rtree.Op{Rect: old, Data: id, Delete: true})
				default: // a move, often to another shard
					r := randRect()
					live[id] = r
					ops = append(ops, rtree.Op{Rect: old, Data: id, Delete: true}, rtree.Op{Rect: r, Data: id})
				}
			}
			if b == 10 {
				// Empty an occupied cell and refill it inside the batch.
				var p geom.Rect
				for _, r := range live {
					c := r.Center()
					p = geom.Square(c.X, c.Y, 0)
					break
				}
				for id, r := range live {
					if bat.router.Cell(r) == bat.router.Cell(p) {
						delete(live, id)
						ops = append(ops, rtree.Op{Rect: r, Data: id, Delete: true})
					}
				}
				next++
				live[next] = p
				ops = append(ops, rtree.Op{Rect: p, Data: next})
			}

			dels := 0
			for _, op := range ops {
				if op.Delete {
					dels++
					if !seq.Delete(op.Rect, op.Data) {
						t.Fatalf("seed %d batch %d: sequential tree lost %v", seed, b, op.Data)
					}
				} else {
					seq.Insert(op.Rect, op.Data)
				}
			}
			if removed := bat.Apply(ops); removed != dels {
				t.Fatalf("seed %d batch %d: Apply removed %d, want %d", seed, b, removed, dels)
			}

			want, got := shardEncodings(t, seq), shardEncodings(t, bat)
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("seed %d batch %d: shard %d tree differs from sequential (%d vs %d bytes)", seed, b, i, len(got[i]), len(want[i]))
				}
			}
			if err := bat.Validate(); err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, b, err)
			}
		}
		rects := make([]geom.Rect, 0, len(live))
		for _, r := range live {
			rects = append(rects, r)
		}
		assertPrunedEqualsExhaustive(t, bat, rects, seed)
	}
}

// TestApplyRefusesAbsentDelete: a Delete op naming no stored object
// would leave the bounds counts short, so Apply panics instead of
// returning a sharded tree that Validate rejects.
func TestApplyRefusesAbsentDelete(t *testing.T) {
	s := newTestSharded(t, 2)
	s.Insert(geom.Square(0.5, 0.5, 0.01), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Apply accepted a delete of an absent object")
		}
	}()
	s.Apply([]rtree.Op{{Rect: geom.Square(0.1, 0.1, 0.01), Data: 2, Delete: true}})
}
