package rtree

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/rlr-tree/rlrtree/internal/geom"
)

// TestApplyMatchesSequentialOps is the batch differential: seeded Apply
// batches mixing inserts, deletes of live objects (some inserted earlier
// in the same batch) and deletes of absent objects, interleaved with
// single-op mutations so copy and replay catch-ups alternate. After
// every batch both arenas must encode byte-identically to a plain Tree
// fed the same ops one call at a time, and validate clean.
func TestApplyMatchesSequentialOps(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ct := NewConcurrent(New(testOpts()))
		plain := New(testOpts())
		var live []Op
		next := 0
		newObject := func() Op {
			next++
			return Op{Rect: geom.Square(rng.Float64(), rng.Float64(), 0.02*rng.Float64()), Data: next}
		}
		for b := 0; b < 40; b++ {
			n := 1 + rng.Intn(80)
			ops := make([]Op, 0, n)
			for len(ops) < n {
				switch x := rng.Intn(10); {
				case x < 5 || len(live) == 0:
					op := newObject()
					live = append(live, op)
					ops = append(ops, op)
				case x < 8:
					i := rng.Intn(len(live))
					op := live[i]
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					op.Delete = true
					ops = append(ops, op)
				default:
					op := newObject()
					op.Delete = true // never inserted: a no-op delete
					ops = append(ops, op)
				}
			}
			removed := ct.Apply(ops)
			wantRemoved := 0
			for _, op := range ops {
				if !op.Delete {
					plain.Insert(op.Rect, op.Data)
				} else if plain.Delete(op.Rect, op.Data) {
					wantRemoved++
				}
			}
			if removed != wantRemoved {
				t.Fatalf("seed %d batch %d: Apply removed %d objects, sequential deletes %d", seed, b, removed, wantRemoved)
			}
			if b%3 == 2 {
				op := newObject()
				live = append(live, op)
				ct.Insert(op.Rect, op.Data)
				plain.Insert(op.Rect, op.Data)
			}

			want := encodeTree(t, plain)
			for name, arena := range map[string]*Tree{"published": ct.cur.Load().tree, "write": ct.write} {
				if got := encodeTree(t, arena); !bytes.Equal(got, want) {
					t.Fatalf("seed %d batch %d: %s arena encodes %d bytes, sequential tree %d (or differs)", seed, b, name, len(got), len(want))
				}
				if err := arena.Validate(); err != nil {
					t.Fatalf("seed %d batch %d: %s arena invalid: %v", seed, b, name, err)
				}
			}
			if ct.Len() != len(live) {
				t.Fatalf("seed %d batch %d: len %d, want %d", seed, b, ct.Len(), len(live))
			}
		}
	}
}

// TestApplyIsAtomicForReaders pins readers on epochs while a writer
// applies batches that each replace one generation of objects with the
// next. Every pinned view must hold exactly one whole generation: never
// a mix, never a partial count. Run under -race (CI does) it also
// proves the copy catch-up writes only the retired arena.
func TestApplyIsAtomicForReaders(t *testing.T) {
	const perGen = 64
	ct := NewConcurrent(New(testOpts()))
	genOps := func(gen int, del bool) []Op {
		rng := rand.New(rand.NewSource(int64(gen)))
		ops := make([]Op, perGen)
		for i := range ops {
			ops[i] = Op{Rect: geom.Square(rng.Float64(), rng.Float64(), 0.01), Data: [2]int{gen, i}, Delete: del}
		}
		return ops
	}
	ct.Apply(genOps(0, false))

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				gens := map[int]int{}
				ct.View(func(tr *Tree) {
					tr.SearchEach(geom.NewRect(-1, -1, 2, 2), func(_ geom.Rect, d any) {
						gens[d.([2]int)[0]]++
					})
				})
				if len(gens) != 1 {
					t.Errorf("pinned view holds generations %v, want exactly one", gens)
					return
				}
				for g, n := range gens {
					if n != perGen {
						t.Errorf("pinned view holds %d objects of generation %d, want %d", n, g, perGen)
						return
					}
				}
			}
		}()
	}
	for gen := 1; gen <= 200; gen++ {
		ct.Apply(append(genOps(gen-1, true), genOps(gen, false)...))
	}
	stop.Store(true)
	wg.Wait()
	if err := ct.Validate(); err != nil {
		t.Fatal(err)
	}
}
