// Package btree implements an in-memory B+-tree over uint64 keys with
// duplicate support and ordered range scans.
//
// It is the key map of internal/collection: keyed objects are stored
// under the hash of their key string, and hash collisions share a slot.
package btree

import (
	"fmt"
	"sort"
)

// DefaultOrder is the default maximum number of keys per node.
const DefaultOrder = 64

// item is one key with its values (duplicates of the same key are stored
// together, preserving insertion order).
type item struct {
	key    uint64
	values []any
}

// node is a B+-tree node: leaves carry items and a next pointer forming
// the ordered leaf chain; internal nodes carry separator keys and children
// (len(children) == len(keys)+1, subtree i holds keys < keys[i]).
type node struct {
	leaf     bool
	items    []item   // leaves
	keys     []uint64 // internal separators
	children []*node
	next     *node // leaf chain
}

// Tree is a B+-tree. Not safe for concurrent mutation.
type Tree struct {
	root   *node
	order  int
	size   int // stored values (duplicates counted)
	height int
}

// New returns an empty tree with the given order (max keys per node);
// order <= 0 selects DefaultOrder.
func New(order int) *Tree {
	if order <= 0 {
		order = DefaultOrder
	}
	if order < 4 {
		order = 4
	}
	return &Tree{root: &node{leaf: true}, order: order, height: 1}
}

// Len returns the number of stored values.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels.
func (t *Tree) Height() int { return t.height }

// Insert stores value under key. Duplicate keys accumulate values.
func (t *Tree) Insert(key uint64, value any) {
	t.size++
	sep, right := t.insert(t.root, key, value)
	if right != nil {
		t.root = &node{
			keys:     []uint64{sep},
			children: []*node{t.root, right},
		}
		t.height++
	}
}

// insert adds (key, value) under n and, if n split, returns the separator
// key and the new right sibling.
func (t *Tree) insert(n *node, key uint64, value any) (uint64, *node) {
	if n.leaf {
		i := sort.Search(len(n.items), func(i int) bool { return n.items[i].key >= key })
		if i < len(n.items) && n.items[i].key == key {
			n.items[i].values = append(n.items[i].values, value)
			return 0, nil
		}
		n.items = append(n.items, item{})
		copy(n.items[i+1:], n.items[i:])
		n.items[i] = item{key: key, values: []any{value}}
		if len(n.items) <= t.order {
			return 0, nil
		}
		// Split the leaf in half; the separator is the right half's first key.
		mid := len(n.items) / 2
		right := &node{leaf: true, items: append([]item(nil), n.items[mid:]...), next: n.next}
		n.items = n.items[:mid]
		n.next = right
		return right.items[0].key, right
	}

	ci := sort.Search(len(n.keys), func(i int) bool { return key < n.keys[i] })
	sep, right := t.insert(n.children[ci], key, value)
	if right == nil {
		return 0, nil
	}
	n.keys = append(n.keys, 0)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = sep
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = right
	if len(n.keys) <= t.order {
		return 0, nil
	}
	// Split the internal node; the middle key moves up.
	mid := len(n.keys) / 2
	upKey := n.keys[mid]
	rightNode := &node{
		keys:     append([]uint64(nil), n.keys[mid+1:]...),
		children: append([]*node(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	return upKey, rightNode
}

// Delete removes one value stored under key — the first whose dynamic
// value compares equal to value with the == operator (pointer identity
// for pointer values, value equality for comparables) — and reports
// whether anything was removed. Nodes that underflow below half fill
// rebalance by borrowing from an adjacent sibling or merging with it,
// exactly mirroring Insert's split discipline, so a long churn of
// interleaved inserts and deletes keeps the tree's height and fill
// bounds intact (the property suite pins this against a sorted-map
// oracle). Deleting with an incomparable value type (slices, maps)
// panics, the same contract as using such a value as a map key.
func (t *Tree) Delete(key uint64, value any) bool {
	if !t.delete(t.root, key, value) {
		return false
	}
	t.size--
	// An internal root left with a single child shrinks the tree.
	for !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
		t.height--
	}
	return true
}

// minFill is the underflow threshold: leaves rebalance below minFill
// items, internal nodes below minFill keys. Insert splits an
// over-capacity node in half, so both split halves start at or above
// this bound; the root is exempt as usual.
func (t *Tree) minFill() int { return t.order / 2 }

// delete removes (key, value) from the subtree under n, rebalancing any
// child it shrank below the fill bound.
func (t *Tree) delete(n *node, key uint64, value any) bool {
	if n.leaf {
		i := sort.Search(len(n.items), func(i int) bool { return n.items[i].key >= key })
		if i >= len(n.items) || n.items[i].key != key {
			return false
		}
		it := &n.items[i]
		for j, v := range it.values {
			if v != value {
				continue
			}
			it.values = append(it.values[:j], it.values[j+1:]...)
			if len(it.values) == 0 {
				n.items = append(n.items[:i], n.items[i+1:]...)
			}
			return true
		}
		return false
	}
	ci := sort.Search(len(n.keys), func(i int) bool { return key < n.keys[i] })
	if !t.delete(n.children[ci], key, value) {
		return false
	}
	t.rebalance(n, ci)
	return true
}

// underfull reports whether ch is below the fill bound.
func (t *Tree) underfull(ch *node) bool {
	if ch.leaf {
		return len(ch.items) < t.minFill()
	}
	return len(ch.keys) < t.minFill()
}

// canLend reports whether ch can give up one item/key and stay legal.
func (t *Tree) canLend(ch *node) bool {
	if ch.leaf {
		return len(ch.items) > t.minFill()
	}
	return len(ch.keys) > t.minFill()
}

// rebalance restores n.children[ci]'s fill bound after a removal below
// it: borrow one entry from an adjacent sibling when that sibling can
// spare it, otherwise merge with one (which may in turn underfill n —
// the caller's own rebalance handles that on the way up).
func (t *Tree) rebalance(n *node, ci int) {
	ch := n.children[ci]
	if !t.underfull(ch) {
		return
	}
	if ci > 0 && t.canLend(n.children[ci-1]) {
		t.borrowLeft(n, ci)
		return
	}
	if ci < len(n.children)-1 && t.canLend(n.children[ci+1]) {
		t.borrowRight(n, ci)
		return
	}
	// Neither neighbor can lend, so one of them sits exactly at the fill
	// bound and the merged node fits: minFill + (minFill-1) <= order.
	if ci > 0 {
		t.merge(n, ci-1)
	} else {
		t.merge(n, ci)
	}
}

// borrowLeft moves the left sibling's last entry into n.children[ci].
func (t *Tree) borrowLeft(n *node, ci int) {
	left, ch := n.children[ci-1], n.children[ci]
	if ch.leaf {
		last := left.items[len(left.items)-1]
		left.items = left.items[:len(left.items)-1]
		ch.items = append(ch.items, item{})
		copy(ch.items[1:], ch.items)
		ch.items[0] = last
		n.keys[ci-1] = last.key
		return
	}
	// Rotate through the parent: the separator drops into ch, the left
	// sibling's last key replaces it, and its last child changes sides.
	ch.keys = append(ch.keys, 0)
	copy(ch.keys[1:], ch.keys)
	ch.keys[0] = n.keys[ci-1]
	n.keys[ci-1] = left.keys[len(left.keys)-1]
	left.keys = left.keys[:len(left.keys)-1]
	moved := left.children[len(left.children)-1]
	left.children = left.children[:len(left.children)-1]
	ch.children = append(ch.children, nil)
	copy(ch.children[1:], ch.children)
	ch.children[0] = moved
}

// borrowRight moves the right sibling's first entry into n.children[ci].
func (t *Tree) borrowRight(n *node, ci int) {
	ch, right := n.children[ci], n.children[ci+1]
	if ch.leaf {
		first := right.items[0]
		right.items = append(right.items[:0], right.items[1:]...)
		ch.items = append(ch.items, first)
		n.keys[ci] = right.items[0].key
		return
	}
	ch.keys = append(ch.keys, n.keys[ci])
	n.keys[ci] = right.keys[0]
	right.keys = append(right.keys[:0], right.keys[1:]...)
	ch.children = append(ch.children, right.children[0])
	right.children = append(right.children[:0], right.children[1:]...)
}

// merge folds n.children[i+1] into n.children[i] and drops separator
// n.keys[i]. For leaves the leaf chain is re-linked past the absorbed
// right sibling; for internal nodes the separator moves down between the
// two key runs.
func (t *Tree) merge(n *node, i int) {
	left, right := n.children[i], n.children[i+1]
	if left.leaf {
		left.items = append(left.items, right.items...)
		left.next = right.next
	} else {
		left.keys = append(left.keys, n.keys[i])
		left.keys = append(left.keys, right.keys...)
		left.children = append(left.children, right.children...)
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

// ScanStats reports the work of one range scan: node accesses follow the
// same convention as the R-Tree's QueryStats (every visited node counts).
type ScanStats struct {
	NodesAccessed int
	Results       int
}

// ScanRange invokes fn for every value whose key lies in [lo, hi], in key
// order (insertion order within a key). fn returning false stops the scan.
func (t *Tree) ScanRange(lo, hi uint64, fn func(key uint64, value any) bool) ScanStats {
	var stats ScanStats
	if lo > hi {
		return stats
	}
	// Descend to the leaf that may contain lo.
	n := t.root
	for !n.leaf {
		stats.NodesAccessed++
		ci := sort.Search(len(n.keys), func(i int) bool { return lo < n.keys[i] })
		n = n.children[ci]
	}
	// Walk the leaf chain.
	for n != nil {
		stats.NodesAccessed++
		for i := range n.items {
			it := &n.items[i]
			if it.key < lo {
				continue
			}
			if it.key > hi {
				return stats
			}
			for _, v := range it.values {
				stats.Results++
				if !fn(it.key, v) {
					return stats
				}
			}
		}
		n = n.next
	}
	return stats
}

// Get returns the values stored under key.
func (t *Tree) Get(key uint64) []any {
	var out []any
	t.ScanRange(key, key, func(_ uint64, v any) bool {
		out = append(out, v)
		return true
	})
	return out
}

// NodeCount returns the total number of nodes.
func (t *Tree) NodeCount() int {
	var count func(n *node) int
	count = func(n *node) int {
		c := 1
		for _, ch := range n.children {
			c += count(ch)
		}
		return c
	}
	return count(t.root)
}

// Validate checks the structural invariants: key ordering within and
// across nodes, child counts, uniform leaf depth, and the leaf chain
// covering all items in order.
func (t *Tree) Validate() error {
	depth := -1
	var prevKey *uint64
	var walk func(n *node, level int, lower, upper *uint64) error
	walk = func(n *node, level int, lower, upper *uint64) error {
		if n.leaf {
			if depth == -1 {
				depth = level
			} else if depth != level {
				return fmt.Errorf("btree: leaves at depths %d and %d", depth, level)
			}
			for i := range n.items {
				k := n.items[i].key
				if i > 0 && n.items[i-1].key >= k {
					return fmt.Errorf("btree: leaf keys out of order")
				}
				if lower != nil && k < *lower {
					return fmt.Errorf("btree: key %d below lower bound %d", k, *lower)
				}
				if upper != nil && k >= *upper {
					return fmt.Errorf("btree: key %d at/above upper bound %d", k, *upper)
				}
				if prevKey != nil && *prevKey >= k {
					return fmt.Errorf("btree: global key order violated at %d", k)
				}
				kk := k
				prevKey = &kk
				if len(n.items[i].values) == 0 {
					return fmt.Errorf("btree: key %d has no values", k)
				}
			}
			return nil
		}
		if len(n.children) != len(n.keys)+1 {
			return fmt.Errorf("btree: %d children for %d keys", len(n.children), len(n.keys))
		}
		for i := range n.keys {
			if i > 0 && n.keys[i-1] >= n.keys[i] {
				return fmt.Errorf("btree: separators out of order")
			}
		}
		for i, ch := range n.children {
			lo, hi := lower, upper
			if i > 0 {
				lo = &n.keys[i-1]
			}
			if i < len(n.keys) {
				hi = &n.keys[i]
			}
			if err := walk(ch, level+1, lo, hi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 1, nil, nil); err != nil {
		return err
	}
	// The leaf chain must enumerate exactly size values in order.
	total := 0
	t.ScanRange(0, ^uint64(0), func(uint64, any) bool { total++; return true })
	if total != t.size {
		return fmt.Errorf("btree: chain enumerates %d values, size is %d", total, t.size)
	}
	return nil
}
