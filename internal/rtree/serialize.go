package rtree

import (
	"encoding/gob"
	"fmt"
	"io"

	"github.com/rlr-tree/rlrtree/internal/geom"
)

// wireTree is the gob wire form of a tree: the node arena as flat arrays
// in DFS preorder. Leaf[k] and Count[k] describe the k-th node in
// preorder, Rects holds every node's entry rectangles concatenated in
// that node order, Data holds the leaf payloads (leaf entries, in order),
// and Kids holds the child references of internal entries as preorder
// position + 1 — which is exactly the NodeID the decoder assigns, since
// it allocates nodes in preorder into a fresh arena. Preorder is a
// canonical form: encoding a decoded tree reproduces the identical byte
// stream regardless of the IDs the source tree had, which makes
// snapshots stable across encode→decode→encode.
type wireTree struct {
	Version    int
	MaxEntries int
	MinEntries int
	Height     int
	Size       int

	Leaf  []bool      // per preorder node
	Count []int32     // entries per preorder node
	Rects []geom.Rect // entry rects, concatenated per node
	Kids  []int32     // internal entries' child = preorder position + 1
	Data  []any       // leaf entries' payloads
}

const wireVersion = 2

// Encode writes the tree's structure and payloads to w with encoding/gob.
// Payload values stored in the tree must be gob-encodable; concrete types
// stored behind the any interface (other than nil) must be registered with
// gob.Register by the caller. Strategies are not serialized — they are
// code, not data — so Decode takes fresh Options.
func (t *Tree) Encode(w io.Writer) error {
	nodeCount := t.NodeCount()
	wt := wireTree{
		Version:    wireVersion,
		MaxEntries: t.opts.MaxEntries,
		MinEntries: t.opts.MinEntries,
		Height:     t.height,
		Size:       t.size,
		Leaf:       make([]bool, 0, nodeCount),
		Count:      make([]int32, 0, nodeCount),
	}

	// Pass 1: assign canonical preorder positions (1-based, matching the
	// NodeIDs the decoder will allocate).
	pos := make([]int32, len(t.nodes))
	order := make([]NodeID, 0, nodeCount)
	var assign func(id NodeID)
	assign = func(id NodeID) {
		pos[id] = int32(len(order) + 1)
		order = append(order, id)
		n := &t.nodes[id]
		if !n.leaf {
			for i := range n.entries {
				assign(n.entries[i].Child)
			}
		}
	}
	assign(t.root)

	// Pass 2: emit the flat arrays in preorder.
	for _, id := range order {
		n := &t.nodes[id]
		wt.Leaf = append(wt.Leaf, n.leaf)
		wt.Count = append(wt.Count, int32(len(n.entries)))
		for i := range n.entries {
			e := &n.entries[i]
			wt.Rects = append(wt.Rects, e.Rect)
			if n.leaf {
				wt.Data = append(wt.Data, e.Data)
			} else {
				wt.Kids = append(wt.Kids, pos[e.Child])
			}
		}
	}

	if err := gob.NewEncoder(w).Encode(wt); err != nil {
		return fmt.Errorf("rtree: encode: %w", err)
	}
	return nil
}

// Decode reads a tree previously written by Encode. The given options
// supply the strategies for future insertions; the capacity bounds come
// from the encoded tree (they determine structural invariants). Nodes are
// allocated in preorder into a fresh tree, so the k-th preorder node gets
// NodeID k+1 and the Kids values are usable as NodeIDs directly. The
// decoded tree is validated before being returned.
func Decode(r io.Reader, opts Options) (*Tree, error) {
	var wt wireTree
	if err := gob.NewDecoder(r).Decode(&wt); err != nil {
		return nil, fmt.Errorf("rtree: decode: %w", err)
	}
	if wt.Version != wireVersion {
		return nil, fmt.Errorf("rtree: unsupported wire version %d", wt.Version)
	}
	opts.MaxEntries = wt.MaxEntries
	opts.MinEntries = wt.MinEntries
	t, err := NewChecked(opts)
	if err != nil {
		return nil, err
	}
	nn := len(wt.Leaf)
	if nn == 0 {
		return nil, fmt.Errorf("rtree: decode: snapshot has no nodes")
	}
	if len(wt.Count) != nn {
		return nil, fmt.Errorf("rtree: decode: %d node counts for %d nodes", len(wt.Count), nn)
	}

	// The fresh tree's placeholder root goes back on the free list, so the
	// preorder allocation below yields ids 1..nn.
	t.freeNode(t.root)
	for k := 0; k < nn; k++ {
		t.alloc(wt.Leaf[k])
	}
	t.root = 1

	rectOff, kidOff, dataOff := 0, 0, 0
	for k := 0; k < nn; k++ {
		id := NodeID(k + 1)
		cnt := int(wt.Count[k])
		if cnt < 0 || cnt > t.opts.MaxEntries {
			return nil, fmt.Errorf("rtree: decode: node %d has %d entries (max %d)", k, cnt, t.opts.MaxEntries)
		}
		if rectOff+cnt > len(wt.Rects) {
			return nil, fmt.Errorf("rtree: decode: rect array exhausted at node %d", k)
		}
		n := t.node(id)
		base := int(id) * t.stride
		slot := t.slab[base : base+cnt]
		for i := 0; i < cnt; i++ {
			slot[i].Rect = wt.Rects[rectOff]
			rectOff++
			if wt.Leaf[k] {
				if dataOff >= len(wt.Data) {
					return nil, fmt.Errorf("rtree: decode: payload array exhausted at node %d", k)
				}
				slot[i].Data = wt.Data[dataOff]
				dataOff++
			} else {
				if kidOff >= len(wt.Kids) {
					return nil, fmt.Errorf("rtree: decode: child array exhausted at node %d", k)
				}
				kid := NodeID(wt.Kids[kidOff])
				kidOff++
				if kid <= NoNode || int(kid) > nn {
					return nil, fmt.Errorf("rtree: decode: node %d references out-of-range child %d", k, kid)
				}
				slot[i].Child = kid
				t.nodes[kid].parent = id
			}
		}
		n.entries = t.slab[base : base+cnt : base+t.stride]
	}
	if rectOff != len(wt.Rects) || kidOff != len(wt.Kids) || dataOff != len(wt.Data) {
		return nil, fmt.Errorf("rtree: decode: trailing wire data (%d rects, %d kids, %d payloads unread)",
			len(wt.Rects)-rectOff, len(wt.Kids)-kidOff, len(wt.Data)-dataOff)
	}

	t.height = wt.Height
	t.size = wt.Size
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("rtree: decoded tree invalid: %w", err)
	}
	return t, nil
}
