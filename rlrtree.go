// Package rlrtree is an in-memory spatial index library built around the
// RLR-Tree (Gu et al., SIGMOD 2023): an R-Tree whose two insertion
// heuristics — ChooseSubtree and Split — are replaced by policies learned
// with reinforcement learning, while the tree structure and every query
// algorithm stay exactly those of the classic R-Tree.
//
// The package exposes three layers:
//
//   - A full classic R-Tree with pluggable strategies (New, Options): the
//     Guttman R-Tree, R*-Tree, and RR*-Tree baselines are all available
//     out of the box, along with range search, exact KNN, deletion, and
//     per-query node-access statistics.
//
//   - RLR-Tree training (TrainChoosePolicy, TrainSplitPolicy,
//     TrainCombined): learn a Policy from a sample of your data. Policies
//     serialize to JSON (Policy.Save, LoadPolicy) and transfer to datasets
//     far larger than the training sample.
//
//   - RLR-Tree usage (NewRLRTree): an ordinary *Tree whose insertions are
//     driven by the learned policy. Everything that works on an R-Tree —
//     Search, KNN, Delete — works on it unchanged, which is the paper's
//     core design property.
//
// Quick start:
//
//	data := ...                                  // []rlrtree.Rect
//	policy, _, err := rlrtree.TrainCombined(data[:100_000], rlrtree.TrainConfig{})
//	tree := rlrtree.NewRLRTree(policy)
//	for i, r := range data {
//		tree.Insert(r, i)
//	}
//	results, stats := tree.Search(rlrtree.NewRect(0.1, 0.1, 0.2, 0.2))
//
// See examples/ for runnable programs and DESIGN.md for the system map.
package rlrtree

import (
	"io"

	"github.com/rlr-tree/rlrtree/internal/collection"
	"github.com/rlr-tree/rlrtree/internal/core"
	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/pager"
	"github.com/rlr-tree/rlrtree/internal/rtree"
	"github.com/rlr-tree/rlrtree/internal/shard"
	"github.com/rlr-tree/rlrtree/internal/wal"
)

// Geometry types.
type (
	// Rect is an axis-aligned rectangle; points are rectangles with
	// Min == Max.
	Rect = geom.Rect
	// Point is a location in the plane.
	Point = geom.Point
)

// NewRect returns the rectangle spanning the two corners, normalizing
// their order.
func NewRect(x1, y1, x2, y2 float64) Rect { return geom.NewRect(x1, y1, x2, y2) }

// Pt returns the point (x, y).
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// PointRect returns the degenerate rectangle covering exactly p.
func PointRect(p Point) Rect { return geom.PointRect(p) }

// Square returns the axis-aligned square with the given center and side.
func Square(cx, cy, side float64) Rect { return geom.Square(cx, cy, side) }

// Tree types and strategy plug-ins.
type (
	// Tree is the R-Tree. It is not safe for concurrent mutation;
	// concurrent read-only queries are safe.
	Tree = rtree.Tree
	// Options configures a Tree (capacity bounds and strategies).
	Options = rtree.Options
	// QueryStats reports per-query node accesses (the paper's cost metric).
	QueryStats = rtree.QueryStats
	// Neighbor is one KNN result.
	Neighbor = rtree.Neighbor
	// Entry and Node expose the tree structure to custom strategies.
	Entry = rtree.Entry
	Node  = rtree.Node
	// NodeID identifies a node slot in a Tree's arena. IDs are stable
	// across Clone/CloneWithInto/SyncFrom, which makes them usable as
	// external cache keys (see internal/pager).
	NodeID = rtree.NodeID
	// SubtreeChooser and Splitter are the two strategy extension points.
	SubtreeChooser = rtree.SubtreeChooser
	Splitter       = rtree.Splitter
)

// NoNode is the zero NodeID: no node carries it, and leaf entries use it as
// their Child value.
const NoNode = rtree.NoNode

// Heuristic strategies (the paper's baselines).
type (
	// GuttmanChooser is the classic least-area-enlargement rule.
	GuttmanChooser = rtree.GuttmanChooser
	// RStarChooser is the R*-Tree ChooseSubtree rule.
	RStarChooser = rtree.RStarChooser
	// RRStarChooser is the revised R*-Tree ChooseSubtree rule.
	RRStarChooser = rtree.RRStarChooser
	// LinearSplit and QuadraticSplit are Guttman's node splits.
	LinearSplit    = rtree.LinearSplit
	QuadraticSplit = rtree.QuadraticSplit
	// GreeneSplit is Greene's split.
	GreeneSplit = rtree.GreeneSplit
	// RStarSplit is the R*-Tree split.
	RStarSplit = rtree.RStarSplit
	// MinOverlapSplit is the minimum-overlap partition (the paper's
	// reference splitter).
	MinOverlapSplit = rtree.MinOverlapSplit
	// RRStarSplit is the revised R*-Tree split.
	RRStarSplit = rtree.RRStarSplit
)

// New returns an empty R-Tree. The zero Options selects the paper's
// defaults: capacity 50, minimum fill 20, Guttman insertion, quadratic
// split. It panics on invalid options; NewChecked returns the error
// instead.
func New(opts Options) *Tree { return rtree.New(opts) }

// NewChecked is New returning an error instead of panicking.
func NewChecked(opts Options) (*Tree, error) { return rtree.NewChecked(opts) }

// Learned-policy types.
type (
	// Policy holds trained RLR-Tree Q-networks plus the featurization
	// parameters; nil networks fall back to the reference heuristics.
	Policy = core.Policy
	// TrainConfig collects the training hyperparameters; the zero value
	// reproduces the paper's setup.
	TrainConfig = core.Config
	// TrainReport summarizes a training run.
	TrainReport = core.TrainReport
)

// NewRLRTree returns an empty tree whose ChooseSubtree and Split decisions
// are made greedily by the trained policy. All query methods work on it
// unchanged.
func NewRLRTree(p *Policy) *Tree { return p.NewTree() }

// TrainChoosePolicy trains only the ChooseSubtree agent (the paper's "RL
// ChooseSubtree" index) on the given sample.
func TrainChoosePolicy(data []Rect, cfg TrainConfig) (*Policy, *TrainReport, error) {
	return core.TrainChoosePolicy(data, cfg)
}

// TrainSplitPolicy trains only the Split agent (the paper's "RL Split"
// index) on the given sample.
func TrainSplitPolicy(data []Rect, cfg TrainConfig) (*Policy, *TrainReport, error) {
	return core.TrainSplitPolicy(data, cfg)
}

// TrainCombined trains both agents with the paper's alternating schedule
// and returns the full RLR-Tree policy.
func TrainCombined(data []Rect, cfg TrainConfig) (*Policy, *TrainReport, error) {
	return core.TrainCombined(data, cfg)
}

// LoadPolicy reads a policy saved with Policy.Save.
func LoadPolicy(path string) (*Policy, error) { return core.LoadPolicy(path) }

// Policy-inference engine types. A trained policy's DQN can be distilled
// into a cheaper inference backend: a branch-table policy (a
// depth-bounded decision tree evaluated as a flat-array walk). The
// bundle carries the reference MLP plus that artifact; HotPolicy serves
// either behind an atomically swappable chooser/splitter pair.
type (
	// PolicyBundle is a Policy plus its optional distilled artifacts.
	// Save writes a v2 policy file when distilled; LoadBundle reads
	// files of any supported version.
	PolicyBundle = core.PolicyBundle
	// DistillConfig parameterizes Distill; the zero value uses the
	// distiller defaults.
	DistillConfig = core.DistillConfig
	// DistillReport carries per-operation agreement between the MLP and
	// the distilled table on the states it was fitted on.
	DistillReport = core.DistillReport
	// HotPolicy publishes a policy bundle's inference engines behind an
	// atomic pointer so the serving insert path can switch backends (or
	// reload a new bundle) without a restart and without locking
	// decisions.
	HotPolicy = core.HotPolicy
)

// Distill compiles the policy's networks into branch tables and returns
// them as a bundle alongside an agreement report.
func Distill(p *Policy, cfg DistillConfig) (*PolicyBundle, *DistillReport, error) {
	return core.Distill(p, cfg)
}

// LoadBundle reads a policy file of any supported version as a bundle
// (v1 files load with no distilled artifacts).
func LoadBundle(path string) (*PolicyBundle, error) { return core.LoadBundle(path) }

// NewHotPolicy wraps a bundle for hot-swappable serving. Kind selects
// the initial backend: "auto", "mlp" or "table" (PolicyKinds).
func NewHotPolicy(b *PolicyBundle, kind string) (*HotPolicy, error) {
	return core.NewHotPolicy(b, kind)
}

// PolicyKinds lists the recognized inference-backend selectors.
func PolicyKinds() []string { return append([]string(nil), core.PolicyKinds...) }

// ConcurrentTree makes a Tree safe for concurrent use with a lock-free
// read path: queries load the currently published epoch (an immutable
// snapshot) through an atomic pointer and take no lock at all, while
// mutations serialize through a writer mutex and publish a new epoch
// left-right style; InsertBatch publishes one epoch for a whole batch.
// Readers never block writers and writers never block readers. It is
// the index type the HTTP serving layer (internal/server, cmd/rlr-serve)
// puts on the network.
type ConcurrentTree = rtree.ConcurrentTree

// NewConcurrentTree wraps t for concurrent use. The caller must stop
// using t directly.
func NewConcurrentTree(t *Tree) *ConcurrentTree { return rtree.NewConcurrent(t) }

// TreeStats summarizes a tree's structure (size, height, node counts,
// fill, memory footprint); see (*Tree).Stats.
type TreeStats = rtree.TreeStats

// ShardedTree partitions objects across N independent ConcurrentTrees
// by a Z-order spatial router, giving writers per-shard locks while
// queries fan out and merge exactly. It answers the same Search / KNN /
// Delete calls as a single tree with identical results.
type ShardedTree = shard.ShardedTree

// ShardOptions configures NewShardedTree: shard count, router grid
// resolution, world rectangle, and the per-shard tree Options.
type ShardOptions = shard.Options

// NewShardedTree returns an empty sharded tree. The zero ShardOptions
// selects one shard over the unit square with default tree options.
func NewShardedTree(opts ShardOptions) (*ShardedTree, error) { return shard.New(opts) }

// Item is one object for bulk loading: a bounding rectangle plus payload.
type Item = rtree.Item

// BulkLoadSTR builds a tree bottom-up with Sort-Tile-Recursive packing —
// the static-loading alternative to one-by-one insertion. The result is an
// ordinary *Tree that supports queries and further dynamic updates using
// opts' strategies.
func BulkLoadSTR(opts Options, items []Item) (*Tree, error) {
	return rtree.BulkLoadSTR(opts, items)
}

// DecodeTree reads a tree previously written with (*Tree).Encode. The
// options supply the strategies for future insertions; payload types must
// be gob-registered by the caller.
func DecodeTree(r io.Reader, opts Options) (*Tree, error) {
	return rtree.Decode(r, opts)
}

// NearestIter yields stored objects in nondecreasing distance order —
// incremental KNN for when k is unknown in advance. See
// (*Tree).NewNearestIter.
type NearestIter = rtree.NearestIter

// JoinPair is one result of a spatial join.
type JoinPair = rtree.JoinPair

// JoinIntersects reports every intersecting object pair between two trees
// using the synchronized R-Tree join; see rtree.JoinIntersects.
func JoinIntersects(a, b *Tree, fn func(JoinPair)) (statsA, statsB QueryStats) {
	return rtree.JoinIntersects(a, b, fn)
}

// SVGOptions configures (*Tree).WriteSVG, which renders the bounding-box
// hierarchy for visual inspection.
type SVGOptions = rtree.SVGOptions

// BufferPool simulates a disk-resident deployment: an LRU page cache over
// tree nodes. Replay query workloads against it with ReplayRange to
// measure page faults instead of logical node accesses.
type BufferPool = pager.BufferPool

// NewBufferPool returns an LRU pool holding at most capacity node pages.
func NewBufferPool(capacity int) *BufferPool { return pager.NewBufferPool(capacity) }

// IOStats reports the cost of replayed queries under a BufferPool.
type IOStats = pager.IOStats

// ReplayRange replays a range-query workload through a buffer pool and
// returns logical accesses, page faults and result counts.
func ReplayRange(t *Tree, pool *BufferPool, queries []Rect) IOStats {
	return pager.ReplayRange(t, pool, queries)
}

// WarmPool pins the tree's top levels into the pool and resets its
// counters, the standard posture where upper index levels stay in memory.
func WarmPool(t *Tree, pool *BufferPool) { pager.Warm(t, pool) }

// Durability: the write-ahead log of internal/wal, re-exported for
// embedders who want crash recovery around their own mutation loop. The
// serving layer (cmd/rlr-serve -wal-dir) uses the same machinery.
type (
	// WAL is a segmented, CRC-checksummed write-ahead log of spatial
	// mutations. Append each Insert/Delete before applying it; after a
	// crash, Replay past your newest snapshot's LSN reproduces the
	// acknowledged state (minus writes the fsync policy had not yet made
	// durable). Safe for concurrent appenders.
	WAL = wal.WAL
	// WALOptions configures OpenWAL: directory, segment rotation size,
	// fsync policy, routing epoch.
	WALOptions = wal.Options
	// WALRecord is one logged mutation, as yielded by Replay.
	WALRecord = wal.Record
	// WALSyncPolicy selects when appends fsync: WALSyncAlways,
	// WALSyncInterval (group commit), or WALSyncNone.
	WALSyncPolicy = wal.SyncPolicy
	// WALReplayStats summarizes a Replay pass.
	WALReplayStats = wal.ReplayStats
	// WALMetrics is the log's counter snapshot (appends, fsyncs,
	// rotations, torn-tail truncations, ...).
	WALMetrics = wal.Metrics
)

// Fsync policies for WALOptions.Sync.
const (
	WALSyncAlways   = wal.SyncAlways
	WALSyncInterval = wal.SyncInterval
	WALSyncNone     = wal.SyncNone
)

// OpenWAL opens (or creates) a write-ahead log in opts.Dir, truncating
// any torn tail left by a crash. Close it when done.
func OpenWAL(opts WALOptions) (*WAL, error) { return wal.Open(opts) }

// ParseWALSyncPolicy parses "always", "interval" or "none".
func ParseWALSyncPolicy(s string) (WALSyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// ResumeCombined continues alternating training of a previously trained
// combined policy on new data — continual adaptation without retraining
// from scratch. The input policy is not modified.
func ResumeCombined(prev *Policy, data []Rect, cfg TrainConfig) (*Policy, *TrainReport, error) {
	return core.ResumeCombined(prev, data, cfg)
}

// Keyed object collection: the live-update layer of internal/collection,
// re-exported for embedders. Every object has a string key; Set replaces
// the key's previous position (delete-old + reinsert in the spatial
// index), Get and Del address objects by key, and the query methods page
// through stable cursors. This is the layer that makes moving-object
// workloads expressible — "object X moved" instead of delete-rect +
// insert-rect — and it is what the serving layer's /set, /get, /del,
// /within and paged /search, /knn endpoints speak.
type (
	// Collection is the keyed layer over a Spatial index. All methods are
	// safe for concurrent use; Set/Del serialize per key.
	Collection = collection.Collection
	// Spatial is the index contract the collection needs; both
	// *ConcurrentTree and *ShardedTree satisfy it.
	Spatial = collection.Spatial
	// SetResult reports whether a Set replaced an existing position and,
	// if so, what that position was.
	SetResult = collection.SetResult
	// Page is one page of a keyed query: parallel Keys/Rects (plus Dists
	// for Nearby) and a resume Cursor, non-empty while results remain.
	Page = collection.Page
	// KeyRect is one (key, position) pair, the unit of the keyed snapshot
	// section.
	KeyRect = collection.KeyRect
	// CollectionStats is the collection's counter snapshot (objects,
	// sets, updates in place, dels).
	CollectionStats = collection.Stats
)

// NewCollection returns an empty keyed collection over ix. Typical
// wiring: NewCollection(NewConcurrentTree(New(Options{}))) for one tree,
// or a ShardedTree for per-shard write locks under churn.
func NewCollection(ix Spatial) *Collection { return collection.New(ix) }

// RestoreCollection rebuilds a collection whose key map comes from a
// snapshot while ix was restored from the same snapshot's index
// payload; see collection.Restore for the pairing contract.
func RestoreCollection(ix Spatial, pairs []KeyRect) *Collection {
	return collection.Restore(ix, pairs)
}
