// Package cliutil holds the small pieces shared by the command-line
// tools: building an index from a named heuristic or a trained policy
// file, and parsing rectangle/point literals from flags.
package cliutil

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/rlr-tree/rlrtree/internal/core"
	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/rtree"
)

// Version is the single release identifier shared by every rlr-* tool;
// each binary's -version flag prints it via PrintVersion.
const Version = "0.2.0"

// PrintVersion writes the standard "-version" line for the named tool.
func PrintVersion(w io.Writer, tool string) {
	fmt.Fprintf(w, "%s version %s\n", tool, Version)
}

// IndexKinds lists the heuristic index names accepted by BuildIndex.
var IndexKinds = []string{"rtree", "rstar", "rrstar"}

// IndexOptions resolves the tree options for a named configuration: the
// RLR-Tree policy's strategies (and its trained capacity bounds) when
// policyPath is non-empty, otherwise the named heuristic baseline with the
// given bounds. The returned name labels the index in tool output. The
// options are what rtree.Decode needs to restore a snapshot with the same
// insertion behaviour it was built with.
func IndexOptions(policyPath, indexKind string, maxE, minE int) (rtree.Options, string, error) {
	opts, name, _, err := IndexOptionsPolicy(policyPath, core.KindAuto, indexKind, maxE, minE)
	return opts, name, err
}

// IndexOptionsPolicy is IndexOptions with an explicit inference-backend
// kind for the policy path ("auto", "mlp" or "table" — see
// core.PolicyKinds). When policyPath is set, the returned HotPolicy serves
// the options' strategies and supports atomic backend swaps while inserts
// are in flight; it is nil for heuristic indexes. Loading a policy file
// written by a newer build fails with an error matching
// core.ErrPolicyVersionTooNew.
func IndexOptionsPolicy(policyPath, policyKind, indexKind string, maxE, minE int) (rtree.Options, string, *core.HotPolicy, error) {
	if policyPath != "" {
		bundle, err := core.LoadBundle(policyPath)
		if err != nil {
			return rtree.Options{}, "", nil, err
		}
		hot, err := core.NewHotPolicy(bundle, policyKind)
		if err != nil {
			return rtree.Options{}, "", nil, err
		}
		opts := rtree.Options{
			MaxEntries: bundle.MaxEntries,
			MinEntries: bundle.MinEntries,
			Chooser:    hot.Chooser(),
			Splitter:   hot.Splitter(),
		}
		return opts, "RLR-Tree", hot, nil
	}
	if policyKind != "" && policyKind != core.KindAuto {
		return rtree.Options{}, "", nil, fmt.Errorf("-policy-kind %q requires -policy", policyKind)
	}
	opts := rtree.Options{MaxEntries: maxE, MinEntries: minE}
	switch indexKind {
	case "rtree":
		opts.Chooser, opts.Splitter = rtree.GuttmanChooser{}, rtree.QuadraticSplit{}
	case "rstar":
		opts.Chooser, opts.Splitter = rtree.RStarChooser{}, rtree.RStarSplit{}
		opts.ForcedReinsert = true
	case "rrstar":
		opts.Chooser, opts.Splitter = rtree.RRStarChooser{}, rtree.RRStarSplit{}
	default:
		return rtree.Options{}, "", nil, fmt.Errorf("unknown index %q (have %s)", indexKind, strings.Join(IndexKinds, ", "))
	}
	return opts, indexKind, nil, nil
}

// BuildIndex returns an empty index: the RLR-Tree from policyPath when it
// is non-empty, otherwise the named heuristic baseline. The returned name
// labels the index in tool output.
func BuildIndex(policyPath, indexKind string, maxE, minE int) (*rtree.Tree, string, error) {
	t, name, _, err := BuildIndexPolicy(policyPath, core.KindAuto, indexKind, maxE, minE)
	return t, name, err
}

// BuildIndexPolicy is BuildIndex with an explicit inference-backend kind,
// returning the serving HotPolicy alongside the tree (nil for heuristic
// indexes).
func BuildIndexPolicy(policyPath, policyKind, indexKind string, maxE, minE int) (*rtree.Tree, string, *core.HotPolicy, error) {
	opts, name, hot, err := IndexOptionsPolicy(policyPath, policyKind, indexKind, maxE, minE)
	if err != nil {
		return nil, "", nil, err
	}
	t, err := rtree.NewChecked(opts)
	if err != nil {
		return nil, "", nil, err
	}
	return t, name, hot, nil
}

// ParseFloats parses exactly n comma-separated numbers.
func ParseFloats(s string, n int) ([]float64, error) {
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("want %d comma-separated numbers, got %q", n, s)
	}
	out := make([]float64, n)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q: %w", p, err)
		}
		out[i] = v
	}
	return out, nil
}

// ParseRect parses "minx,miny,maxx,maxy" into a validated rectangle.
func ParseRect(s string) (geom.Rect, error) {
	v, err := ParseFloats(s, 4)
	if err != nil {
		return geom.Rect{}, err
	}
	r := geom.Rect{MinX: v[0], MinY: v[1], MaxX: v[2], MaxY: v[3]}
	if !r.Valid() {
		return geom.Rect{}, fmt.Errorf("invalid rect %v", r)
	}
	return r, nil
}

// ParsePoint parses "x,y" into a point.
func ParsePoint(s string) (geom.Point, error) {
	v, err := ParseFloats(s, 2)
	if err != nil {
		return geom.Point{}, err
	}
	return geom.Pt(v[0], v[1]), nil
}
