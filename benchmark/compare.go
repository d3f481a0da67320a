package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// spread is the interquartile range as a share of the median — the
// number the acceptance rule holds against a metric's bound.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// compare prints, per (workload, metric), both medians and the ratio of
// B to A — every ratio with its base. An end-to-end metric whose
// run-to-run spread on either side exceeds its bound is "unresolved":
// the runs cannot tell a regression of that size from noise, so it is
// reported as neither unchanged nor worse. Otherwise it is "worse" when
// B's median is worse than A's by more than the bound, "better" when it
// is better by more than the bound, and "same" within it.
func compare(w io.Writer, pathA, pathB string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds || a.Scale != b.Scale {
		fmt.Fprintf(w, "# warning: settings differ (A: seed %d, %d s, %s; B: seed %d, %d s, %s)\n",
			a.Seed, a.Seconds, a.Scale, b.Seed, b.Seconds, b.Scale)
	}
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		if b.Workloads[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-15s %-32s %14s %14s  %s\n", "workload", "metric", "A median", "B median", "B/A")
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		for _, ms := range spec.EndToEnd {
			sa, okA := wa.EndToEnd[ms.Name]
			sb, okB := wb.EndToEnd[ms.Name]
			if !okA || !okB {
				continue
			}
			fmt.Fprintf(w, "%-15s %-32s %14.6g %14.6g  %s\n", name, ms.Name, sa.Median, sb.Median, verdict(ms, sa, sb))
		}
		for _, ms := range spec.PerLayer {
			sa, okA := wa.PerLayer[ms.Name]
			sb, okB := wb.PerLayer[ms.Name]
			if !okA || !okB {
				continue
			}
			fmt.Fprintf(w, "%-15s %-32s %14.6g %14.6g  %s\n", name, ms.Name, sa.Median, sb.Median, ratio(sa, sb, ms.Unit))
		}
	}
	return nil
}

func ratio(a, b summary, unit string) string {
	if a.Median == 0 {
		return fmt.Sprintf("B is %.6g %s, A is 0", b.Median, unit)
	}
	return fmt.Sprintf("%.4f of A's %.6g %s", b.Median/a.Median, a.Median, unit)
}

func verdict(ms metricSpec, a, b summary) string {
	out := ratio(a, b, ms.Unit)
	if a.Median == 0 {
		return out
	}
	if sa, sb := a.spread(), b.spread(); sa > ms.Bound || sb > ms.Bound {
		return fmt.Sprintf("%s — unresolved: spread A %.1f%%, B %.1f%% exceeds the %.0f%% bound (n=%d, %d)",
			out, sa*100, sb*100, ms.Bound*100, a.N, b.N)
	}
	worse := b.Median/a.Median - 1 // share by which B is worse, for lower-is-better
	if ms.Better == "higher" {
		worse = 1 - b.Median/a.Median
	}
	switch {
	case worse > ms.Bound:
		return fmt.Sprintf("%s — WORSE by more than the %.0f%% bound", out, ms.Bound*100)
	case -worse > ms.Bound:
		return out + " — better"
	}
	return out + " — same"
}
