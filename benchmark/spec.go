package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
)

// metricSpec is one metric of BENCHMARK.json. Bound, for end-to-end
// metrics only, is the share of the parent's median by which the metric
// may get worse before a change counts as a regression.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is BENCHMARK.json: the single list of what this benchmark
// emits. The program reads it instead of repeating it, so a metric
// cannot be renamed in one place only.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// pick returns exactly the metrics the spec lists and fails on any the
// run did not produce, on a unit that differs from the spec's, and on a
// value that is not a number. An end-to-end metric must also be
// non-zero: a zero there means a phase measured nothing.
func pick(got metrics, want []metricSpec, nonZero bool) (metrics, error) {
	out := make(metrics, len(want))
	for _, w := range want {
		if !metricNameRE.MatchString(w.Name) {
			return nil, fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]+", w.Name)
		}
		m, ok := got[w.Name]
		switch {
		case !ok:
			return nil, fmt.Errorf("metric %s was not measured", w.Name)
		case m.Unit != w.Unit:
			return nil, fmt.Errorf("metric %s measured in %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return nil, fmt.Errorf("metric %s is %v", w.Name, m.Value)
		case nonZero && m.Value == 0:
			return nil, fmt.Errorf("metric %s is 0", w.Name)
		}
		out[w.Name] = m
	}
	return out, nil
}
