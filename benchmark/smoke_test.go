package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// exactOn names, per workload, the metrics that must repeat exactly for
// a seed: counts taken where a single connection (or nothing) writes.
var exactOn = map[string][]string{
	wlQueryServe:    {"rna_range", "rna_knn", "nodes_per_query"},
	wlBuildPolicy:   {"rna_range", "rna_knn", "nodes_per_query"},
	wlMovingDurable: {"wal.bytes_per_set"},
	wlMixedRW:       {"wal.bytes_per_set"},
}

// seedSensitive are the exact metrics whose value depends on the
// inputs; wal.bytes_per_set does not (every record has the same shape).
var seedSensitive = map[string]bool{"rna_range": true, "rna_knn": true, "nodes_per_query": true}

func value(r *runResult, name string) (float64, bool) {
	if m, ok := r.E2E[name]; ok {
		return m.Value, true
	}
	m, ok := r.Layer[name]
	return m.Value, ok
}

// TestSmoke runs every workload and the traced ladder at the smoke
// scale — a thousand objects, a tiny policy, a real rlr-serve child —
// so `go test ./...` covers the benchmark itself.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts rlr-serve")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, ms := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !metricNameRE.MatchString(ms.Name) || ms.Unit == "" {
			t.Errorf("BENCHMARK.json: metric %q (unit %q) is misnamed or has no unit", ms.Name, ms.Unit)
		}
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloadNames))
	}
	e := &env{root: root, out: t.TempDir(), scale: scaleSmoke, log: io.Discard}
	if err := os.MkdirAll(filepath.Join(e.out, "bin"), 0o755); err != nil {
		t.Fatal(err)
	}

	for i, name := range workloadNames {
		if spec.Workloads[i].Name != name {
			t.Errorf("BENCHMARK.json workload %d is %q, the program's is %q", i, spec.Workloads[i].Name, name)
		}
		once := func(seed int64, trace bool) *runResult {
			t.Helper()
			// runOnce fails unless every metric BENCHMARK.json lists for the
			// mode was measured, in the listed unit.
			res, budget, err := runOnce(e, spec, name, options{seed: seed, seconds: 1, trace: trace, scale: scaleSmoke})
			if err != nil {
				t.Fatalf("%s seed %d trace %v: %v", name, seed, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s seed %d: correct=%v, %d of %d failed: %v", name, seed, res.Correct, res.Failed, res.Attempted, res.Failures)
			}
			if trace {
				if len(budget) < 4 {
					t.Errorf("%s: budget has %d rows, want one per request type the workload makes", name, len(budget))
				}
				if _, err := os.Stat(filepath.Join(e.out, "trace-"+name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", name, err)
				}
			}
			return res
		}
		traced, again, other := once(1, true), once(1, false), once(2, false)
		for _, m := range exactOn[name] {
			a, okA := value(traced, m)
			b, okB := value(again, m)
			c, _ := value(other, m)
			if !okA || !okB {
				t.Errorf("%s: %s not reported", name, m)
				continue
			}
			if a != b {
				t.Errorf("%s: %s is %v and %v on two runs of seed 1; it must repeat exactly", name, m, a, b)
			}
			if seedSensitive[m] && a == c {
				t.Errorf("%s: %s is %v on seeds 1 and 2 alike; the seed does not reach the inputs", name, m, a)
			}
		}
	}
}

// TestResultLineAndCompare drives the command's own entry point for one
// workload and checks the contract of its last line, then compares the
// report with itself.
func TestResultLineAndCompare(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	rep := filepath.Join(t.TempDir(), "report.json")
	var stdout bytes.Buffer
	ok, err := run(options{workload: wlBuildPolicy, seed: 3, count: 2, scale: scaleSmoke, out: rep, dir: t.TempDir()}, &stdout, io.Discard)
	if err != nil || !ok {
		t.Fatalf("run: ok=%v err=%v", ok, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if len(line) != 4 {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", line)
	}
	var got resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted < 1 || got.Failed != 0 || len(got.Metrics) != len(spec.EndToEnd) {
		t.Errorf("result line %+v: want correct, attempted >= 1, no failures, %d metrics", got, len(spec.EndToEnd))
	}
	for _, ms := range spec.EndToEnd {
		if m, ok := got.Metrics[ms.Name]; !ok || m.Unit != ms.Unit || m.Value == 0 {
			t.Errorf("end-to-end metric %s: got %+v (present %v)", ms.Name, m, ok)
		}
	}
	var table bytes.Buffer
	if err := compare(&table, rep, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "1.0000 of A's") {
		t.Errorf("comparing a report with itself shows no unit ratio:\n%s", table.String())
	}
}
