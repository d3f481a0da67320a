// Command benchmark is this repository's one benchmark: four named
// workloads, the end-to-end and per-layer metrics BENCHMARK.json lists,
// a correctness oracle in every workload, and a traced run that splits a
// request's time by layer. See README.md next to this file.
//
//	go run ./benchmark                                   every workload, end-to-end metrics
//	go run ./benchmark -workload moving_durable -seed 7   one workload
//	go run ./benchmark -workload query_serve -trace 1     per-layer metrics, span file, budget table
//	go run ./benchmark -count 5 -out a.json               medians and quartiles of five runs
//	go run ./benchmark compare a.json b.json              two reports side by side
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// resultLine is the last line of standard output for one workload.
type resultLine struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// summary is one metric over the runs of a -count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// workloadReport is everything -out keeps about one workload.
type workloadReport struct {
	Runs     []*runResult       `json:"runs"`
	EndToEnd map[string]summary `json:"end_to_end"`
	PerLayer map[string]summary `json:"per_layer,omitempty"`
	Budget   []budgetRow        `json:"budget,omitempty"`
}

// report is the file -out writes and compare reads.
type report struct {
	Seed      int64                      `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Scale     string                     `json:"scale"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	count    int
	scale    string
	out      string
	dir      string // where the benchmark writes; empty: benchmark/out in the checkout
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
			os.Exit(2)
		}
		if err := compare(os.Stdout, os.Args[2], os.Args[3]); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	var (
		o     options
		trace int
	)
	flag.StringVar(&o.workload, "workload", "all", "workload to run: query_serve, moving_durable, mixed_rw, build_policy, or all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 0, "length of a measured phase on the reference box (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "1: after the untraced pass, climb the traced ladder and report the per-layer metrics")
	flag.IntVar(&o.count, "count", 1, "runs per workload; the report gives median, quartiles and sample count")
	flag.StringVar(&o.scale, "scale", scaleFull, "full, or smoke: a few thousand objects and a tiny policy, for the test")
	flag.StringVar(&o.out, "out", "", "also write the full report (every run, summaries, budget) to this file")
	flag.Parse()
	o.trace = trace != 0
	ok, err := run(o, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes the requested workloads and prints, per workload, a
// table for a human and then the result line. It reports whether every
// run was correct.
func run(o options, stdout, stderr io.Writer) (bool, error) {
	root, err := findRoot()
	if err != nil {
		return false, err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return false, err
	}
	if o.seconds <= 0 {
		o.seconds = spec.RunSeconds
	}
	if o.count < 1 || (o.scale != scaleFull && o.scale != scaleSmoke) {
		return false, fmt.Errorf("bad -count %d or -scale %q", o.count, o.scale)
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	}
	if o.dir == "" {
		o.dir = filepath.Join(root, "benchmark", "out")
	}
	e := &env{root: root, out: o.dir, scale: o.scale, log: stderr}
	if err := os.MkdirAll(filepath.Join(e.out, "bin"), 0o755); err != nil {
		return false, err
	}

	rep := &report{Seed: o.seed, Seconds: o.seconds, Scale: o.scale, Workloads: map[string]*workloadReport{}}
	allCorrect := true
	for _, name := range names {
		wr := &workloadReport{}
		rep.Workloads[name] = wr
		for i := 0; i < o.count; i++ {
			res, budget, err := runOnce(e, spec, name, o)
			if err != nil {
				return false, fmt.Errorf("%s: %w", name, err)
			}
			wr.Runs, wr.Budget = append(wr.Runs, res), budget
		}
		line := resultLine{Correct: true, Metrics: metrics{}}
		wr.EndToEnd = summarize(wr.Runs, spec.EndToEnd, func(r *runResult) metrics { return r.E2E })
		shown, listed := wr.EndToEnd, spec.EndToEnd
		if o.trace {
			wr.PerLayer = summarize(wr.Runs, spec.PerLayer, func(r *runResult) metrics { return r.Layer })
			shown, listed = wr.PerLayer, spec.PerLayer
		}
		for _, r := range wr.Runs {
			line.Correct = line.Correct && r.Correct
			line.Attempted += r.Attempted
			line.Failed += r.Failed
			for _, f := range r.Failures {
				fmt.Fprintf(stderr, "# FAILED %s: %s\n", name, f)
			}
			if r.Noisy {
				fmt.Fprintf(stderr, "# noisy: the host calibration drifted by more than %.0f%% during a %s run (before %+v, after %+v)\n", noisyDrift*100, name, r.HostBefore, r.HostAfter)
			}
		}
		for _, ms := range listed {
			line.Metrics.set(ms.Name, shown[ms.Name].Median, ms.Unit)
		}
		allCorrect = allCorrect && line.Correct

		samples := wr.Runs[0].Samples
		printSummaries(stdout, name, "end-to-end, tracing off", spec.EndToEnd, wr.EndToEnd, samples)
		if o.trace {
			printBudget(stdout, name, wr.Budget)
			printSummaries(stdout, name, "per-layer", spec.PerLayer, wr.PerLayer, samples)
		}
		raw, err := json.Marshal(line)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(stdout, "%s\n", raw)
	}
	if o.out != "" {
		raw, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(o.out, append(raw, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return allCorrect, nil
}

// runOnce runs one workload once: the untraced pass that yields the
// end-to-end metrics and, with -trace 1, the ladder after it.
func runOnce(e *env, spec *benchSpec, workload string, o options) (*runResult, []budgetRow, error) {
	sz, err := sizesFor(workload, o.scale, o.seconds)
	if err != nil {
		return nil, nil, err
	}
	bundle, meta, err := ensureBundle(e)
	if err != nil {
		return nil, nil, err
	}
	var res *runResult
	if workload == wlBuildPolicy {
		res, err = runBuild(e, o.seed, sz, bundle)
	} else {
		var bin string
		if bin, err = buildServer(e); err != nil {
			return nil, nil, err
		}
		res, err = runServing(e, workload, o.seed, sz, bin, bundle)
	}
	if err != nil {
		return nil, nil, err
	}
	if res.E2E, err = pick(res.E2E, spec.EndToEnd, true); err != nil {
		return nil, nil, err
	}
	if !o.trace {
		return res, nil, nil
	}
	budget, err := newLadder(res.ladderIn, sz.ladder, o.seed).run(e, res, bundle, meta)
	if err != nil {
		return nil, nil, fmt.Errorf("traced ladder: %w", err)
	}
	if res.Layer, err = pick(res.Layer, spec.PerLayer, false); err != nil {
		return nil, nil, err
	}
	return res, budget, nil
}

// summarize reduces each listed metric over the runs.
func summarize(runs []*runResult, listed []metricSpec, of func(*runResult) metrics) map[string]summary {
	out := make(map[string]summary, len(listed))
	for _, ms := range listed {
		vs := make([]float64, 0, len(runs))
		for _, r := range runs {
			vs = append(vs, of(r)[ms.Name].Value)
		}
		q1, med, q3 := quartiles(vs)
		out[ms.Name] = summary{Median: med, Q1: q1, Q3: q3, N: len(vs), Unit: ms.Unit}
	}
	return out
}

// printSummaries renders the listed metrics for a human: the median over
// the runs, the quartiles when there are several, and for a timing the
// number of requests it is a quantile of.
func printSummaries(w io.Writer, workload, title string, listed []metricSpec, sums map[string]summary, samples map[string]int) {
	fmt.Fprintf(w, "# %s — %s\n", workload, title)
	names := make([]string, 0, len(listed))
	for _, ms := range listed {
		names = append(names, ms.Name)
	}
	sort.Strings(names)
	for _, n := range names {
		s := sums[n]
		fmt.Fprintf(w, "# %-34s %14.6g %-6s", n, s.Median, s.Unit)
		if s.N > 1 {
			fmt.Fprintf(w, " (q1 %.6g, q3 %.6g, %d runs)", s.Q1, s.Q3, s.N)
		}
		if c, ok := samples[n]; ok {
			fmt.Fprintf(w, " [%d samples]", c)
		}
		fmt.Fprintln(w)
	}
}
