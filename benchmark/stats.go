package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported number. Every metric carries its unit so the
// result line is self-describing.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its value; names are the ones fixed in
// BENCHMARK.json.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// lats is a latency sample in nanoseconds.
type lats []int64

func (l *lats) add(d time.Duration) { *l = append(*l, int64(d)) }

// quantile returns the nearest-rank q-quantile of l in nanoseconds (the
// same convention as the server's histogram and rlr-loadgen), sorting l
// in place. An empty sample reports 0.
func (l lats) quantile(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	rank := int(math.Ceil(q * float64(len(l))))
	if rank < 1 {
		rank = 1
	}
	return float64(l[rank-1])
}

func (l lats) sum() (s int64) {
	for _, v := range l {
		s += v
	}
	return s
}

// concat returns one sample holding every sample of ls.
func concat(ls ...lats) (all lats) {
	for _, l := range ls {
		all = append(all, l...)
	}
	return all
}

// segments is how many equal-work segments a phase is cut into for its
// throughput.
const segments = 30

// pace notes when a connection's operations completed, so that its
// throughput can be reported as the median over equal-work segments
// rather than as count over elapsed time: a stall of the host that lands
// in one segment then moves one sample of thirty, not the figure.
type pace struct {
	step  int
	count int
	marks []paceMark
}

type paceMark struct {
	n int
	t time.Time
}

// newPace starts the clock; a mark is kept every step operations.
func newPace(step int) *pace {
	return &pace{step: max(step, 1), marks: []paceMark{{0, time.Now()}}}
}

// done records k more completed operations.
func (p *pace) done(k int) {
	p.count += k
	if p.count-p.marks[len(p.marks)-1].n >= p.step {
		p.marks = append(p.marks, paceMark{p.count, time.Now()})
	}
}

// perSecond is the median segment rate. A run too short for two marks
// reports count over elapsed time.
func (p *pace) perSecond() float64 {
	if last := p.marks[len(p.marks)-1]; last.n < p.count {
		p.marks = append(p.marks, paceMark{p.count, time.Now()})
	}
	rates := make([]float64, 0, len(p.marks))
	for i := 1; i < len(p.marks); i++ {
		a, b := p.marks[i-1], p.marks[i]
		rates = append(rates, float64(b.n-a.n)/b.t.Sub(a.t).Seconds())
	}
	return median(rates)
}

// busyRate is the median, over equal segments of l in arrival order, of
// requests per second of time with a request in flight.
func busyRate(l lats) float64 {
	step := max(len(l)/segments, 1)
	var rates []float64
	for lo := 0; lo < len(l); lo += step {
		seg := l[lo:min(lo+step, len(l))]
		rates = append(rates, float64(len(seg))/(float64(seg.sum())/1e9))
	}
	return median(rates)
}

func (l lats) ms(q float64) float64 { return l.quantile(q) / 1e6 }
func (l lats) us(q float64) float64 { return l.quantile(q) / 1e3 }

// quartiles returns the first quartile, median and third quartile of
// vs with the "exclusive" method Python's statistics.quantiles(n=4)
// uses, so the spreads printed here are the ones the acceptance rule
// computes. Fewer than two values report the single value three times.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		pos := p*float64(n+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(n-1) {
			return s[n-1]
		}
		lo := int(pos)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}
