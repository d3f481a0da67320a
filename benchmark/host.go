package main

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// hostCal is one calibration of the box: numbers that depend on the
// host and not on the code under test. Taken before and after a
// workload, their drift says whether the host changed under the run.
type hostCal struct {
	SpinNs        float64 `json:"spin_ns"`         // fixed arithmetic loop
	FsyncMs       float64 `json:"fsync_ms"`        // 4 KiB write + fsync where the WAL lives
	LoopbackRTTUs float64 `json:"loopback_rtt_us"` // GET /healthz on a kept-alive connection; 0 without a server
}

// noisyDrift is the calibration drift beyond which a run is marked noisy.
const noisyDrift = 0.10

var spinSink uint64

// The probes report a low quantile, not the median: the floor of a
// latency moves when the host gets slower and stays put when a probe is
// merely preempted, and a calibration has to be steadier than the runs
// it qualifies.

// spin times a fixed xorshift loop and reports the fastest round.
func spin() float64 {
	rounds := make([]float64, 5)
	for r := range rounds {
		x := uint64(88172645463325252)
		start := time.Now()
		for i := 0; i < 2_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		rounds[r] = float64(time.Since(start))
		spinSink += x
	}
	return slices.Min(rounds)
}

func fsyncMs(dir string) (float64, error) {
	f, err := os.Create(filepath.Join(dir, "fsync.probe"))
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	var rounds lats
	for r := 0; r < 40; r++ {
		start := time.Now()
		if _, err := f.Write(block); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		rounds.add(time.Since(start))
	}
	return rounds.ms(0.25), nil
}

func loopbackRTTUs(addr string) (float64, error) {
	c, err := dial(addr)
	if err != nil {
		return 0, err
	}
	defer c.close()
	// The first round trips after an idle spell pay for waking both
	// processes up; they are made and not counted.
	const warmup, measured = 200, 500
	var rtts lats
	for i := 0; i < warmup+measured; i++ {
		start := time.Now()
		if _, _, err := c.do("/healthz"); err != nil {
			return 0, err
		}
		if i >= warmup {
			rtts.add(time.Since(start))
		}
	}
	return rtts.us(0.25), nil
}

// calibrate measures the host; addr is empty when no server runs.
func calibrate(dir, addr string) (hostCal, error) {
	cal := hostCal{SpinNs: spin()}
	var err error
	if cal.FsyncMs, err = fsyncMs(dir); err != nil {
		return cal, err
	}
	if addr != "" {
		cal.LoopbackRTTUs, err = loopbackRTTUs(addr)
	}
	return cal, err
}

// drift is the largest relative change between two calibrations.
func drift(a, b hostCal) float64 {
	rel := func(x, y float64) float64 {
		if x == 0 || y == 0 {
			return 0
		}
		return math.Abs(y-x) / x
	}
	return math.Max(rel(a.SpinNs, b.SpinNs), math.Max(rel(a.FsyncMs, b.FsyncMs), rel(a.LoopbackRTTUs, b.LoopbackRTTUs)))
}
