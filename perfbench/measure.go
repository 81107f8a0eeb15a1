package main

import (
	"bufio"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"
)

// cost is what one call into the program used, measured tightly around the
// public entry point: wall time, process CPU time (every thread, so GC
// workers and solver goroutines count), GC CPU time and heap bytes
// allocated.
type cost struct {
	wall, cpu, gc time.Duration
	alloc         uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

type counters struct {
	at    time.Time
	cpu   time.Duration
	gc    float64
	alloc uint64
}

func readCounters() counters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(runtimeSamples)
	return counters{
		at:    time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: runtimeSamples[0].Value.Uint64(),
		gc:    runtimeSamples[1].Value.Float64(),
	}
}

// measure runs fn and returns its cost.
func measure(fn func()) cost {
	c0 := readCounters()
	fn()
	c1 := readCounters()
	return cost{
		wall:  c1.at.Sub(c0.at),
		cpu:   c1.cpu - c0.cpu,
		gc:    time.Duration((c1.gc - c0.gc) * 1e9),
		alloc: c1.alloc - c0.alloc,
	}
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// calibrator is the host-drift witness: a fixed, benchmark-owned kernel (a
// memory-bound random gather over 32 MiB plus a sort) run next to every op.
// It does the same work in every run of every commit, so its time tracks
// only the host's speed, and op time divided by it cancels most of the
// drift a shared two-core host shows over minutes.
type calibrator struct {
	data, idx, keys, buf []uint32
	sink                 uint64
}

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewPCG(0xca11b, 0x5eed))
	c := &calibrator{
		data: make([]uint32, 1<<23),
		idx:  make([]uint32, 1<<20),
		keys: make([]uint32, 1<<16),
		buf:  make([]uint32, 1<<16),
	}
	for i := range c.data {
		c.data[i] = rng.Uint32()
	}
	for i := range c.idx {
		c.idx[i] = uint32(rng.IntN(len(c.data)))
	}
	for i := range c.keys {
		c.keys[i] = rng.Uint32()
	}
	return c
}

// sample runs the kernel once and returns its wall time in ms.
func (c *calibrator) sample() float64 {
	t0 := time.Now()
	var s uint64
	for _, i := range c.idx {
		s += uint64(c.data[i])
	}
	copy(c.buf, c.keys)
	slices.Sort(c.buf)
	c.sink += s + uint64(c.buf[len(c.buf)/2])
	return ms(time.Since(t0))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// percentile interpolates linearly between order statistics (q in [0,100]).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailPercentile is the highest percentile of a fixed grid that leaves at
// least ten samples beyond it; the grid keeps the choice the same across
// runs whose sample counts differ a little. Below 20 samples it falls back
// to the median.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, q := range []float64{75, 90, 95, 99} {
		if float64(n)*(1-q/100) >= 10 {
			best = q
		}
	}
	return best
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// mix derives a 64-bit seed from its arguments (splitmix64 chain), so every
// input the benchmark makes is a pure function of the workload seed.
func mix(xs ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, x := range xs {
		h ^= x
		h += 0x9e3779b97f4a7c15
		z := h
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		h = z ^ (z >> 31)
	}
	return h
}

// hostInfo records what the numbers were measured on.
func hostInfo() map[string]any {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu_model":  model,
	}
}
