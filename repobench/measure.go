package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is a snapshot of the process counters the benchmark reports deltas
// of: wall clock, user+sys CPU, and bytes allocated on the Go heap.
type usage struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(allocSample)
	return usage{
		wall:  time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: allocSample[0].Value.Uint64(),
	}
}

// cost is the difference between two usage snapshots.
type cost struct {
	wall, cpu time.Duration
	alloc     uint64
}

func (u usage) since(start usage) cost {
	return cost{wall: u.wall.Sub(start.wall), cpu: u.cpu - start.cpu, alloc: u.alloc - start.alloc}
}

// settle collects garbage left by earlier phases so it is not charged to
// the next timed region.
func settle() { runtime.GC() }

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// ioCounters is the subset of /proc/self/io the service workload reports.
type ioCounters struct {
	writeBytes, writeSyscalls int64
}

func readIO() (ioCounters, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return ioCounters{}, err
	}
	defer f.Close()
	var c ioCounters
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil {
			return ioCounters{}, fmt.Errorf("parse /proc/self/io %s: %w", k, err)
		}
		switch k {
		case "write_bytes":
			c.writeBytes = n
		case "syscw":
			c.writeSyscalls = n
		}
	}
	return c, sc.Err()
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func mib(b uint64) float64           { return float64(b) / (1 << 20) }

// typicalCost estimates the cost of fixed work measured several times. The
// work splits into the same parts in every repetition (reps[i][k] is part k
// of repetition i); the estimate is the sum over parts of each part's
// median across repetitions, so a burst of machine noise moves one sample
// of a few parts rather than the whole figure.
func typicalCost(reps [][]cost) cost {
	var c cost
	for k := range reps[0] {
		var w, cpu, a []float64
		for _, r := range reps {
			w = append(w, float64(r[k].wall))
			cpu = append(cpu, float64(r[k].cpu))
			a = append(a, float64(r[k].alloc))
		}
		c.wall += time.Duration(median(w))
		c.cpu += time.Duration(median(cpu))
		c.alloc += uint64(median(a))
	}
	return c
}

// median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailPermille are the percentiles a tail is reported at, highest first,
// in thousandths.
var tailPermille = []int{999, 990, 975, 950, 900, 800, 750}

// tail returns the highest percentile of tailPermille (nearest rank) that
// leaves at least ten samples beyond it, with that percentile; ok is false
// when even the lowest one leaves fewer than ten.
func tail(xs []float64) (v, pct float64, ok bool) {
	if len(xs) == 0 {
		return math.NaN(), 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for i, pm := range tailPermille {
		rank := (pm*n + 999) / 1000
		if n-rank >= 10 || i == len(tailPermille)-1 {
			return s[max(rank, 1)-1], float64(pm) / 10, n-rank >= 10
		}
	}
	panic("unreachable")
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = millis(d)
	}
	return out
}
