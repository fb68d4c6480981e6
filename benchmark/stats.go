package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks, or 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// geomean returns the geometric mean of the positive values in xs, or 0
// when there are none.
func geomean(xs []float64) float64 {
	logs, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			logs += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logs / float64(n))
}

// quartiles returns the first and third quartile of xs with the exclusive
// method Python's statistics.quantiles(xs, n=4) uses, so -compare and the
// agreement sets read the same spread the driver computes. It needs at
// least two values; with fewer, both quartiles are the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4 // whole part of the 1-based position
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j)*4
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// usage is one reading of the process-wide cost counters the end-to-end
// metrics are deltas of.
type usage struct {
	cpuNs      int64 // user + system, all threads
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcPauseNs  uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpuNs:      ru.Utime.Nano() + ru.Stime.Nano(),
		allocBytes: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
		gcCycles:   ms.NumGC,
		gcPauseNs:  ms.PauseTotalNs,
	}
}

// heapLiveBytes forces a collection and returns the bytes still reachable.
func heapLiveBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// rssPeakBytes reads the process's resident-set high-water mark (VmHWM).
// It returns 0 where /proc is unavailable.
func rssPeakBytes() uint64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				return 0
			}
			return kb << 10
		}
	}
	return 0
}

// resetRSSPeak asks the kernel to restart the VmHWM high-water mark from
// the current resident set, so input generation does not set the peak the
// run reports. Where the kernel refuses, the peak simply includes prepare,
// which is the same work on every run.
func resetRSSPeak() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
