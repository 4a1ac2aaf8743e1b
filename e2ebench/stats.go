package main

import (
	"errors"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// hist is a latency histogram with logarithmic buckets 1% wide, from
// 1µs to about 10 minutes. It is safe for concurrent use and its memory
// does not grow with the number of samples, so the load generator's
// footprint stays the same however fast the system runs.
type hist struct {
	counts [histBuckets]atomic.Uint64
}

const (
	histBuckets = 2048
	histGrowth  = 1.01
)

var logGrowth = math.Log(histGrowth)

func (h *hist) add(d time.Duration) {
	i := 0
	if us := float64(d) / 1e3; us > 1 {
		i = min(int(math.Log(us)/logGrowth), histBuckets-1)
	}
	h.counts[i].Add(1)
}

func (h *hist) n() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// quantile returns the p-th quantile in milliseconds, interpolated
// geometrically within its bucket; 0 when the histogram is empty.
func (h *hist) quantile(p float64) float64 {
	total := h.n()
	if total == 0 {
		return 0
	}
	rank := p * float64(total)
	var below float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c > 0 && below+c >= rank {
			frac := (rank - below) / c
			return math.Pow(histGrowth, float64(i)+frac) / 1e3
		}
		below += c
	}
	return math.Pow(histGrowth, histBuckets) / 1e3
}

// tailOK reports whether the p-th percentile of n samples has at least
// ten samples beyond it.
func tailOK(n uint64, p float64) bool {
	return float64(n)*(1-p) >= 10-1e-9
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns the heap that earlier set-ups left behind to the
// operating system and resets the kernel's peak resident set size
// (VmHWM) to the current one, so that peakRSSMB reads the peak over the
// measurement window alone.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the peak resident set size since resetPeakRSS, from the
// VmHWM line of /proc/self/status (in kB).
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// sleepUntil sleeps the calling thread until t. It calls nanosleep
// directly: the Go timer wakes an idle process with only millisecond
// resolution, which would make the open loop send up to a millisecond
// late.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// snapshot holds the process counters a measurement window differences.
type snapshot struct {
	at              time.Time
	cpu             time.Duration
	mallocs         uint64
	gcCPU, totalCPU float64
	walRecords      uint64
	walFsyncs       uint64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func takeSnapshot(dep *deployment) snapshot {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	samples := append([]metrics.Sample(nil), cpuSamples...)
	metrics.Read(samples)
	s := snapshot{at: time.Now(), cpu: cpuTime(), mallocs: m.Mallocs}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = samples[1].Value.Float64()
	}
	s.walRecords, s.walFsyncs = dep.walCounts()
	return s
}
