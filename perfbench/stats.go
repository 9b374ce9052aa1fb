package main

import (
	"errors"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

var epoch = time.Now()

// clock returns monotonic nanoseconds since process start.
func clock() int64 { return int64(time.Since(epoch)) }

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs, which
// it sorts in place. It returns 0 for an empty slice.
func percentile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(q*float64(len(xs))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []int64) int64 { return percentile(xs, 0.5) }

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func us(ns int64) float64 { return float64(ns) / 1e3 }
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// procSample is a snapshot of process-wide counters taken at the edges of
// the timed window.
type procSample struct {
	mallocs uint64
	cpuNS   int64 // user + system CPU time of the process
	gcCPU   float64
	allCPU  float64
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(cpuMetrics)
	return procSample{
		mallocs: ms.Mallocs,
		cpuNS:   ru.Utime.Nano() + ru.Stime.Nano(),
		gcCPU:   cpuMetrics[0].Value.Float64(),
		allCPU:  cpuMetrics[1].Value.Float64(),
	}
}

// rssMB returns the process's resident set (VmRSS) in MiB.
func rssMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if fields := strings.Fields(line); len(fields) >= 2 && fields[0] == "VmRSS:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmRSS in /proc/self/status")
}

// rssPeak samples the resident set every 10ms from start until finish.
// Unlike the kernel's high-water mark it leaves out what ran before start:
// input generation and the set-up channels.
type rssPeak struct {
	stop, done chan struct{}
	stopOnce   sync.Once
	peak       float64
	err        error
}

func startRSSPeak() *rssPeak {
	p := &rssPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			mb, err := rssMB()
			if err != nil {
				p.err = err
				return
			}
			p.peak = max(p.peak, mb)
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// finish stops the sampling and returns the highest resident set seen. It
// may be called more than once.
func (p *rssPeak) finish() (float64, error) {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
	return p.peak, p.err
}
