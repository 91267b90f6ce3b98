package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// machine identifies where a result was measured. Only results from the
// same machine are comparable.
type machine struct {
	NumCPU     int            `json:"num_cpu"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	FsyncP50us float64        `json:"fsync_p50_us"`
	Seed       int64          `json:"seed"`
	Dataset    map[string]int `json:"dataset"`
}

// probeMachine records the machine block, measuring the fsync latency of
// 4 KiB appends to a file in dir (the directory the durable stores use).
func probeMachine(dir string, seed int64) (machine, error) {
	m := machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Seed:       seed,
	}
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return m, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	var lat []float64
	for i := 0; i < 41; i++ {
		if _, err := f.Write(buf); err != nil {
			return m, err
		}
		t0 := time.Now()
		if err := f.Sync(); err != nil {
			return m, err
		}
		if i > 0 { // the first sync also allocates the file's blocks
			lat = append(lat, micros(time.Since(t0)))
		}
	}
	m.FsyncP50us = median(lat)
	return m, nil
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Runtime metrics, read through runtime/metrics so sampling never stops
// the world.
const (
	mHeapLive = "/gc/heap/live:bytes"
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU = "/cpu/classes/total:cpu-seconds"
	mGCPauses = "/sched/pauses/total/gc:seconds"
)

// gcSnapshot is the GC CPU time, total CPU time and pause histogram at
// one instant; the difference of two gives a window's GC share and pauses.
type gcSnapshot struct {
	gcCPU, totalCPU float64
	pauses          *metrics.Float64Histogram
}

func readGC() gcSnapshot {
	s := []metrics.Sample{{Name: mGCCPU}, {Name: mTotalCPU}, {Name: mGCPauses}}
	metrics.Read(s)
	g := gcSnapshot{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64()}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		g.pauses = s[2].Value.Float64Histogram()
	}
	return g
}

// gcWindow returns the GC share of CPU time between a and b, the p99 GC
// pause in microseconds (the upper bound of its histogram bucket) and the
// number of pauses.
func gcWindow(a, b gcSnapshot) (cpuFraction, pauseP99us float64, pauses int) {
	if d := b.totalCPU - a.totalCPU; d > 0 {
		cpuFraction = (b.gcCPU - a.gcCPU) / d
	}
	if a.pauses == nil || b.pauses == nil {
		return cpuFraction, 0, 0
	}
	counts := make([]uint64, len(b.pauses.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return cpuFraction, 0, 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= want {
			hi := b.pauses.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.pauses.Buckets[i]
			}
			return cpuFraction, hi * 1e6, int(total)
		}
	}
	return cpuFraction, 0, int(total)
}

// heapSampler tracks the peak live heap (as of each GC's end) while it
// runs.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
	n    int
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: mHeapLive}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			h.n++
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MiB and the sample
// count.
func (h *heapSampler) finish() (float64, int) {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20), h.n
}

// storageWrites returns the bytes this process has caused to be written
// to storage (write_bytes of /proc/self/io); ok is false where the kernel
// does not report it.
func storageWrites() (n int64, ok bool) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, found := strings.CutPrefix(sc.Text(), "write_bytes: "); found {
			n, err := strconv.ParseInt(v, 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}
