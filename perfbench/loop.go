package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// loopStats is what a run of client loops observed.
type loopStats struct {
	ops       opCounts
	lat       []float64       // µs per operation; +Inf for a failed one
	ends      []time.Duration // runLoop only: when each operation of lat ended, from the loop's start
	writeLat  []float64       // µs per mutation; +Inf for a failed one
	writes    int64           // acknowledged mutations
	userBytes int64           // their bytes of user data
	failures  []string        // the first few failures, for the report
	elapsed   time.Duration
}

const keepFailures = 5

func (s *loopStats) merge(b loopStats) {
	s.ops.add(b.ops)
	s.lat = append(s.lat, b.lat...)
	s.ends = append(s.ends, b.ends...)
	s.writeLat = append(s.writeLat, b.writeLat...)
	s.writes += b.writes
	s.userBytes += b.userBytes
	for _, f := range b.failures {
		if len(s.failures) < keepFailures {
			s.failures = append(s.failures, f)
		}
	}
}

// record accounts one finished operation: status 0 is a transport error,
// any status outside 2xx a failure, and a 2xx answer is checked by the
// client. A failed operation misses every latency limit.
func (s *loopStats) record(cl client, req *request, status int, body []byte, us float64, opErr error) {
	s.ops.Attempted++
	ok := status/100 == 2
	switch {
	case status == 0:
		s.ops.Transport++
	case !ok:
		s.ops.Non2xx++
	}
	if !ok {
		s.ops.Failed++
		us = math.Inf(1)
		s.fail(fmt.Sprintf("%s %s -> %d %v %.200s", req.method, req.path, status, opErr, body))
	} else {
		s.ops.Succeeded++
		if opErr != nil { // the traced run's replay of a served read failed
			s.ops.Mismatches++
			s.fail(fmt.Sprintf("%s %s: replay: %v", req.method, req.path, opErr))
		}
		if req.kind == kindWrite {
			s.writes++
			s.userBytes += req.userBytes
		}
	}
	if err := cl.done(status, body); err != nil {
		s.ops.Mismatches++
		s.fail("wrong answer: " + err.Error())
	}
	s.lat = append(s.lat, us)
	if req.kind == kindWrite {
		s.writeLat = append(s.writeLat, us)
	}
}

func (s *loopStats) fail(msg string) {
	if len(s.failures) < keepFailures {
		s.failures = append(s.failures, msg)
	}
}

// runLoop drives every client in its own goroutine over HTTP, closed
// loop, for dur.
func runLoop(e *env, cls []client, dur time.Duration) loopStats {
	start := time.Now()
	deadline := start.Add(dur)
	per := make([]loopStats, len(cls))
	var wg sync.WaitGroup
	for c := range cls {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &per[c]
			hc := &httpConn{addr: e.addr}
			defer hc.close()
			for time.Now().Before(deadline) {
				req := cls[c].next()
				t0 := time.Now()
				status, body, err := hc.do(req)
				st.record(cls[c], req, status, body, micros(time.Since(t0)), err)
				st.ends = append(st.ends, time.Since(start))
			}
		}(c)
	}
	wg.Wait()
	var all loopStats
	for _, st := range per {
		all.merge(st)
	}
	all.elapsed = time.Since(start)
	return all
}

// httpConn is one client's keep-alive HTTP/1.1 connection to the server.
// It writes each request and reads its answer on the calling goroutine,
// with buffers reused from one request to the next, so the client adds
// few goroutine hand-offs and little garbage to the process it shares
// with the server. A sqlgraphd client runs in another process.
type httpConn struct {
	addr string
	c    net.Conn // nil until the first request, and after an error
	br   *bufio.Reader
	wb   []byte
	body bytes.Buffer
}

// do sends req and reads the whole answer. Status 0 means a transport
// error. The body returned is valid until the next call.
func (h *httpConn) do(req *request) (int, []byte, error) {
	if h.c == nil {
		c, err := net.Dial("tcp", h.addr)
		if err != nil {
			return 0, nil, err
		}
		h.c = c
		h.br = bufio.NewReader(c)
	}
	status, err := h.roundTrip(req)
	if err != nil {
		h.close()
		return 0, nil, err
	}
	return status, h.body.Bytes(), nil
}

func (h *httpConn) roundTrip(req *request) (int, error) {
	if err := h.c.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
		return 0, err
	}
	h.wb = append(h.wb[:0], req.method...)
	h.wb = append(h.wb, ' ')
	h.wb = append(h.wb, req.path...)
	h.wb = append(h.wb, " HTTP/1.1\r\nHost: perfbench\r\n"...)
	if req.body != nil {
		h.wb = append(h.wb, "Content-Type: application/json\r\nContent-Length: "...)
		h.wb = strconv.AppendInt(h.wb, int64(len(req.body)), 10)
		h.wb = append(h.wb, "\r\n"...)
	}
	h.wb = append(h.wb, "\r\n"...)
	h.wb = append(h.wb, req.body...)
	if _, err := h.c.Write(h.wb); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil {
		return 0, err
	}
	h.body.Reset()
	_, err = h.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.Close { // the server closes the connection after this answer
		h.close()
	}
	return resp.StatusCode, nil
}

func (h *httpConn) close() {
	if h.c != nil {
		h.c.Close()
		h.c = nil
	}
}

// newClients returns the workload's request streams.
func newClients(e *env) []client {
	cls := make([]client, clients)
	for c := range cls {
		cls[c] = e.newClient(c)
	}
	return cls
}

// warmUp runs the closed loop briefly so caches fill before timing; its
// operations are counted and checked, not timed.
func warmUp(cfg config, e *env, cls []client) loopStats {
	d := time.Duration(cfg.seconds / 5 * float64(time.Second))
	if d > 3*time.Second {
		d = 3 * time.Second
	}
	return runLoop(e, cls, d)
}

// untracedRun measures the end-to-end metrics: throughput, latency,
// peak live heap and space amplification, with tracing off.
func untracedRun(cfg config, e *env, m, extra metricSet) (opCounts, []string) {
	cls := newClients(e)
	warm := warmUp(cfg, e, cls)

	heap := startHeapSampler()
	ws0 := e.store.Tracer().WriteStats()
	st := runLoop(e, cls, time.Duration(cfg.seconds*float64(time.Second)))
	ws1 := e.store.Tracer().WriteStats()
	peak, heapSamples := heap.finish()
	if fsyncs := ws1.WALFsyncs - ws0.WALFsyncs; fsyncs > 0 {
		extra.set("wal.fsync_us", "us", float64(ws1.WALFsyncNs-ws0.WALFsyncNs)/1e3/float64(fsyncs), int(fsyncs))
	}

	p99, _ := windowedP99(st.lat, st.ends)
	sort.Float64s(st.lat)
	sort.Float64s(st.writeLat)
	n := len(st.lat)
	m.set("throughput_ops_s", "1/s", float64(st.ops.Succeeded)/st.elapsed.Seconds(), n)
	m.set("latency_p50_us", "us", percentile(st.lat, 50), n)
	m.set("latency_p99_us", "us", p99, n)
	extra.set("latency_p99_whole_run_us", "us", percentile(st.lat, 99), n)
	m.set("heap_peak_mb", "MiB", peak, heapSamples)
	if len(st.writeLat) > 0 {
		extra.set("write_p50_us", "us", percentile(st.writeLat, 50), len(st.writeLat))
		extra.set("write_p99_us", "us", percentile(st.writeLat, 99), len(st.writeLat))
	}
	st.merge(warm)
	return st.ops, st.failures
}

// Operations per window of windowedP99, at least: the p99 of a window
// is then its third slowest operation or a slower one's rank further in.
const p99WindowOps = 200

// windowedP99 splits the operations, in the order they ended, into
// consecutive windows of equal count, at most 30 and each of at least
// p99WindowOps operations, and returns the median of the windows' p99s
// and the number of windows. A stall that covers a few windows, such as a
// neighbour's burst of work on a shared machine, then moves the figure
// little, while the tail of the steady state sets it. With fewer
// than 2·p99WindowOps operations it is the p99 of the whole run.
func windowedP99(lat []float64, ends []time.Duration) (float64, int) {
	idx := make([]int, len(lat))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return ends[idx[a]] < ends[idx[b]] })
	k := len(lat) / p99WindowOps
	k = max(1, min(k, 30))
	p99s := make([]float64, 0, k)
	for w := 0; w < k; w++ {
		win := make([]float64, 0, len(idx)/k+1)
		for _, i := range idx[w*len(idx)/k : (w+1)*len(idx)/k] {
			win = append(win, lat[i])
		}
		sort.Float64s(win)
		p99s = append(p99s, percentile(win, 99))
	}
	return median(p99s), k
}
