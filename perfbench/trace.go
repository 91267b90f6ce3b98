package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"sqlgraph/internal/core"
	"sqlgraph/internal/engine"
	"sqlgraph/internal/gremlin"
	"sqlgraph/internal/rel"
	"sqlgraph/internal/sql"
	"sqlgraph/internal/trace"
	"sqlgraph/internal/translate"
)

// queryNames are the per-query figures of engine.exec_us: the Figure 5
// queries, the order/group queries and the point templates.
var queryNames = func() []string {
	var names []string
	for i := 1; i <= 20; i++ {
		names = append(names, fmt.Sprintf("q%02d", i))
	}
	for i := 1; i <= 6; i++ {
		names = append(names, fmt.Sprintf("og%d", i))
	}
	for _, t := range pointTemplates {
		names = append(names, t.name)
	}
	return names
}()

// Shares of --seconds spent in the traced run's three phases: the
// two-client loop over HTTP (GC figures and the WAL counters), the
// single-client pass without tracing, and the traced pass. The second
// and third replay the same streams, so the difference between their
// wall times per operation is the tracing overhead.
const (
	shareLoop     = 0.35
	shareUntraced = 0.15
	shareTraced   = 0.50
)

// layerTracer times calls into each layer's public functions around one
// request, from the benchmark's side: nothing is traced inside the
// program. A read is replayed at each layer below the server; a
// mutation is applied once, by a direct core call, and its WAL time read
// from the store's write counters.
type layerTracer struct {
	e     *env
	prep  map[string]*sql.SelectStmt
	hints map[string]map[string]float64

	serverSelf                            []float64
	coreQuerySelf, pointReads, writeSelf  []float64
	parseUs, translateUs, sqlParseUs      []float64
	exec, alloc                           []float64
	execBy                                map[string][]float64
	examined, rowsOut                     int64
	maxWorkers                            int
	prepHits, prepMisses, planHits, plans uint64
}

func newLayerTracer(e *env) *layerTracer {
	return &layerTracer{e: e, prep: map[string]*sql.SelectStmt{},
		hints: map[string]map[string]float64{}, execBy: map[string][]float64{}}
}

// serve runs one request through the server's handler on an in-memory
// recorder and returns the status, body and handler time.
func serve(h http.Handler, req *request) (int, []byte, time.Duration) {
	var rd io.Reader
	if req.body != nil {
		rd = bytes.NewReader(req.body)
	}
	hr := httptest.NewRequest(req.method, req.path, rd)
	if req.body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, hr)
	d := time.Since(t0)
	return rec.Code, rec.Body.Bytes(), d
}

// applyWrite applies a mutation by a direct core call and returns its
// time and the WAL time inside it (append, fsync and checkpoint).
func applyWrite(s *core.Store, req *request) (status int, d, wal time.Duration, err error) {
	w0 := s.Tracer().WriteStats()
	t0 := time.Now()
	err = req.apply(s)
	d = time.Since(t0)
	w1 := s.Tracer().WriteStats()
	wal = time.Duration((w1.WALAppendNs - w0.WALAppendNs) + (w1.WALFsyncNs - w0.WALFsyncNs) + (w1.CheckpointNs - w0.CheckpointNs))
	if err != nil {
		return http.StatusInternalServerError, d, wal, err
	}
	return http.StatusOK, d, wal, nil
}

// serveLoop replays the clients' streams round-robin from one goroutine
// for dur: reads through the handler, mutations by a direct core call.
// With lt set, each request is also attributed to the layers below.
func serveLoop(e *env, cls []client, dur time.Duration, lt *layerTracer) loopStats {
	var st loopStats
	start := time.Now()
	deadline := start.Add(dur)
	h := e.srv.Handler()
	for i := 0; time.Now().Before(deadline); i++ {
		cl := cls[i%len(cls)]
		req := cl.next()
		var (
			status int
			body   []byte
			d      time.Duration
			err    error
		)
		switch {
		case req.kind == kindWrite:
			var wal time.Duration
			status, d, wal, err = applyWrite(e.store, req)
			if lt != nil && err == nil {
				lt.writeSelf = append(lt.writeSelf, micros(d-wal))
			}
		case lt != nil:
			status, body, d, err = lt.read(h, req)
		default:
			status, body, d = serve(h, req)
		}
		st.record(cl, req, status, body, micros(d), err)
	}
	st.elapsed = time.Since(start)
	return st
}

// wallPerOp is a pass's wall time per operation in µs.
func wallPerOp(st loopStats) float64 {
	return ratio(micros(st.elapsed), float64(st.ops.Attempted))
}

// read serves a read and times the layers below the server for it. The
// returned duration is the server span.
func (lt *layerTracer) read(h http.Handler, req *request) (int, []byte, time.Duration, error) {
	s := lt.e.store
	h0, m0 := s.PreparedCacheStats()
	p0 := s.PlanCacheStats()
	status, body, span := serve(h, req)
	h1, m1 := s.PreparedCacheStats()
	p1 := s.PlanCacheStats()
	if status/100 != 2 {
		return status, body, span, nil
	}

	var coreTime time.Duration
	var err error
	switch req.kind {
	case kindQuery:
		lt.prepHits += h1 - h0
		lt.prepMisses += m1 - m0
		lt.planHits += p1.Hits - p0.Hits
		lt.plans += (p1.Hits - p0.Hits) + (p1.Misses - p0.Misses)
		coreTime, err = lt.query(req, m1 > m0, p1.Misses > p0.Misses)
	default:
		coreTime, err = lt.pointRead(req)
		lt.pointReads = append(lt.pointReads, micros(coreTime))
	}
	if err != nil {
		return status, body, span, err
	}
	lt.serverSelf = append(lt.serverSelf, micros(span-coreTime))
	return status, body, span, nil
}

// query replays a query at the front end (on a prepared-cache miss),
// at core and at the engine, and returns the core time of the request.
// Core's replay is a prepared-cache hit whose plan is cached, so core's
// own part is its time less the engine's on a cached plan; the engine's
// part of the request is timed in the plan-cache state the server's
// request found (a fresh statement plans again).
func (lt *layerTracer) query(req *request, prepMiss, planMiss bool) (time.Duration, error) {
	s := lt.e.store
	var front time.Duration
	stmt, ok := lt.prep[req.gremlin]
	fresh := prepMiss || !ok
	if fresh {
		t0 := time.Now()
		q, err := gremlin.Parse(req.gremlin)
		dParse := time.Since(t0)
		if err != nil {
			return 0, err
		}
		t0 = time.Now()
		tr, _, err := translate.TranslateWithTail(q, s, core.TranslateOptions{})
		dTranslate := time.Since(t0)
		if err != nil {
			return 0, err
		}
		t0 = time.Now()
		parsed, err := sql.Parse(tr.SQL)
		dSQL := time.Since(t0)
		if err != nil {
			return 0, err
		}
		sel, isSelect := parsed.(*sql.SelectStmt)
		if !isSelect {
			return 0, fmt.Errorf("%s: translated SQL is not a SELECT", req.gremlin)
		}
		stmt = sel
		lt.prep[req.gremlin] = sel
		lt.hints[req.gremlin] = tr.Hints
		if prepMiss {
			lt.parseUs = append(lt.parseUs, micros(dParse))
			lt.translateUs = append(lt.translateUs, micros(dTranslate))
			lt.sqlParseUs = append(lt.sqlParseUs, micros(dSQL))
			front = dParse + dTranslate + dSQL
		}
	}

	snap := s.Snapshot()
	t0 := time.Now()
	_, err := snap.QueryTraced(req.gremlin, core.TranslateOptions{}, "")
	dCore := time.Since(t0)
	snap.Close()
	if err != nil {
		return 0, err
	}

	hints := lt.hints[req.gremlin]
	var asServer engineCall
	if fresh {
		if asServer, err = timeEngine(s, stmt, hints); err != nil {
			return 0, err
		}
	}
	cached, err := timeEngine(s, stmt, hints)
	if err != nil {
		return 0, err
	}
	if !(fresh && planMiss) {
		asServer = cached
	}
	lt.exec = append(lt.exec, micros(asServer.d))
	lt.execBy[req.qname] = append(lt.execBy[req.qname], micros(asServer.d))
	lt.alloc = append(lt.alloc, float64(asServer.alloc))
	st := &asServer.rows.Stats
	for _, sc := range st.Scans {
		lt.examined += int64(sc.RowsIn)
	}
	for _, j := range st.Joins {
		lt.examined += int64(j.BuildRows + j.ProbeRows)
	}
	lt.rowsOut += int64(max(len(asServer.rows.Data), 1))
	lt.maxWorkers = max(lt.maxWorkers, st.MaxWorkers())
	coreSelf := dCore - cached.d
	lt.coreQuerySelf = append(lt.coreQuerySelf, micros(coreSelf))
	return front + coreSelf + asServer.d, nil
}

// engineCall is one timed executor call and its allocation.
type engineCall struct {
	d     time.Duration
	alloc uint64
	rows  *engine.Rows
}

// timeEngine runs stmt on the executor alone, measuring the bytes
// allocated during the call (this is the only goroutine running queries).
func timeEngine(s *core.Store, stmt *sql.SelectStmt, hints map[string]float64) (engineCall, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	rows, err := s.Engine().QueryStmtHintedAt(stmt, rel.Latest, hints)
	d := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	return engineCall{d: d, alloc: ms1.TotalAlloc - ms0.TotalAlloc, rows: rows}, err
}

// pointRead replays a point read at core on a fresh snapshot, as the
// handler does, and returns its time.
func (lt *layerTracer) pointRead(req *request) (time.Duration, error) {
	snap := lt.e.store.Snapshot()
	defer snap.Close()
	t0 := time.Now()
	var err error
	switch req.kind {
	case kindVertex:
		_, err = snap.VertexAttrs(req.id)
	case kindOut:
		if req.label != "" {
			_, err = snap.OutEdges(req.id, req.label)
		} else {
			_, err = snap.OutEdges(req.id)
		}
	case kindEdge:
		if _, err = snap.Edge(req.id); err == nil {
			_, err = snap.EdgeAttrs(req.id)
		}
	}
	return time.Since(t0), err
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tracedRun reports the per-layer metrics. After the warm-up it runs the
// two-client loop over HTTP (runtime and WAL figures), then replays the
// streams from one client untraced and traced.
func tracedRun(cfg config, e *env, m, extra metricSet) (opCounts, []string) {
	cls := newClients(e)
	all := warmUp(cfg, e, cls)
	secs := func(share float64) time.Duration {
		return time.Duration(cfg.seconds * share * float64(time.Second))
	}

	ws0 := e.store.Tracer().WriteStats()
	io0, ioOK := storageWrites()
	g0 := readGC()
	loop := runLoop(e, cls, secs(shareLoop))
	g1 := readGC()

	untraced := serveLoop(e, cls, secs(shareUntraced), nil)
	lt := newLayerTracer(e)
	traced := serveLoop(e, cls, secs(shareTraced), lt)
	ws1 := e.store.Tracer().WriteStats()
	io1, _ := storageWrites()

	gcFrac, pauseP99, pauses := gcWindow(g0, g1)
	m.set("runtime.gc_cpu_fraction", "ratio", gcFrac, 1)
	m.set("runtime.gc_pause_p99_us", "us", pauseP99, pauses)

	med := func(name, unit string, xs []float64) { m.set(name, unit, median(xs), len(xs)) }
	med("server.self_us", "us", lt.serverSelf)
	m.set("core.prepared_hit_ratio", "ratio", ratio(float64(lt.prepHits), float64(lt.prepHits+lt.prepMisses)),
		int(lt.prepHits+lt.prepMisses))
	med("core.query_self_us", "us", lt.coreQuerySelf)
	med("core.point_read_us", "us", lt.pointReads)
	med("core.write_us", "us", lt.writeSelf)
	med("gremlin.parse_us", "us", lt.parseUs)
	med("translate.translate_us", "us", lt.translateUs)
	med("sql.parse_us", "us", lt.sqlParseUs)
	med("engine.exec_us", "us", lt.exec)
	for _, q := range queryNames {
		med("engine.exec_us."+q, "us", lt.execBy[q])
	}
	m.set("engine.rows_examined_per_row_out", "ratio", ratio(float64(lt.examined), float64(lt.rowsOut)), len(lt.exec))
	med("engine.alloc_bytes_per_query", "B", lt.alloc)
	m.set("engine.plan_cache_hit_ratio", "ratio", ratio(float64(lt.planHits), float64(lt.plans)), int(lt.plans))
	m.set("engine.max_workers", "count", float64(lt.maxWorkers), len(lt.exec))

	// WAL figures over the whole measured traced run: counters need no
	// tracing, and the longer window spans more checkpoints.
	writes := loop.writes + untraced.writes + traced.writes
	userBytes := loop.userBytes + untraced.userBytes + traced.userBytes
	walWindow(m, ws0, ws1, writes)
	var written float64
	if ioOK {
		written = float64(io1 - io0)
	}
	m.set("wal.bytes_written_per_user_byte", "ratio", ratio(written, float64(userBytes)), int(writes))

	// Tracing overhead: the traced pass's wall time per operation, with
	// its replays at every layer, against the untraced pass's, for the
	// same streams and dispatch.
	untracedWall, tracedWall := wallPerOp(untraced), wallPerOp(traced)
	m.set("trace.overhead_pct", "%", 100*ratio(tracedWall-untracedWall, untracedWall), int(traced.ops.Attempted))
	extra.set("trace.untraced_wall_per_op_us", "us", untracedWall, int(untraced.ops.Attempted))
	extra.set("trace.traced_wall_per_op_us", "us", tracedWall, int(traced.ops.Attempted))
	if len(loop.writeLat) > 0 {
		sort.Float64s(loop.writeLat)
		extra.set("write_p50_us", "us", percentile(loop.writeLat, 50), len(loop.writeLat))
		extra.set("write_p99_us", "us", percentile(loop.writeLat, 99), len(loop.writeLat))
	}

	for _, st := range []loopStats{loop, untraced, traced} {
		all.merge(st)
	}
	return all.ops, all.failures
}

// walWindow sets the WAL figures from the write counters' change over a
// window with the given number of acknowledged mutations.
func walWindow(m metricSet, a, b trace.WriteStats, writes int64) {
	fsyncs := float64(b.WALFsyncs - a.WALFsyncs)
	appends := float64(b.WALAppends - a.WALAppends)
	cps := float64(b.Checkpoints - a.Checkpoints)
	m.set("wal.fsyncs_per_write", "ratio", ratio(fsyncs, float64(writes)), int(writes))
	m.set("wal.fsync_us", "us", ratio(float64(b.WALFsyncNs-a.WALFsyncNs)/1e3, fsyncs), int(fsyncs))
	m.set("wal.append_us", "us", ratio(float64(b.WALAppendNs-a.WALAppendNs)/1e3, appends), int(appends))
	m.set("wal.checkpoints", "count", cps, int(cps))
	m.set("wal.checkpoint_ms", "ms", ratio(float64(b.CheckpointNs-a.CheckpointNs)/1e6, cps), int(cps))
}
