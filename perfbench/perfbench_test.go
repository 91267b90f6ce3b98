package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"sqlgraph/internal/bench/linkbench"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// exercised lists, per workload, per-layer figures that must not read 0:
// the layers the workload is there to exercise. linkbench_durable writes
// too seldom for a short traced pass to be sure of a write, so
// core.write_us is checked on linkbench_table6 alone.
var exercised = map[string][]string{
	"dbpedia_analytic": {"server.self_us", "core.query_self_us", "engine.exec_us",
		"engine.alloc_bytes_per_query", "engine.plan_cache_hit_ratio", "core.prepared_hit_ratio",
		"engine.max_workers", "runtime.gc_cpu_fraction"},
	"dbpedia_point": {"server.self_us", "core.point_read_us", "gremlin.parse_us", "translate.translate_us",
		"sql.parse_us", "engine.exec_us.out", "engine.rows_examined_per_row_out"},
	"linkbench_durable": {"server.self_us", "core.point_read_us", "wal.fsyncs_per_write",
		"wal.fsync_us", "wal.append_us", "wal.bytes_written_per_user_byte"},
	"linkbench_table6": {"server.self_us", "core.point_read_us", "core.write_us", "wal.fsyncs_per_write",
		"wal.fsync_us", "wal.append_us", "wal.bytes_written_per_user_byte"},
}

// TestSelf runs every workload briefly, untraced and traced, and checks
// that each metric BENCHMARK.json names is emitted with its unit, that
// the output checks pass and that no operation failed. It covers the
// workloads BENCHMARK.json leaves out too.
func TestSelf(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	seconds := 5.0
	if testing.Short() {
		seconds = 2
	}
	t.Setenv("TMPDIR", t.TempDir())
	for w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w + map[bool]string{false: "/untraced", true: "/traced"}[traced]
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				cfg := config{workload: w, seed: 7, seconds: seconds, trace: traced, setups: 1}
				if err := run(cfg, &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				if len(lines) < 2 {
					t.Fatalf("want a report and a result line, got %q", out.String())
				}
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rep); err != nil {
					t.Fatal(err)
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || rep.Ops.ErrorRate != 0 || len(rep.Failures) > 0 {
					t.Fatalf("run not clean: ops %+v, failures %q", rep.Ops, rep.Failures)
				}
				if res.Attempted < 1 || res.Attempted != rep.Ops.Attempted {
					t.Fatalf("attempted %d, report %d", res.Attempted, rep.Ops.Attempted)
				}
				want := sp.EndToEnd
				if traced {
					want = sp.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s: unit %q, want %q", m.Name, got.Unit, m.Unit)
					case !traced && got.Value <= 0:
						t.Errorf("metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if traced {
					for _, name := range exercised[w] {
						if res.Metrics[name].Value == 0 {
							t.Errorf("%s reads 0 on %s", name, w)
						}
					}
				}
				if strings.HasPrefix(w, "linkbench_") && len(rep.Checks) != 2 {
					t.Errorf("durability checks: %q", rep.Checks)
				}
			})
		}
	}
}

// TestForgetFailedWrite checks that a LinkBench client builds nothing on a
// failed mutation, whose effect is unknown: it does not reuse the id of a
// failed add, and stops touching and checking the target of a failed
// delete or update.
func TestForgetFailedWrite(t *testing.T) {
	l := newLBClient(0, 7, &lbShared{objects: 10, links: 6})
	l.linkData[0], l.linkData[2] = "a", "b"

	l.op, l.pending = linkbench.OpAddLink, request{id: l.nextLink}
	next := l.nextLink
	l.done(500, nil)
	if l.nextLink == next || len(l.links) != 3 {
		t.Errorf("failed add: next link id %d (was %d), links %v", l.nextLink, next, l.links)
	}

	l.op, l.slot, l.pending = linkbench.OpDeleteLink, 0, request{id: 0}
	l.done(500, nil)
	if slices.Contains(l.links, 0) || l.linkGone[0] {
		t.Errorf("failed delete: links %v, gone %v", l.links, l.linkGone)
	}
	if _, ok := l.linkData[0]; ok {
		t.Error("failed delete: link 0's data is still checked")
	}

	l.op, l.pending = linkbench.OpUpdateLink, request{id: 2}
	l.done(500, nil)
	if _, ok := l.linkData[2]; ok {
		t.Error("failed update: link 2's data is still checked")
	}
}

// TestWindowedP99 checks that a stall confined to a few windows leaves
// the windowed p99 at the steady state's, and that a short run falls
// back to the p99 of the whole run.
func TestWindowedP99(t *testing.T) {
	const n = 30 * p99WindowOps
	lat := make([]float64, n)
	ends := make([]time.Duration, n)
	for i := range lat {
		// The operations arrive out of end order, as the clients merge them.
		j := n - 1 - i
		ends[i] = time.Duration(j) * time.Millisecond
		lat[i] = float64(j%100 + 1)
		if j < 3*p99WindowOps { // a stall over the first three windows
			lat[i] = 1e6
		}
	}
	if p99, k := windowedP99(lat, ends); p99 != 99 || k != 30 {
		t.Errorf("windowedP99 = %v over %d windows, want 99 over 30", p99, k)
	}

	short := []float64{5, 1, 4, 2, 3}
	ends = []time.Duration{4, 0, 3, 1, 2}
	if p99, k := windowedP99(short, ends); p99 != 5 || k != 1 {
		t.Errorf("short run: windowedP99 = %v over %d windows, want 5 over 1", p99, k)
	}
}
