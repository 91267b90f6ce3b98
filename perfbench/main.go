// Command perfbench is the repository benchmark. It boots sqlgraphd's
// serving stack in this process (server.New(store, …).Handler() behind a
// loopback listener, with the daemon's default configuration), drives it
// with two closed-loop clients, checks every response, and prints the
// metrics BENCHMARK.json names.
//
//	perfbench --workload dbpedia_analytic|dbpedia_point|linkbench_durable
//	          --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it reports the per-layer metrics of a traced run (see
// README.md). The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; the line before it is
// a detailed report with the machine block, sample counts and raw
// failure counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"time"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the dataset and the request streams")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	cfg.setups = 5
	cfg.trace = *traceFlag == 1
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	setups   int // set-ups timed for setup_s (median); the last one is measured
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output, the benchmark's contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the detailed line printed before the result: everything the
// result line carries plus the machine, sample counts, raw failure counts
// and the output checks.
type report struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Trace    bool             `json:"trace"`
	Machine  machine          `json:"machine"`
	Ops      opCounts         `json:"ops"`
	Checks   []string         `json:"checks"`
	Failures []string         `json:"failures,omitempty"`
	Metrics  map[string]entry `json:"metrics"`
	// Extra holds figures the result line does not carry: write latency
	// on mutating workloads and the traced run's side figures.
	Extra map[string]entry `json:"extra,omitempty"`
}

// entry is a metric with the number of samples behind it.
type entry struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// opCounts is the failure accounting of a run: every operation attempted,
// and every one answered with a non-2xx status or lost to a transport
// error. Mismatches are 2xx answers whose content was wrong.
type opCounts struct {
	Attempted  int64   `json:"attempted"`
	Succeeded  int64   `json:"succeeded"`
	Failed     int64   `json:"failed"`
	Non2xx     int64   `json:"non_2xx"`
	Transport  int64   `json:"transport_errors"`
	Mismatches int64   `json:"mismatches"`
	ErrorRate  float64 `json:"error_rate"`
}

func (o *opCounts) add(b opCounts) {
	o.Attempted += b.Attempted
	o.Succeeded += b.Succeeded
	o.Failed += b.Failed
	o.Non2xx += b.Non2xx
	o.Transport += b.Transport
	o.Mismatches += b.Mismatches
}

// metricSet collects a run's figures.
type metricSet map[string]entry

func (m metricSet) set(name, unit string, v float64, samples int) {
	if math.IsInf(v, 1) { // a percentile that landed on a failed operation
		v = math.MaxFloat64
	}
	m[name] = entry{Value: v, Unit: unit, Samples: samples}
}

func run(cfg config, out io.Writer) error {
	setup, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want %s)", cfg.workload, workloadNames())
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if cfg.setups < 1 {
		cfg.setups = 1
	}
	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	mach, err := probeMachine(tmp, cfg.seed)
	if err != nil {
		return err
	}

	// Set up cfg.setups times and keep the last stack; setup_s is the
	// median, so a one-off stall does not move it.
	setups := cfg.setups
	if cfg.trace {
		setups = 1
	}
	var e *env
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return err
			}
		}
		// Each set-up starts as in a fresh process: the previous stack
		// collected and its memory returned to the OS.
		debug.FreeOSMemory()
		t0 := time.Now()
		e, err = setup(cfg.seed, tmp)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer e.close()
	if err := e.prepare(); err != nil {
		return fmt.Errorf("%s oracle: %w", cfg.workload, err)
	}
	mach.Dataset = e.sizes

	m, extra := metricSet{}, metricSet{}
	spaceAmp := float64(e.store.TotalBytes()) / float64(e.userBytes) // after set-up, before any request
	var ops opCounts
	var failures []string
	if cfg.trace {
		ops, failures = tracedRun(cfg, e, m, extra)
	} else {
		ops, failures = untracedRun(cfg, e, m, extra)
		m.set("setup_s", "s", median(setupTimes), len(setupTimes))
		m.set("space_amp", "ratio", spaceAmp, 1)
	}
	checks, checkFailures := e.finalChecks()
	failures = append(failures, checkFailures...)
	if ops.Attempted > 0 {
		ops.ErrorRate = float64(ops.Failed) / float64(ops.Attempted)
	}
	if ops.Attempted == 0 {
		failures = append(failures, "no operation completed")
		ops.Attempted = 1
		ops.Failed = 1
	}
	correct := len(failures) == 0 && ops.Failed == 0 && ops.Mismatches == 0

	rep := report{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Machine: mach,
		Ops: ops, Checks: checks, Failures: failures, Metrics: m, Extra: extra}
	res := result{Correct: correct, Attempted: ops.Attempted, Failed: ops.Failed, Metrics: map[string]metric{}}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res.Metrics[name] = metric{Value: m[name].Value, Unit: m[name].Unit}
	}
	for _, v := range []any{rep, res} {
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", line)
	}
	return nil
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for i, n := range names {
		if i > 0 {
			s += "|"
		}
		s += n
	}
	return s
}
