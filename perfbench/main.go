// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks every output it measures, and prints
// each metric by name with its unit, ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// also times the repository's layers from outside (request path stages,
// CPU-profile phase shares, allocation counts) and prints the per-layer
// metrics instead. README.md in this directory describes the workloads,
// the metrics and how to compare two commits.
//
// Usage (run.sh builds the binary and tyrd first):
//
//	bash perfbench/run.sh --workload sim-medium --seed 1 --seconds 35 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"

	"repro/internal/harness"
)

// Workload names.
const (
	wlSim    = "sim-medium"
	wlTiny   = "serve-tiny"
	wlSource = "serve-source"
)

var workloads = []string{wlSim, wlTiny, wlSource}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// smoke shrinks every input (tiny scale, short windows, few set-ups)
	// so the benchmark's own tests can run each workload end to end.
	smoke bool
	tyrd  string // tyrd binary for the serve workloads
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed for the generated inputs and the cell order")
	flag.Float64Var(&o.seconds, "seconds", 35, "measurement time per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny inputs and short windows (self-test)")
	flag.StringVar(&o.tyrd, "tyrd", "", "path to the tyrd binary (serve workloads)")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	rep, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := rep.write(os.Stdout, o.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

// run executes one workload and returns its report. An error means the
// benchmark could not run at all (bad flags, no tyrd); a failed
// correctness gate is recorded in the report instead.
func run(o options, log io.Writer) (*report, error) {
	if o.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	rep := newReport(log)
	fmt.Fprintf(log, "perfbench %s seed=%d seconds=%g trace=%v smoke=%v GOMAXPROCS=%d NumCPU=%d\n",
		o.workload, o.seed, o.seconds, o.trace, o.smoke, runtime.GOMAXPROCS(0), runtime.NumCPU())
	var err error
	switch o.workload {
	case wlSim:
		err = runSim(o, rep)
	case wlTiny, wlSource:
		err = runServe(o, rep)
	default:
		return nil, fmt.Errorf("unknown -workload %q (want %s)", o.workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics, counts and correctness-gate
// failures, echoing each metric to the log as it is set.
type report struct {
	log       io.Writer
	metrics   map[string]metric
	attempted int64
	failed    int64
	gate      []string
}

func newReport(log io.Writer) *report {
	return &report{log: log, metrics: make(map[string]metric)}
}

// set records a metric; note (sample count, percentile used) is printed
// beside it for the reader and kept out of the JSON.
func (r *report) set(name, unit string, v float64, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.log, "  %-36s %14.6g %-6s %s\n", name, v, unit, note)
}

// fail records a correctness-gate failure; the run then reports no
// metrics and exits nonzero.
func (r *report) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.gate) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench: correctness gate:", msg)
	}
	r.gate = append(r.gate, msg)
}

func (r *report) correct() bool { return len(r.gate) == 0 }

// write prints the final JSON line. The metric set must be exactly the
// declared one for the mode; a gap is a benchmark bug, reported as such.
func (r *report) write(w io.Writer, trace bool) error {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Correct = false
	}
	if out.Correct {
		want := endToEndMetrics
		if trace {
			want = perLayerMetrics()
		}
		var missing []string
		for _, m := range want {
			v, ok := r.metrics[m.name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				missing = append(missing, m.name)
				continue
			}
			out.Metrics[m.name] = v
		}
		if len(missing) > 0 {
			sort.Strings(missing)
			return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// metricDef is one declared metric; the lists below mirror
// BENCHMARK.json (a test keeps them in step).
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ns_per_fire.vN", "ns"},
	{"ns_per_fire.seqdf", "ns"},
	{"ns_per_fire.ordered", "ns"},
	{"ns_per_fire.unordered", "ns"},
	{"ns_per_fire.tyr", "ns"},
	{"rps", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"success_ratio", "ratio"},
}

// kernels are the suite's kernel names in presentation order.
var kernels = []string{"dmv", "dmm", "dconv", "smv", "spmspv", "spmspm", "tc"}

// phases are the CPU-profile buckets of the tagged engine (profile.go).
var phases = []string{"deliver", "fire", "tagops", "emit", "mem", "runtime", "other"}

func perLayerMetrics() []metricDef {
	ms := []metricDef{
		{"api.decode_us", "us"}, {"api.plan_us", "us"}, {"api.encode_us", "us"},
		{"apps.resolve_us", "us"}, {"apps.suite_build_ms", "ms"},
		{"prog.parse_us", "us"}, {"prog.check_us", "us"}, {"prog.oracle_ns_per_step", "ns"},
		{"compile.tagged_ms", "ms"}, {"compile.ordered_ms", "ms"}, {"compile.count", "count"},
		{"server.cache_hit_ratio", "ratio"}, {"server.cache_lookup_us", "us"},
		{"server.queue_wait_ms", "ms"}, {"server.requests", "count"}, {"server.failed", "count"},
		{"server.stage.admission_ms", "ms"}, {"server.stage.resolve_ms", "ms"},
		{"server.stage.compile_ms", "ms"}, {"server.stage.run_ms", "ms"},
		{"harness.image_us", "us"}, {"harness.check_us", "us"},
		{"layers.request_us", "us"}, {"layers.other_us", "us"},
		{"prog.share.mapaccess", "ratio"},
		{"trace.overhead_ratio", "ratio"},
	}
	for _, sys := range harness.Systems {
		for _, k := range kernels {
			ms = append(ms, metricDef{"engine." + sys + "." + k + ".ns_per_fire", "ns"})
		}
		ms = append(ms, metricDef{"engine." + sys + ".fires", "count"}, metricDef{"engine." + sys + ".allocs_per_fire", "count"})
	}
	for _, sys := range []string{"tyr", "unordered"} {
		for _, ph := range phases {
			ms = append(ms, metricDef{"core.share." + sys + "." + ph, "ratio"})
		}
	}
	return ms
}
