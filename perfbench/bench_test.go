package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/prog"
)

func TestGeneratorsDeterministic(t *testing.T) {
	join := func(bs [][]byte) []byte { return bytes.Join(bs, []byte{'\n'}) }
	gen := func(seed int64) (tiny, pool, source []byte) {
		p := programPool(seed, 320)
		return join(tinySequence(seed, 500)),
			[]byte(strings.Join(p, "\x00")),
			join(sourceSequence(seed, streamSource, p, 500))
	}
	t1, p1, s1 := gen(7)
	t2, p2, s2 := gen(7)
	if !bytes.Equal(t1, t2) || !bytes.Equal(p1, p2) || !bytes.Equal(s1, s2) {
		t.Fatal("the same seed gave different inputs")
	}
	t3, p3, s3 := gen(8)
	if bytes.Equal(t1, t3) || bytes.Equal(p1, p3) || bytes.Equal(s1, s3) {
		t.Fatal("different seeds gave identical inputs")
	}
}

// The serve-source pool must be at least four times tyrd's default
// 64-graph LRU, made of distinct valid programs that every system runs to
// the reference interpreter's result.
func TestProgramPool(t *testing.T) {
	pool := programPool(3, 320)
	seen := map[string]bool{}
	for i, src := range pool {
		if seen[src] {
			t.Fatalf("program %d is a duplicate", i)
		}
		seen[src] = true
		p, err := prog.Parse(src)
		if err != nil {
			t.Fatalf("program %d: %v\n%s", i, err, src)
		}
		app, err := apps.FromProgram("", p, nil)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		if i%16 != 0 {
			continue
		}
		for _, sys := range harness.Systems {
			if _, err := harness.Run(app, sys, harness.SysConfig{}); err != nil {
				t.Fatalf("program %d on %s: %v", i, sys, err)
			}
		}
	}
	if len(seen) < 4*64 {
		t.Fatalf("pool has %d distinct programs, want >= 256", len(seen))
	}
}

// The metric lists the benchmark checks its output against must be the
// ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, benchmark %s %s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEndMetrics)
	same("per_layer", decl.PerLayer, perLayerMetrics())
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("workloads: BENCHMARK.json %v, benchmark %v", names, workloads)
	}
}

// A run whose simulated cycles differ from the recorded ones fails and
// reports no metrics.
func TestGateFailsOnCycleMismatch(t *testing.T) {
	su, err := setUpSim(apps.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	app := su.suite[0]
	var log bytes.Buffer
	rep := newReport(&log)
	cells := []simCell{{app: app, sys: harness.SysTyr, reps: 1, want: cellRecord{Cycles: 1, Fired: 1}}}
	measureSim(options{seed: 1}, rep, cells, su.graphs, 0.01, nil)
	var out bytes.Buffer
	if err := rep.write(&out, false); err != nil {
		t.Fatal(err)
	}
	var res struct {
		Correct bool
		Failed  int
		Metrics map[string]any
	}
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || len(res.Metrics) != 0 {
		t.Fatalf("mismatch not failed: %s", out.String())
	}
}

// TestSmoke runs every workload end to end, untraced and traced, on tiny
// inputs, including the correctness gate and tyrd as its own process.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs tyrd")
	}
	tyrd := filepath.Join(t.TempDir(), "tyrd")
	if out, err := exec.Command("go", "build", "-o", tyrd, "repro/cmd/tyrd").CombinedOutput(); err != nil {
		t.Fatalf("building tyrd: %v\n%s", err, out)
	}
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			var log bytes.Buffer
			rep, err := run(options{workload: wl, seed: 1, seconds: 1, trace: trace, smoke: true, tyrd: tyrd}, &log)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", wl, trace, err, log.String())
			}
			var out bytes.Buffer
			if err := rep.write(&out, trace); err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", wl, trace, err, log.String())
			}
			var res struct {
				Correct   bool
				Attempted int
				Metrics   map[string]metric
			}
			if err := json.Unmarshal(out.Bytes(), &res); err != nil {
				t.Fatal(err)
			}
			want := len(endToEndMetrics)
			if trace {
				want = len(perLayerMetrics())
			}
			if !res.Correct || res.Attempted < 1 || len(res.Metrics) != want {
				t.Fatalf("%s trace=%v: %s\n%s", wl, trace, out.String(), log.String())
			}
			if trace && !strings.Contains(log.String(), "layer accounting") {
				t.Errorf("%s: no layer accounting printed", wl)
			}
		}
	}
}
