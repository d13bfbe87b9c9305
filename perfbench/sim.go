package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/apps"
	"repro/internal/compile"
	"repro/internal/dfg"
	"repro/internal/harness"
)

// cells.json holds the exact simulated cycles and fired instructions of
// every (kernel, system) cell at tiny and medium scale on flat memory.
// They are host-independent; any difference is a change in meaning, and
// fails the run.
//
//go:embed cells.json
var cellsJSON []byte

type cellRecord struct {
	Cycles int64 `json:"cycles"`
	Fired  int64 `json:"fired"`
}

// expectedCells maps scale -> "kernel/system" -> exact record.
func expectedCells() (map[string]map[string]cellRecord, error) {
	var m map[string]map[string]cellRecord
	if err := json.Unmarshal(cellsJSON, &m); err != nil {
		return nil, fmt.Errorf("cells.json: %w", err)
	}
	return m, nil
}

// fixedGraphs serves graphs compiled in set-up, so timed runs exclude
// compilation.
type fixedGraphs map[*apps.App][2]*dfg.Graph

func (f fixedGraphs) Tagged(app *apps.App) (*dfg.Graph, error)  { return f.get(app, 0) }
func (f fixedGraphs) Ordered(app *apps.App) (*dfg.Graph, error) { return f.get(app, 1) }

func (f fixedGraphs) get(app *apps.App, i int) (*dfg.Graph, error) {
	if g := f[app][i]; g != nil {
		return g, nil
	}
	return nil, fmt.Errorf("no graph compiled for %s", app.Name)
}

// simSetUp is the sim workload's set-up: build the suite and compile every
// kernel's tagged and ordered graphs.
type simSetUp struct {
	suite           []*apps.App
	graphs          fixedGraphs
	buildSuite      time.Duration
	tagged, ordered []time.Duration
}

func setUpSim(scale apps.Scale) (simSetUp, error) {
	var s simSetUp
	t := time.Now()
	s.suite = apps.Suite(scale)
	s.buildSuite = time.Since(t)
	s.graphs = fixedGraphs{}
	for _, app := range s.suite {
		gs, ds, err := compileBoth(app)
		if err != nil {
			return s, err
		}
		s.graphs[app] = gs
		s.tagged, s.ordered = append(s.tagged, ds[0]), append(s.ordered, ds[1])
	}
	return s, nil
}

// compileBoth compiles a program's tagged and ordered lowerings, timing
// each.
func compileBoth(app *apps.App) ([2]*dfg.Graph, [2]time.Duration, error) {
	var gs [2]*dfg.Graph
	var ds [2]time.Duration
	opts := compile.Options{EntryArgs: app.Args}
	var err error
	t := time.Now()
	if gs[0], err = compile.Tagged(app.Prog, opts); err != nil {
		return gs, ds, fmt.Errorf("compiling %s: %w", app.Name, err)
	}
	ds[0] = time.Since(t)
	t = time.Now()
	if gs[1], err = compile.Ordered(app.Prog, opts); err != nil {
		return gs, ds, fmt.Errorf("compiling %s: %w", app.Name, err)
	}
	ds[1] = time.Since(t)
	return gs, ds, nil
}

type simCell struct {
	app  *apps.App
	sys  string
	reps int // runs per visit, so every visit simulates at least repFires
	want cellRecord
	body []byte // the cell as a /v1/run body, for the traced request path
}

// simVisit is one visit to a cell: reps back-to-back runs, timed in
// process CPU time (see processCPU).
type simVisit struct {
	cell  int
	cpu   time.Duration
	fired int64
}

type simWindow struct {
	visits  []simVisit
	passes  []time.Duration // CPU time of each whole pass
	elapsed time.Duration
}

// cellNSPerFire returns each cell's mean CPU ns per fired instruction
// over the window. It is a mean, not a median, because the host's speed
// for memory-heavy code flips between a fast and a slow state many times a
// second, and the mix drifts over minutes. A median of such a two-state
// sample jumps between the states as the mix crosses one half; a mean
// (total time over total work) moves only in proportion.
func (w simWindow) cellNSPerFire() map[int]float64 {
	cpu := map[int]time.Duration{}
	fired := map[int]int64{}
	for _, v := range w.visits {
		cpu[v.cell] += v.cpu
		fired[v.cell] += v.fired
	}
	out := map[int]float64{}
	for c, d := range cpu {
		out[c] = float64(d.Nanoseconds()) / float64(fired[c])
	}
	return out
}

// nsPerFire returns, per system, the gmean over kernels of each cell's
// mean ns per fired instruction.
func (w simWindow) nsPerFire(cells []simCell) (perSys map[string]float64, perCell map[int]float64) {
	perCell = w.cellNSPerFire()
	bySys := map[string][]float64{}
	for i, x := range perCell {
		bySys[cells[i].sys] = append(bySys[cells[i].sys], x)
	}
	perSys = map[string]float64{}
	for sys, xs := range bySys {
		perSys[sys] = gmean(xs)
	}
	return perSys, perCell
}

// measureSim visits every cell once per pass, in a seeded order. Only
// whole passes are measured, so every cell weighs the same in each
// metric; passes continue while the next is expected to end less than
// half a pass past the time budget, and there is always at least one.
// With a probe, each run goes through the in-process request path
// instead of calling the harness directly.
func measureSim(o options, rep *report, cells []simCell, graphs fixedGraphs, seconds float64, probe *pathProbe) simWindow {
	var w simWindow
	r := newRand(o.seed, streamOrder)
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start).Seconds()*(1+0.5/float64(pass)) < seconds; pass++ {
		var passCPU time.Duration
		for _, i := range r.Perm(len(cells)) {
			c := cells[i]
			v := simVisit{cell: i}
			// Each visit starts from a collected heap, so neither its time
			// nor the peak resident set depends on which cell ran before.
			runtime.GC()
			for k := 0; k < c.reps; k++ {
				rep.attempted++
				c0 := processCPU()
				var err error
				var cycles, fired int64
				if probe != nil {
					rs, perr := probe.do(c.body, c.app.Name)
					err, cycles, fired = perr, rs.Cycles, rs.Fired
				} else {
					rs, rerr := harness.Run(c.app, c.sys, harness.SysConfig{Compiler: graphs})
					err, cycles, fired = rerr, rs.Cycles, rs.Fired
				}
				d := processCPU() - c0
				if err != nil {
					rep.failed++
					rep.fail("%s/%s: %v", c.app.Name, c.sys, err)
					return w
				}
				if probe != nil {
					d = probe.records[len(probe.records)-1].runCPU
				}
				if cycles != c.want.Cycles || fired != c.want.Fired {
					rep.failed++
					rep.fail("%s/%s: cycles %d fired %d, recorded %d and %d", c.app.Name, c.sys, cycles, fired, c.want.Cycles, c.want.Fired)
					return w
				}
				v.cpu += d
				v.fired += fired
			}
			w.visits = append(w.visits, v)
			passCPU += v.cpu
		}
		w.passes = append(w.passes, passCPU)
	}
	w.elapsed = time.Since(start)
	return w
}

func runSim(o options, rep *report) error {
	scale, scaleName, setUps, repFires := apps.ScaleMedium, "medium", 25, int64(200_000)
	if o.smoke {
		scale, scaleName, setUps, repFires = apps.ScaleTiny, "tiny", 1, 20_000
	}
	want, err := expectedCells()
	if err != nil {
		return err
	}
	var setupTimes []time.Duration
	var su simSetUp
	for i := 0; i < setUps; i++ {
		c0 := processCPU()
		if su, err = setUpSim(scale); err != nil {
			return err
		}
		setupTimes = append(setupTimes, processCPU()-c0)
	}
	var cells []simCell
	for _, app := range su.suite {
		for _, sys := range harness.Systems {
			rec, ok := want[scaleName][app.Name+"/"+sys]
			if !ok {
				return fmt.Errorf("cells.json has no %s %s/%s", scaleName, app.Name, sys)
			}
			reps := int((repFires + rec.Fired - 1) / rec.Fired)
			body := mustJSON(api.Request{App: app.Name, Scale: scaleName, System: sys})
			cells = append(cells, simCell{app: app, sys: sys, reps: reps, want: rec, body: body})
		}
	}

	if !o.trace {
		w := measureSim(o, rep, cells, su.graphs, o.seconds, nil)
		if !rep.correct() {
			return nil
		}
		rep.set("setup_s", "s", medianSeconds(setupTimes), fmt.Sprintf("median of %d set-ups, CPU time", len(setupTimes)))
		rss, err := peakRSSMB(os.Getpid())
		if err != nil {
			return err
		}
		rep.set("peak_rss_mb", "MB", rss, "VmHWM of this process")
		reportSimWindow(rep, cells, w)
		return nil
	}

	// Traced: half the time untraced, half through the in-process request
	// path with the CPU profiler on, whose ratio is the tracing overhead.
	base := measureSim(o, rep, cells, su.graphs, o.seconds/2, nil)
	if !rep.correct() {
		return nil
	}
	probe := newPathProbe()
	defer probe.close()
	for _, app := range su.suite { // warm the probe's graph cache
		if _, err := probe.cache.Tagged(app); err != nil {
			return err
		}
		if _, err := probe.cache.Ordered(app); err != nil {
			return err
		}
	}
	if err := probe.markCounts(); err != nil {
		return err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	traced := measureSim(o, rep, cells, su.graphs, o.seconds/2, probe)
	pprof.StopCPUProfile()
	if !rep.correct() {
		return nil
	}
	baseNS, _ := base.nsPerFire(cells)
	tracedNS, perCell := traced.nsPerFire(cells)
	var ratios []float64
	for _, sys := range harness.Systems {
		ratios = append(ratios, tracedNS[sys]/baseNS[sys])
	}
	rep.set("trace.overhead_ratio", "ratio", gmean(ratios), "gmean over systems of traced/untraced ns_per_fire")
	for i, c := range cells {
		rep.set("engine."+c.sys+"."+c.app.Name+".ns_per_fire", "ns", perCell[i], "")
	}
	rep.set("apps.suite_build_ms", "ms", ms(su.buildSuite), "")
	rep.set("compile.tagged_ms", "ms", mean(msAll(su.tagged)), "mean over kernels")
	rep.set("compile.ordered_ms", "ms", mean(msAll(su.ordered)), "mean over kernels")
	rep.set("compile.count", "count", float64(len(su.tagged)+len(su.ordered)), "graphs compiled per set-up")
	if err := reportProbe(rep, probe, prof.Bytes(), nil); err != nil {
		return err
	}
	return reportProgLayers(rep, su.suite)
}

// reportSimWindow reports the sim workload's end-to-end metrics. Its
// request is one pass: a sweep of all 35 cells, like a full-grid
// /v1/sweep, so rps counts passes and the latencies are pass times.
func reportSimWindow(rep *report, cells []simCell, w simWindow) {
	perSys, _ := w.nsPerFire(cells)
	for _, sys := range harness.Systems {
		rep.set("ns_per_fire."+sys, "ns", perSys[sys], "gmean over 7 kernels of per-cell means, CPU time")
	}
	var cpu time.Duration
	for _, d := range w.passes {
		cpu += d
	}
	lat := msAll(w.passes)
	n := len(lat)
	rep.set("rps", "1/s", float64(n)/cpu.Seconds(), fmt.Sprintf("passes per CPU second, %d passes in %.1fs CPU, %.1fs wall", n, cpu.Seconds(), w.elapsed.Seconds()))
	rep.set("p50_ms", "ms", median(lat), fmt.Sprintf("pass CPU time, n=%d", n))
	q := tailQuantile(n)
	rep.set("p99_ms", "ms", quantile(lat, q), fmt.Sprintf("pass CPU time, p%s of n=%d", strconv.FormatFloat(100*q, 'f', -1, 64), n))
	rep.set("success_ratio", "ratio", float64(rep.attempted-rep.failed)/float64(rep.attempted), fmt.Sprintf("%d runs attempted", rep.attempted))
}
