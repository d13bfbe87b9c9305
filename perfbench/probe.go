package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"repro/internal/api"
	"repro/internal/apps"
	"repro/internal/dfg"
	"repro/internal/harness"
	rmetrics "repro/internal/metrics"
	"repro/internal/server"
)

// Request-path stages in the order tyrd runs them (server.handleRun).
// The probe times each from outside, through the same public functions.
const (
	stDecode  = iota // JSON body -> api.Request (strict, as tyrd decodes)
	stPlan           // api.Request.Plan, which includes Validate
	stQueue          // server.Pool submit -> job start
	stResolve        // api.Plan.ResolveAppBound (apps / prog oracle)
	stCache          // server.GraphCache lookup, compiling on a miss
	stRun            // harness.Run minus the cache lookup inside it
	stEncode         // api.RunResult -> indented JSON, as tyrd encodes
	numStages
)

var stageNames = [numStages]string{"decode", "plan", "queue", "resolve", "cache", "run", "encode"}

// oracleMaxSteps matches tyrd's default inline-source oracle budget.
const oracleMaxSteps = 1 << 32

// requestRecord is one request's trip through the probe.
type requestRecord struct {
	system, group string
	stage         [numStages]time.Duration
	total         time.Duration
	fired         int64
	allocs        uint64
	runCPU        time.Duration // process CPU time of the harness.Run call
	hitLookup     time.Duration // a repeat lookup of the same graph: always a hit
}

// pathProbe runs /v1/run bodies through tyrd's request path in process,
// timing each stage: decode, plan, pool queue, resolve, graph cache,
// harness run, encode. Stage self-times plus the untimed remainder
// ("other") add up to the request's in-process time.
type pathProbe struct {
	stats   *server.Metrics
	cache   *server.GraphCache
	pool    *server.Pool
	records []requestRecord
	// extraHits counts the probe's own repeat lookups, which the cache
	// counts as hits; cacheCounts takes them out, and the counts present
	// when the window opened (warm-up compiles).
	extraHits      int64
	hits0, misses0 float64
}

func newPathProbe() *pathProbe {
	stats := server.NewMetrics()
	return &pathProbe{
		stats: stats,
		cache: server.NewGraphCache(64, stats, nil),
		pool:  server.NewPool(1, 4, stats),
	}
}

func (p *pathProbe) close() { p.pool.Close() }

// timedGraphs is the harness.GraphSource the probe hands to harness.Run:
// it forwards to the graph cache and accumulates the time spent there.
type timedGraphs struct {
	cache *server.GraphCache
	spent time.Duration
	last  func() (*dfg.Graph, error)
}

func (t *timedGraphs) Tagged(app *apps.App) (*dfg.Graph, error) {
	start := time.Now()
	g, err := t.cache.Tagged(app)
	t.spent += time.Since(start)
	t.last = func() (*dfg.Graph, error) { return t.cache.Tagged(app) }
	return g, err
}

func (t *timedGraphs) Ordered(app *apps.App) (*dfg.Graph, error) {
	start := time.Now()
	g, err := t.cache.Ordered(app)
	t.spent += time.Since(start)
	t.last = func() (*dfg.Graph, error) { return t.cache.Ordered(app) }
	return g, err
}

// heapAllocs reads the cumulative heap allocation count (objects) without
// stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

// do runs one request body through the path and returns the run's stats.
// group labels the run for per-kernel aggregation and the CPU profile.
func (p *pathProbe) do(body []byte, group string) (rmetrics.RunStats, error) {
	var rec requestRecord
	start := time.Now()
	mark := start
	lap := func(st int) {
		now := time.Now()
		rec.stage[st] += now.Sub(mark)
		mark = now
	}

	var req api.Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return rmetrics.RunStats{}, fmt.Errorf("decoding request body: %w", err)
	}
	lap(stDecode)
	plan, err := req.Plan()
	if err != nil {
		return rmetrics.RunStats{}, err
	}
	lap(stPlan)

	var rs rmetrics.RunStats
	var runErr error
	graphs := &timedGraphs{cache: p.cache}
	done := make(chan struct{})
	submitted := time.Now()
	err = p.pool.Submit(func() {
		defer close(done)
		rec.stage[stQueue] = time.Since(submitted)
		t0 := time.Now()
		app, err := plan.ResolveAppBound(nil, oracleMaxSteps)
		rec.stage[stResolve] = time.Since(t0)
		if err != nil {
			runErr = err
			return
		}
		sc := plan.Cfg
		sc.Compiler = graphs
		a0, c0 := heapAllocs(), processCPU()
		t1 := time.Now()
		labels := pprof.Labels("system", req.System, "group", group)
		pprof.Do(context.Background(), labels, func(context.Context) {
			rs, runErr = harness.Run(app, req.System, sc)
		})
		runTime := time.Since(t1)
		rec.runCPU = processCPU() - c0
		rec.allocs = heapAllocs() - a0
		rec.stage[stCache] = graphs.spent
		rec.stage[stRun] = runTime - graphs.spent
	})
	if err != nil {
		return rmetrics.RunStats{}, err
	}
	<-done
	mark = time.Now()
	if runErr != nil {
		return rs, runErr
	}
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(api.RunResult{Version: api.Version, Stats: rs, Checked: rs.Completed && !req.SkipCheck}); err != nil {
		return rs, err
	}
	lap(stEncode)
	rec.total = time.Since(start)

	if graphs.last != nil {
		t := time.Now()
		if _, err := graphs.last(); err != nil {
			return rs, err
		}
		rec.hitLookup = time.Since(t)
		p.extraHits++
	}
	rec.system, rec.group, rec.fired = req.System, group, rs.Fired
	p.records = append(p.records, rec)
	return rs, nil
}

// accounting is the probe's per-request layer breakdown: mean self-time
// of each stage and of the untimed remainder, in microseconds.
type accounting struct {
	stage [numStages]float64
	total float64
	other float64
	n     int
}

func (p *pathProbe) accounting() accounting {
	var a accounting
	for _, r := range p.records {
		var sum time.Duration
		for i, d := range r.stage {
			a.stage[i] += us(d)
			sum += d
		}
		a.total += us(r.total)
		a.other += us(r.total - sum)
	}
	a.n = len(p.records)
	if a.n == 0 {
		return a
	}
	for i := range a.stage {
		a.stage[i] /= float64(a.n)
	}
	a.total /= float64(a.n)
	a.other /= float64(a.n)
	return a
}

// print writes the layer table: the stage self-times and the
// remainder sum to the in-process request time by construction, and the
// remainder's size says how much of the request the stages explain.
func (a accounting) print(r *report) {
	fmt.Fprintf(r.log, "layer accounting over %d in-process requests (mean self time per request):\n", a.n)
	for i, name := range stageNames {
		fmt.Fprintf(r.log, "  %-10s %12.1f us %6.1f%%\n", name, a.stage[i], 100*a.stage[i]/a.total)
	}
	fmt.Fprintf(r.log, "  %-10s %12.1f us %6.1f%%\n", "other", a.other, 100*a.other/a.total)
	fmt.Fprintf(r.log, "  %-10s %12.1f us\n", "request", a.total)
}

// cacheCounts reads the probe cache's hit and miss counters since
// markCounts, less the probe's own repeat lookups.
func (p *pathProbe) cacheCounts() (hits, misses float64, err error) {
	var b bytes.Buffer
	if _, err := p.stats.WriteTo(&b); err != nil {
		return 0, 0, err
	}
	m := parseProm(b.String())
	return m["tyrd_graph_cache_hits_total"] - float64(p.extraHits) - p.hits0, m["tyrd_graph_cache_misses_total"] - p.misses0, nil
}

// markCounts opens the probe's window: later cacheCounts exclude lookups
// made before it.
func (p *pathProbe) markCounts() error {
	var err error
	p.hits0, p.misses0, err = p.cacheCounts()
	return err
}
