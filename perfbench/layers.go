package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/prog"
)

// parseProm reads Prometheus text exposition into sample -> value, the
// sample key being the name with its label set as printed.
func parseProm(text string) map[string]float64 {
	m := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m
}

// promDiff is after - before for every sample in after.
func promDiff(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// serverLayers are the server-side request numbers over a window: from
// tyrd's /v1/metrics for the serve workloads, from the probe for sim.
type serverLayers struct {
	requests, failed float64
	hits, misses     float64
	queueMS          float64
	stageMS          map[string]float64 // admission, resolve, compile, run
}

// tyrdLayers derives serverLayers from a diff of two /v1/metrics scrapes.
func tyrdLayers(d map[string]float64) serverLayers {
	s := serverLayers{stageMS: map[string]float64{}}
	for k, v := range d {
		if strings.HasPrefix(k, `tyrd_requests_total{path="/v1/run"`) {
			s.requests += v
			if !strings.HasSuffix(k, `code="200"}`) {
				s.failed += v
			}
		}
	}
	s.hits = d["tyrd_graph_cache_hits_total"]
	s.misses = d["tyrd_graph_cache_misses_total"]
	if n := d["tyrd_queue_wait_seconds_count"]; n > 0 {
		s.queueMS = 1000 * d["tyrd_queue_wait_seconds_sum"] / n
	}
	for _, st := range []string{"admission", "resolve", "compile", "run"} {
		lbl := `{stage="` + st + `"}`
		if n := d["tyrd_stage_duration_seconds_count"+lbl]; n > 0 {
			s.stageMS[st] = 1000 * d["tyrd_stage_duration_seconds_sum"+lbl] / n
		}
	}
	return s
}

// probeLayers derives serverLayers from the probe's own stage timings,
// using tyrd's stage boundaries (admission = decode + plan).
func probeLayers(p *pathProbe) (serverLayers, error) {
	s := serverLayers{stageMS: map[string]float64{}, requests: float64(len(p.records))}
	var err error
	if s.hits, s.misses, err = p.cacheCounts(); err != nil {
		return s, err
	}
	a := p.accounting()
	s.queueMS = a.stage[stQueue] / 1000
	s.stageMS["admission"] = (a.stage[stDecode] + a.stage[stPlan]) / 1000
	s.stageMS["resolve"] = a.stage[stResolve] / 1000
	s.stageMS["compile"] = a.stage[stCache] / 1000
	s.stageMS["run"] = a.stage[stRun] / 1000
	return s, nil
}

// reportProbe reports everything the probe and its CPU profile measured.
// srv carries tyrd's own view of the window for the serve workloads; nil
// takes the server numbers from the probe.
func reportProbe(rep *report, p *pathProbe, profile []byte, srv *serverLayers) error {
	a := p.accounting()
	if a.n == 0 {
		return fmt.Errorf("probe ran no requests")
	}
	a.print(rep)
	rep.set("api.decode_us", "us", a.stage[stDecode], fmt.Sprintf("n=%d", a.n))
	rep.set("api.plan_us", "us", a.stage[stPlan], "")
	rep.set("api.encode_us", "us", a.stage[stEncode], "")
	rep.set("apps.resolve_us", "us", a.stage[stResolve], "")
	rep.set("layers.request_us", "us", a.total, "in-process request time")
	rep.set("layers.other_us", "us", a.other, "request time no stage accounts for")

	var lookups []float64
	fires := map[string]int64{}
	allocs := map[string]uint64{}
	byCell := map[string][]float64{}
	for _, r := range p.records {
		if r.hitLookup > 0 {
			lookups = append(lookups, us(r.hitLookup))
		}
		fires[r.system] += r.fired
		allocs[r.system] += r.allocs
		if r.fired > 0 {
			key := r.system + "." + r.group
			byCell[key] = append(byCell[key], float64(r.runCPU.Nanoseconds())/float64(r.fired))
		}
	}
	rep.set("server.cache_lookup_us", "us", mean(lookups), fmt.Sprintf("graph cache hit, n=%d", len(lookups)))
	for _, sys := range harness.Systems {
		rep.set("engine."+sys+".fires", "count", float64(fires[sys]), "")
		rep.set("engine."+sys+".allocs_per_fire", "count", float64(allocs[sys])/float64(fires[sys]), "")
		for _, k := range kernels {
			if xs, ok := byCell[sys+"."+k]; ok {
				if _, done := rep.metrics["engine."+sys+"."+k+".ns_per_fire"]; !done {
					rep.set("engine."+sys+"."+k+".ns_per_fire", "ns", median(xs), fmt.Sprintf("n=%d", len(xs)))
				}
			}
		}
	}

	if srv == nil {
		s, err := probeLayers(p)
		if err != nil {
			return err
		}
		srv = &s
	}
	rep.set("server.requests", "count", srv.requests, "")
	rep.set("server.failed", "count", srv.failed, "")
	rep.set("server.cache_hit_ratio", "ratio", srv.hits/(srv.hits+srv.misses), fmt.Sprintf("%.0f hits, %.0f misses", srv.hits, srv.misses))
	rep.set("server.queue_wait_ms", "ms", srv.queueMS, "")
	for _, st := range []string{"admission", "resolve", "compile", "run"} {
		rep.set("server.stage."+st+"_ms", "ms", srv.stageMS[st], "")
	}

	samples, err := parseCPUProfile(profile)
	if err != nil {
		return err
	}
	for _, sys := range []string{"tyr", "unordered"} {
		shares, total := phaseShares(samples, sys, corePhase)
		for _, ph := range phases {
			rep.set("core.share."+sys+"."+ph, "ratio", shares[ph], fmt.Sprintf("of %.2fs CPU", float64(total)/1e9))
		}
	}
	shares, total := phaseShares(samples, "vN", func(fr []string) string {
		if isMapAccess(fr) {
			return "map"
		}
		return "rest"
	})
	rep.set("prog.share.mapaccess", "ratio", shares["map"], fmt.Sprintf("of %.2fs vN CPU", float64(total)/1e9))
	return nil
}

// reportProgLayers times the prog and harness functions on a workload's
// programs: parse of the formatted source, check, the reference
// interpreter (per dynamic instruction), image clone and output check.
func reportProgLayers(rep *report, progs []*apps.App) error {
	var parse, check, image, chk []float64
	var steps int64
	var oracle time.Duration
	for _, app := range progs {
		src := prog.Format(app.Prog)
		t := time.Now()
		p, err := prog.Parse(src)
		parse = append(parse, us(time.Since(t)))
		if err != nil {
			return fmt.Errorf("%s: %w", app.Name, err)
		}
		t = time.Now()
		err = prog.Check(p)
		check = append(check, us(time.Since(t)))
		if err != nil {
			return fmt.Errorf("%s: %w", app.Name, err)
		}
		t = time.Now()
		im := app.NewImage()
		image = append(image, us(time.Since(t)))
		t = time.Now()
		res, err := prog.Run(p, im, prog.RunConfig{Args: app.Args})
		oracle += time.Since(t)
		if err != nil {
			return fmt.Errorf("%s: %w", app.Name, err)
		}
		steps += res.Stats.DynInstrs
		t = time.Now()
		err = app.Check(im, res.Ret)
		chk = append(chk, us(time.Since(t)))
		if err != nil {
			rep.fail("%s: reference interpreter output: %v", app.Name, err)
		}
	}
	n := fmt.Sprintf("mean over %d programs", len(progs))
	rep.set("prog.parse_us", "us", mean(parse), n)
	rep.set("prog.check_us", "us", mean(check), n)
	rep.set("prog.oracle_ns_per_step", "ns", float64(oracle.Nanoseconds())/float64(steps), fmt.Sprintf("%d steps", steps))
	rep.set("harness.image_us", "us", mean(image), n)
	rep.set("harness.check_us", "us", mean(chk), n)
	return nil
}
