package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/prog"
)

// tyrdProc is a tyrd child process serving on a loopback port.
type tyrdProc struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed when the process has exited
	err  error         // Wait's result, valid after done
}

// startTyrd starts tyrd with default flags on a free loopback port and
// waits until /v1/healthz answers. The child is killed if this process
// dies, so an interrupted benchmark leaves nothing running.
func startTyrd(bin string, log io.Writer) (*tyrdProc, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr := l.Addr().String()
		l.Close()
		p := &tyrdProc{cmd: exec.Command(bin, "-addr", addr), base: "http://" + addr, done: make(chan struct{})}
		p.cmd.Stdout, p.cmd.Stderr = log, log
		p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := p.cmd.Start(); err != nil {
			return nil, fmt.Errorf("starting tyrd: %w", err)
		}
		go func() {
			p.err = p.cmd.Wait()
			close(p.done)
		}()
		if lastErr = p.waitHealthy(30 * time.Second); lastErr == nil {
			return p, nil
		}
		p.stop()
	}
	return nil, lastErr
}

func (p *tyrdProc) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	client := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("tyrd exited during start-up: %v", p.err)
		default:
		}
		resp, err := client.Get(p.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("tyrd did not become healthy")
}

// stop sends SIGTERM (tyrd drains and exits) and waits, killing it if the
// drain takes too long.
func (p *tyrdProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

func (p *tyrdProc) scrape(client *http.Client) (map[string]float64, error) {
	resp, err := client.Get(p.base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(string(b)), nil
}

// runReply is the part of a /v1/run response the benchmark checks.
type runReply struct {
	Checked bool `json:"checked"`
	Stats   struct {
		System    string `json:"system"`
		App       string `json:"app"`
		Completed bool   `json:"completed"`
		Cycles    int64  `json:"cycles"`
		Fired     int64  `json:"fired"`
		WallNS    int64  `json:"wall_ns"`
	} `json:"stats"`
}

// loadResult is one closed-loop window.
type loadResult struct {
	attempted, failed int64
	done              []completion
	elapsed           time.Duration
}

// completion is one request that passed the check.
type completion struct {
	at    time.Duration // since the window opened
	ms    float64       // client-side latency
	reply runReply
}

// closedLoop sends bodies[i] for i = 0, 1, ... (wrapping) over conns
// connections, each sending its next request when its previous reply has
// arrived, until the window closes, or with a zero window until every
// body has been sent once. check validates each 200 reply; any other
// status, transport error or failed check counts as failed.
func closedLoop(client *http.Client, url string, bodies [][]byte, conns int, window time.Duration, check func(runReply) error) (loadResult, []error) {
	var next atomic.Int64
	var mu sync.Mutex
	var res loadResult
	var errs []error
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for window == 0 || time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if window == 0 && i >= len(bodies) {
					return
				}
				body := bodies[i%len(bodies)]
				t := time.Now()
				reply, err := post(client, url, body)
				d := time.Since(t)
				if err == nil {
					err = check(reply)
				}
				mu.Lock()
				res.attempted++
				if err != nil {
					res.failed++
					if len(errs) < 20 {
						errs = append(errs, fmt.Errorf("request %d: %w", i, err))
					}
				} else {
					res.done = append(res.done, completion{at: time.Since(start), ms: ms(d), reply: reply})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res, errs
}

func post(client *http.Client, url string, body []byte) (runReply, error) {
	var reply runReply
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	if err := json.Unmarshal(b, &reply); err != nil {
		return reply, err
	}
	return reply, nil
}

// serveInputs is a serve workload's generated traffic.
type serveInputs struct {
	warm, bodies [][]byte
	pool         []string // serve-source programs
}

func serveTraffic(o options) serveInputs {
	n, poolSize := 1<<14, 320
	if o.smoke {
		n, poolSize = 256, 24
	}
	if o.workload == wlTiny {
		var warm [][]byte
		for range 2 {
			for _, c := range tinyCells() {
				warm = append(warm, mustJSON(c))
			}
		}
		return serveInputs{warm: warm, bodies: tinySequence(o.seed, n)}
	}
	pool := programPool(o.seed, poolSize)
	return serveInputs{
		warm:   sourceSequence(o.seed, streamWarm, pool, poolSize/2),
		bodies: sourceSequence(o.seed, streamSource, pool, n),
		pool:   pool,
	}
}

func runServe(o options, rep *report) error {
	if o.tyrd == "" {
		return errors.New("serve workloads need -tyrd")
	}
	// One CPU is left to the load generator, which shares the host, so
	// the latency measured is tyrd's and not contention with the client.
	conns := max(1, runtime.NumCPU()-1)
	setUps := 5
	if o.smoke {
		setUps = 1
	}
	in := serveTraffic(o)

	// The correctness gate for tiny cells: the served cycles must equal
	// the same cell run in process, which must equal the recorded value.
	want, err := expectedCells()
	if err != nil {
		return err
	}
	inProcess := map[string]int64{}
	for _, app := range apps.Suite(apps.ScaleTiny) {
		for _, sys := range harness.Systems {
			rs, err := harness.Run(app, sys, harness.SysConfig{})
			if err != nil {
				return fmt.Errorf("in-process %s/%s: %w", app.Name, sys, err)
			}
			key := app.Name + "/" + sys
			if rec := want["tiny"][key]; rs.Cycles != rec.Cycles || rs.Fired != rec.Fired {
				rep.fail("in-process %s: cycles %d fired %d, recorded %d and %d", key, rs.Cycles, rs.Fired, rec.Cycles, rec.Fired)
			}
			inProcess[key] = rs.Cycles
		}
	}
	if !rep.correct() {
		return nil
	}
	check := func(r runReply) error {
		if !r.Checked || !r.Stats.Completed {
			return fmt.Errorf("%s/%s: checked=%v completed=%v", r.Stats.App, r.Stats.System, r.Checked, r.Stats.Completed)
		}
		if o.workload == wlTiny {
			key := r.Stats.App + "/" + r.Stats.System
			if c, ok := inProcess[key]; !ok || c != r.Stats.Cycles {
				return fmt.Errorf("%s: served %d cycles, in process %d", key, r.Stats.Cycles, c)
			}
		}
		return nil
	}

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	logf, err := os.Create(".bench_build/tyrd.log")
	if err != nil {
		return err
	}
	defer logf.Close()
	client := &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns},
	}
	defer client.CloseIdleConnections()

	// Set-up: boot tyrd to healthy and send the warm pass, several times;
	// the last instance serves the measurement.
	var tyrd *tyrdProc
	var setupTimes []time.Duration
	for i := 0; i < setUps; i++ {
		if tyrd != nil {
			tyrd.stop()
		}
		t := time.Now()
		if tyrd, err = startTyrd(o.tyrd, logf); err != nil {
			return err
		}
		warm, errs := closedLoop(client, tyrd.base+"/v1/run", in.warm, conns, 0, check)
		setupTimes = append(setupTimes, time.Since(t))
		if warm.failed > 0 {
			tyrd.stop()
			for _, e := range errs {
				rep.fail("warm pass: %v", e)
			}
			return nil
		}
	}
	defer tyrd.stop()

	url := tyrd.base + "/v1/run"
	window := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		res, errs := closedLoop(client, url, in.bodies, conns, window, check)
		if !gate(rep, res, errs) {
			return nil
		}
		rep.set("setup_s", "s", medianSeconds(setupTimes), fmt.Sprintf("median of %d boots + warm passes", len(setupTimes)))
		rss, err := peakRSSMB(tyrd.cmd.Process.Pid)
		if err != nil {
			return err
		}
		rep.set("peak_rss_mb", "MB", rss, "VmHWM of tyrd")
		reportLoad(rep, res, conns)
		return nil
	}

	// Traced: an untraced half, then a half bracketed by /v1/metrics
	// scrapes, then the in-process request-path probe over the start of
	// the same request sequence.
	base, errs := closedLoop(client, url, in.bodies, conns, window/2, check)
	if !gate(rep, base, errs) {
		return nil
	}
	before, err := tyrd.scrape(client)
	if err != nil {
		return err
	}
	traced, errs := closedLoop(client, url, in.bodies, conns, window/2, check)
	after, err := tyrd.scrape(client)
	if err != nil {
		return err
	}
	if !gate(rep, traced, errs) {
		return nil
	}
	rep.set("trace.overhead_ratio", "ratio", rate(base)/rate(traced), "untraced rps / traced rps")
	d := promDiff(before, after)
	srv := tyrdLayers(d)
	rep.set("compile.count", "count", srv.misses, "tyrd graph compiles in the traced window")
	tyrd.stop()

	return probeServe(o, rep, in, &srv)
}

// probeServe runs the traced in-process part of a serve workload.
func probeServe(o options, rep *report, in serveInputs, srv *serverLayers) error {
	probeN := 400
	if o.smoke {
		probeN = 40
	}
	probe := newPathProbe()
	defer probe.close()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	var probeErr error
	for i := 0; i < probeN && probeErr == nil; i++ {
		body := in.bodies[i%len(in.bodies)]
		var req struct{ App string }
		_ = json.Unmarshal(body, &req) // group label only; the probe decodes for real
		group := req.App
		if group == "" {
			group = "source"
		}
		_, probeErr = probe.do(body, group)
	}
	// One pass over the tiny cells gives every per-kernel engine figure,
	// whichever cells the sequence's prefix happened to draw.
	if probeErr == nil {
		for _, c := range tinyCells() {
			if _, probeErr = probe.do(mustJSON(c), c.App); probeErr != nil {
				break
			}
		}
	}
	pprof.StopCPUProfile()
	if probeErr != nil {
		rep.fail("in-process request path: %v", probeErr)
		return nil
	}
	if err := reportProbe(rep, probe, prof.Bytes(), srv); err != nil {
		return err
	}

	t := time.Now()
	suite := apps.Suite(apps.ScaleTiny)
	rep.set("apps.suite_build_ms", "ms", ms(time.Since(t)), "tiny scale")
	progs := suite
	if o.workload == wlSource {
		progs = nil
		for _, src := range in.pool[:min(len(in.pool), 64)] {
			p, err := prog.Parse(src)
			if err != nil {
				return err
			}
			app, err := apps.FromProgram("", p, nil)
			if err != nil {
				return err
			}
			progs = append(progs, app)
		}
	}
	var tagged, ordered []time.Duration
	for _, app := range progs {
		_, ds, err := compileBoth(app)
		if err != nil {
			return err
		}
		tagged, ordered = append(tagged, ds[0]), append(ordered, ds[1])
	}
	rep.set("compile.tagged_ms", "ms", mean(msAll(tagged)), fmt.Sprintf("mean over %d programs", len(progs)))
	rep.set("compile.ordered_ms", "ms", mean(msAll(ordered)), "")
	return reportProgLayers(rep, progs)
}

// gate applies the serve correctness gate to a window: every request must
// have returned 200 with a checked, completed, exact result.
func gate(rep *report, res loadResult, errs []error) bool {
	rep.attempted += res.attempted
	rep.failed += res.failed
	for _, e := range errs {
		rep.fail("%v", e)
	}
	if res.failed > 0 && len(errs) == 0 {
		rep.fail("%d requests failed", res.failed)
	}
	return rep.correct()
}

func rate(r loadResult) float64 { return float64(len(r.done)) / r.elapsed.Seconds() }

// loadSlices is how many equal slices of the window the serve metrics are
// taken over; each metric is the median over the slices, so a burst of
// host contention that spoils one slice does not move it.
const loadSlices = 5

func reportLoad(rep *report, res loadResult, conns int) {
	slices := make([][]completion, loadSlices)
	for _, c := range res.done {
		i := min(int(int64(c.at)*loadSlices/int64(res.elapsed)), loadSlices-1)
		slices[i] = append(slices[i], c)
	}
	var rps, p50, p99 []float64
	nsPerFire := map[string][]float64{}
	minN := len(res.done)
	for _, sl := range slices {
		minN = min(minN, len(sl))
		lat := make([]float64, len(sl))
		for i, c := range sl {
			lat[i] = c.ms
		}
		rps = append(rps, float64(len(sl))/(res.elapsed.Seconds()/loadSlices))
		p50 = append(p50, median(lat))
		p99 = append(p99, quantile(lat, tailQuantile(len(lat))))
		for sys, x := range sliceNSPerFire(sl) {
			nsPerFire[sys] = append(nsPerFire[sys], x)
		}
	}
	note := fmt.Sprintf("median over %d slices of %.1fs", loadSlices, res.elapsed.Seconds()/loadSlices)
	for _, sys := range harness.Systems {
		rep.set("ns_per_fire."+sys, "ns", median(nsPerFire[sys]), note+"; tyrd wall_ns, gmean over programs of per-program means")
	}
	rep.set("rps", "1/s", median(rps), fmt.Sprintf("%s; %d connections, %d requests", note, conns, len(res.done)))
	rep.set("p50_ms", "ms", median(p50), note)
	rep.set("p99_ms", "ms", median(p99), fmt.Sprintf("%s; p%s at the smallest slice's n=%d", note, strconv.FormatFloat(100*tailQuantile(minN), 'f', -1, 64), minN))
	rep.set("success_ratio", "ratio", float64(res.attempted-res.failed)/float64(res.attempted), fmt.Sprintf("%d attempted", res.attempted))
}

// sliceNSPerFire returns, per system, ns per fire as tyrd measured it
// (RunStats.WallNS: graph lookup, image, engine and check): the mean per
// program group (total time over total fires, see cellNSPerFire), then
// the gmean over the groups.
func sliceNSPerFire(sl []completion) map[string]float64 {
	type sum struct{ ns, fired int64 }
	byGroup := map[string]map[string]sum{}
	for _, c := range sl {
		st := c.reply.Stats
		if byGroup[st.System] == nil {
			byGroup[st.System] = map[string]sum{}
		}
		g := byGroup[st.System][st.App]
		g.ns += st.WallNS
		g.fired += st.Fired
		byGroup[st.System][st.App] = g
	}
	out := map[string]float64{}
	for sys, groups := range byGroup {
		var means []float64
		for _, g := range groups {
			means = append(means, float64(g.ns)/float64(g.fired))
		}
		out[sys] = gmean(means)
	}
	return out
}
