package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/prog"
	"repro/internal/seqdf"
	"repro/internal/trace"
	"repro/internal/vn"
)

// The sequential golden pins the two interpreter-driven systems, vN and
// seqdf, exactly: every Result field except wall time (cycles, fires,
// waves, return value, live-state statistics, IPC histogram, decimated
// trace, every prog.Stats counter), the cache counters, the final memory
// image, and for one cell per system the full trace event stream. The
// grid is the suite at tiny and small scale plus the histogram, BFS and
// explicit-stack recursion kernels, each on flat memory, flat memory with
// a 3-cycle load, and the default cache hierarchy (with the 3-cycle load
// latency set, which the hierarchy supersedes).
//
// Regenerate (only legitimate when intentionally changing vN or seqdf
// semantics) with:
//
//	TYR_UPDATE_GOLDEN=1 go test ./internal/harness -run TestSeqGolden
const seqGoldenPath = "testdata/seq_golden.json"

// seqApp is one kernel of the sequential grid, keyed by a stable name.
type seqApp struct {
	key string
	app *apps.App
}

func seqApps() []seqApp {
	var out []seqApp
	for _, s := range []apps.Scale{apps.ScaleTiny, apps.ScaleSmall} {
		for _, app := range apps.Suite(s) {
			out = append(out, seqApp{s.String() + "/" + app.Name, app})
		}
	}
	out = append(out,
		seqApp{"extra/hist", apps.Histogram(200, 16, 11)},
		seqApp{"extra/bfs", apps.Bfs(48, 4, 0.2, 13, 0)},
		seqApp{"extra/fibstack", apps.FibStack(12)},
	)
	return out
}

// seqMemory is one memory configuration of the sequential grid.
type seqMemory struct {
	key     string
	loadLat int
	cache   bool
}

var seqMemories = []seqMemory{
	{"flat", 0, false},
	{"flat/lat=3", 3, false},
	{"cache/lat=3", 3, true},
}

// seqTracedKey names the one kernel per system whose event stream is
// digested (through the hierarchy, so cache events join the stream).
const seqTracedKey = "tiny/dmv"

func statsDigest(s prog.Stats) string {
	return fmt.Sprintf("dyn=%d alu=%d sel=%d ld=%d st=%d br=%d call=%d iters=%d maxlive=%d maxdepth=%d",
		s.DynInstrs, s.ALU, s.Selects, s.Loads, s.Stores, s.Branches, s.Calls, s.LoopIters,
		s.MaxLiveVars, s.MaxCallDepth)
}

// seqTraceDigest hashes a vN or seqdf live-state trace (both are
// (cycle, live) pairs).
func seqTraceDigest(n int, at func(int) (int64, int64)) string {
	h := newFNV()
	for i := 0; i < n; i++ {
		c, l := at(i)
		h.mixI64(c)
		h.mixI64(l)
	}
	return fmt.Sprintf("n=%d fnv=%016x", n, uint64(h))
}

// runSeqCell runs one (system, kernel, memory) cell and digests it.
func runSeqCell(sys string, app *apps.App, m seqMemory, rec *trace.Recorder) (string, error) {
	im := app.NewImage()
	var hier *cache.Hierarchy
	var model mem.AccessModel
	if m.cache {
		cc := cache.DefaultConfig()
		cc.Tracer = rec
		h, err := cache.New(cc, im)
		if err != nil {
			return "", err
		}
		hier, model = h, h
	}
	cacheStats := "nil"
	var body string
	switch sys {
	case SysVN:
		res, err := vn.Run(app.Prog, im, vn.Config{Args: app.Args, LoadLatency: m.loadLat, Memory: model, Tracer: rec})
		if err != nil {
			return "", err
		}
		body = fmt.Sprintf("completed=%v cycles=%d fired=%d ret=%d peaklive=%d meanlive=%v ipc=%s trace=%s stats=[%s] note=%q",
			res.Completed, res.Cycles, res.Fired, res.Ret, res.PeakLive, res.MeanLive, histDigest(res.IPCHist),
			seqTraceDigest(len(res.Trace), func(i int) (int64, int64) { return res.Trace[i].Cycle, res.Trace[i].Live }),
			statsDigest(res.Stats), res.Note)
	case SysSeqDF:
		res, err := seqdf.Run(app.Prog, im, seqdf.Config{Args: app.Args, LoadLatency: int64(m.loadLat), Memory: model, Tracer: rec})
		if err != nil {
			return "", err
		}
		body = fmt.Sprintf("completed=%v cycles=%d fired=%d waves=%d ret=%d peaklive=%d meanlive=%v ipc=%s trace=%s stats=[%s] note=%q",
			res.Completed, res.Cycles, res.Fired, res.Waves, res.Ret, res.PeakLive, res.MeanLive, histDigest(res.IPCHist),
			seqTraceDigest(len(res.Trace), func(i int) (int64, int64) { return res.Trace[i].Cycle, res.Trace[i].Live }),
			statsDigest(res.Stats), res.Note)
	default:
		return "", fmt.Errorf("unknown sequential system %q", sys)
	}
	if hier != nil {
		cs := hier.Stats()
		cacheStats = cacheDigest(&cs)
	}
	d := fmt.Sprintf("%s cache=%s image=%016x", body, cacheStats, im.Checksum())
	if rec != nil {
		d += " events=" + eventsDigest(rec)
	}
	return d, nil
}

func computeSeqDigests(t *testing.T) map[string]string {
	t.Helper()
	digests := make(map[string]string)
	for _, sa := range seqApps() {
		for _, sys := range []string{SysVN, SysSeqDF} {
			for _, m := range seqMemories {
				var rec *trace.Recorder
				if sa.key == seqTracedKey && m.cache {
					rec = trace.NewRecorder(1 << 20)
				}
				key := sys + "/" + sa.key + "/" + m.key
				d, err := runSeqCell(sys, sa.app, m, rec)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				digests[key] = d
			}
		}
	}
	return digests
}

// TestSeqGolden replays the vN and seqdf grid against the committed
// digests.
func TestSeqGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("sequential golden grid is slow; skipped with -short")
	}
	got := computeSeqDigests(t)

	if os.Getenv("TYR_UPDATE_GOLDEN") != "" {
		again := computeSeqDigests(t)
		for k, v := range got {
			if again[k] != v {
				t.Fatalf("nondeterministic digest for %s:\n  %s\n  %s", k, v, again[k])
			}
		}
		data, err := json.MarshalIndent(got, "", "  ") // map keys marshal sorted
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seqGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden digests to %s", len(got), seqGoldenPath)
		return
	}

	data, err := os.ReadFile(seqGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (generate with TYR_UPDATE_GOLDEN=1): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	if len(want) != len(got) {
		t.Errorf("cell count changed: golden has %d, run produced %d", len(want), len(got))
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: cell missing from the grid", key)
			continue
		}
		if g != want[key] {
			t.Errorf("%s: digest diverged\n  golden: %s\n  got:    %s", key, want[key], g)
		}
	}
}
