package harness

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/metrics"
)

// TestTraceContract pins the live-state trace every machine reports, the
// series Figs. 2, 9, 16 and 18 plot side by side: whatever the cap and
// the memory model, the trace is non-empty and within it, its cycles
// strictly increase, it keeps the run's peak live state, and it ends at
// the run's last cycle.
func TestTraceContract(t *testing.T) {
	cc := cache.DefaultConfig()
	memories := []struct {
		name string
		cfg  SysConfig
	}{
		{"flat", SysConfig{}},
		{"lat=3", SysConfig{LoadLatency: 3}},
		{"cache", SysConfig{LoadLatency: 3, Cache: &cc}},
	}
	for _, scale := range []apps.Scale{apps.ScaleTiny, apps.ScaleSmall} {
		for _, app := range apps.Suite(scale) {
			for _, sys := range Systems {
				for _, m := range memories {
					for _, pts := range []int{0, 3, 5, 16} {
						name := fmt.Sprintf("%s/%s/%s/%s/pts=%d", scale, app.Name, sys, m.name, pts)
						cfg := m.cfg
						cfg.TracePoints = pts
						rs, err := Run(app, sys, cfg)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						checkTrace(t, name, rs, pts)
					}
				}
			}
		}
	}
}

// TestTraceOnCycleClock pins that the trace's time axis is cycles, stalls
// included: slower memory stretches vN's whole curve, not just its final
// point.
func TestTraceOnCycleClock(t *testing.T) {
	app := apps.Kernel(apps.ScaleTiny, "dmv")
	flat, err := Run(app, SysVN, SysConfig{TracePoints: 8})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(app, SysVN, SysConfig{TracePoints: 8, LoadLatency: 4})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Cycles <= flat.Cycles {
		t.Fatalf("load latency 4 took %d cycles, flat memory %d", slow.Cycles, flat.Cycles)
	}
	interior := func(tr []metrics.TracePoint) []metrics.TracePoint { return tr[:len(tr)-1] }
	if reflect.DeepEqual(interior(slow.Trace), interior(flat.Trace)) {
		t.Errorf("load latency 4 kept the flat run's interior points %v, then ends at %d", interior(flat.Trace), slow.Cycles)
	}
}

func checkTrace(t *testing.T, name string, rs metrics.RunStats, pts int) {
	t.Helper()
	limit := pts
	if limit == 0 {
		limit = metrics.DefaultTracePoints
	}
	if n := len(rs.Trace); n < 1 || n > limit {
		t.Errorf("%s: trace has %d points, want 1..%d", name, n, limit)
		return
	}
	var peak int64
	for i, p := range rs.Trace {
		if i > 0 && p.Cycle <= rs.Trace[i-1].Cycle {
			t.Errorf("%s: trace cycles not strictly increasing at point %d", name, i)
		}
		peak = max(peak, p.Live)
	}
	if peak != rs.PeakLive {
		t.Errorf("%s: trace peak %d != PeakLive %d", name, peak, rs.PeakLive)
	}
	if last := rs.Trace[len(rs.Trace)-1]; last.Cycle != rs.Cycles {
		t.Errorf("%s: trace ends at cycle %d, run at %d", name, last.Cycle, rs.Cycles)
	}
}

// TestFailedCheckKeepsRecord: a run whose output fails validation returns
// its filled record along with the error, on every machine.
func TestFailedCheckKeepsRecord(t *testing.T) {
	wrong := errors.New("wrong")
	app := *apps.Find(apps.Suite(apps.ScaleTiny), "dmv")
	app.Check = func(*mem.Image, int64) error { return wrong }
	for _, sys := range Systems {
		rs, err := Run(&app, sys, SysConfig{})
		if !errors.Is(err, wrong) {
			t.Fatalf("%s: err = %v, want the check's error", sys, err)
		}
		if !rs.Completed || rs.Cycles <= 0 || len(rs.Trace) == 0 || rs.System != sys {
			t.Errorf("%s: failed check returned an unfilled record %+v", sys, rs)
		}
	}
}
