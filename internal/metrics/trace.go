package metrics

// DefaultTracePoints is the trace cap a zero TracePoints setting selects.
const DefaultTracePoints = 4096

// LiveTrace samples a run's live state into the decimated trace of Figs.
// 2, 9, 16 and 18, shared by all five machines. Each stride window
// contributes its peak-live sample; when the trace reaches its cap,
// adjacent points merge keeping the higher-live one and the stride
// doubles. So the trace's maximum always equals the run's peak live
// state, its cycles strictly increase, and the run's final point survives
// any number of decimations.
//
// A window closes by one of two rules, picked by the caller:
// SampleCycle, for the per-cycle engines, closes one whenever the cycle
// is a multiple of the stride; SampleBoundary, for the interpreter-driven
// models sampled at scope boundaries, closes one once the sample is at
// least a stride past the last retained point. The zero value is a
// disabled trace.
type LiveTrace struct {
	pts []TracePoint
	cap int
	// stride is the window width in cycles; 0 marks a disabled trace.
	stride int64

	// The pending window's peak live state and the cycle it occurred at.
	winMax   int64
	winCycle int64
	winValid bool
}

// NewLiveTrace returns a trace of at most maxPoints points: 0 selects
// DefaultTracePoints and a negative cap disables the trace.
func NewLiveTrace(maxPoints int) LiveTrace {
	if maxPoints == 0 {
		maxPoints = DefaultTracePoints
	}
	if maxPoints < 0 {
		return LiveTrace{}
	}
	return LiveTrace{cap: maxPoints, stride: 1}
}

// SampleCycle records the live state after a simulated cycle, closing
// the window at every multiple of the stride.
//
//tyr:hotpath
func (t *LiveTrace) SampleCycle(cycle, live int64) {
	if t.stride == 0 {
		return
	}
	t.observe(cycle, live)
	if cycle%t.stride == 0 {
		t.emit()
	}
}

// SampleBoundary records the live state at a scope boundary, closing the
// window once it is at least a stride past the last retained point.
//
//tyr:hotpath
func (t *LiveTrace) SampleBoundary(at, live int64) {
	if t.stride == 0 {
		return
	}
	t.observe(at, live)
	if n := len(t.pts); n > 0 && at-t.pts[n-1].Cycle < t.stride {
		return
	}
	t.emit()
}

//tyr:hotpath
func (t *LiveTrace) observe(at, live int64) {
	if !t.winValid || live > t.winMax {
		t.winMax, t.winCycle, t.winValid = live, at, true
	}
}

// emit closes the pending window. A window peaking on the previous
// point's cycle (boundaries may repeat a time) merges into it, keeping
// the higher live state; a trace that reaches its cap is decimated.
//
//tyr:hotpath
func (t *LiveTrace) emit() {
	if !t.winValid {
		return
	}
	t.winValid = false
	if n := len(t.pts); n > 0 && t.winCycle <= t.pts[n-1].Cycle {
		if t.winMax > t.pts[n-1].Live {
			t.pts[n-1].Live = t.winMax
		}
		return
	}
	t.pts = append(t.pts, TracePoint{Cycle: t.winCycle, Live: t.winMax})
	if len(t.pts) >= t.cap {
		t.decimate()
	}
}

// decimate halves the trace in place by merging adjacent pairs, keeping
// each pair's higher-live point, and doubles the stride. The final point
// is never merged away.
func (t *LiveTrace) decimate() {
	t.stride *= 2
	pts := t.pts
	if len(pts) < 3 {
		return
	}
	last := pts[len(pts)-1]
	body := pts[:len(pts)-1]
	kept := pts[:0]
	for i := 0; i < len(body); i += 2 {
		p := body[i]
		if i+1 < len(body) && body[i+1].Live > p.Live {
			p = body[i+1]
		}
		kept = append(kept, p)
	}
	t.pts = append(kept, last)
}

// Close ends the trace at cycle end with the given final live state: the
// pending window is emitted, the final point appended unless a point
// already sits at end, and the cap re-imposed.
func (t *LiveTrace) Close(end, live int64) {
	if t.stride == 0 {
		return
	}
	t.emit()
	if n := len(t.pts); n == 0 || t.pts[n-1].Cycle < end {
		t.pts = append(t.pts, TracePoint{Cycle: end, Live: live})
	}
	for len(t.pts) > t.cap && len(t.pts) >= 3 {
		t.decimate()
	}
}

// Points returns the retained trace (nil when disabled or empty).
func (t *LiveTrace) Points() []TracePoint { return t.pts }

// Stride returns the cycle stride between retained points (0 when
// disabled).
func (t *LiveTrace) Stride() int64 { return t.stride }

// SparseHist converts a dense histogram, indexed by value, into the
// value -> count map the result records carry, dropping empty buckets.
func SparseHist(dense []int64) map[int]int64 {
	out := make(map[int]int64)
	for k, v := range dense {
		if v != 0 {
			out[k] = v
		}
	}
	return out
}
