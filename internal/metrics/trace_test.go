package metrics

import (
	"slices"
	"testing"
)

func TestLiveTraceDisabled(t *testing.T) {
	for _, n := range []int{-1, -4096} {
		tr := NewLiveTrace(n)
		for c := int64(1); c <= 100; c++ {
			tr.SampleCycle(c, c)
			tr.SampleBoundary(c, c)
		}
		tr.Close(100, 7)
		if tr.Points() != nil || tr.Stride() != 0 {
			t.Errorf("cap %d: disabled trace recorded %v with stride %d", n, tr.Points(), tr.Stride())
		}
	}
	var zero LiveTrace
	zero.SampleCycle(1, 1)
	zero.Close(1, 1)
	if zero.Points() != nil || zero.Stride() != 0 {
		t.Error("the zero LiveTrace is not disabled")
	}
}

func TestLiveTraceMergesEqualCycle(t *testing.T) {
	tr := NewLiveTrace(16)
	tr.SampleBoundary(5, 3)
	tr.SampleBoundary(5, 9) // same time, higher live: merges upward
	tr.SampleBoundary(5, 2) // same time, lower live: keeps 9
	tr.Close(5, 0)
	want := []TracePoint{{Cycle: 5, Live: 9}}
	if got := tr.Points(); !slices.Equal(got, want) {
		t.Errorf("points = %v, want %v", got, want)
	}
}

func TestLiveTraceDecimation(t *testing.T) {
	tr := NewLiveTrace(4)
	lives := []int64{1, 8, 2, 3}
	for i, l := range lives {
		tr.SampleCycle(int64(i+1), l)
	}
	// The fourth point hit the cap: pairs (1,8) and (2) merge keeping the
	// higher live state, the final point survives, the stride doubles.
	want := []TracePoint{{Cycle: 2, Live: 8}, {Cycle: 3, Live: 2}, {Cycle: 4, Live: 3}}
	if got := tr.Points(); !slices.Equal(got, want) || tr.Stride() != 2 {
		t.Fatalf("after cap: points %v stride %d, want %v stride 2", got, tr.Stride(), want)
	}
	tr.Close(9, 5)
	got := tr.Points()
	if len(got) > 4 || got[len(got)-1] != (TracePoint{Cycle: 9, Live: 5}) {
		t.Errorf("after close: points %v, want at most 4 ending at {9 5}", got)
	}
	var peak int64
	for _, p := range got {
		peak = max(peak, p.Live)
	}
	if peak != 8 {
		t.Errorf("decimation lost the peak: %v", got)
	}
}

func TestSparseHist(t *testing.T) {
	got := SparseHist([]int64{0, 4, 0, 2})
	if len(got) != 2 || got[1] != 4 || got[3] != 2 {
		t.Errorf("SparseHist = %v", got)
	}
}
