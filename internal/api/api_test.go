package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cancel"
	"repro/internal/harness"
)

const testSource = `program "sumloop" entry main

func main() {
  loop "L" carry (i = 0, s = 0) while i < 20 {
    s = s + i
    i = i + 1
  }
  return s
}
`

func TestRequestRoundTrip(t *testing.T) {
	in := Request{
		Version:     Version,
		App:         "dmv",
		Scale:       "tiny",
		System:      "tyr",
		IssueWidth:  64,
		Tags:        8,
		BlockTags:   map[string]int{"outer": 2},
		QueueCap:    4,
		LoadLatency: 3,
		Cache:       &CacheSpec{L1: "sets=16,ways=2,line=4,lat=1", MSHRs: 4, Passthrough: true},
		TracePoints: -1,
		Sanitize:    true,
		Exec:        &ExecSpec{Shards: 1, Batch: 1, DeadlineMS: 5000},
		MaxCycles:   1 << 20,
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Request
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the request:\n in: %+v\nout: %+v", in, out)
	}
}

func TestSweepAndCompileRoundTrip(t *testing.T) {
	sw := SweepRequest{Version: Version, Scale: "tiny", Apps: []string{"dmv", "tc"},
		Systems: []string{"tyr", "vN"}, Tags: 16, Cache: &CacheSpec{Passthrough: true}}
	data, _ := json.Marshal(sw)
	var sw2 SweepRequest
	if err := json.Unmarshal(data, &sw2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sw, sw2) {
		t.Errorf("sweep round trip changed: %+v vs %+v", sw, sw2)
	}

	cr := CompileRequest{Source: testSource, Lowering: "ordered", Emit: "dot", Optimize: true}
	data, _ = json.Marshal(cr)
	var cr2 CompileRequest
	if err := json.Unmarshal(data, &cr2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cr, cr2) {
		t.Errorf("compile round trip changed: %+v vs %+v", cr, cr2)
	}
}

func TestValidateMinimalRequest(t *testing.T) {
	r := Request{App: "dmv", System: "tyr"}
	if err := r.Validate(); err != nil {
		t.Fatalf("minimal request rejected: %v", err)
	}
}

func TestValidateCollectsAllFieldErrors(t *testing.T) {
	r := Request{
		Version:    "tyr-api/v999",
		System:     "riscv",
		Scale:      "huge",
		App:        "dmv",
		IssueWidth: -1,
		Exec:       &ExecSpec{Shards: -2},
		TimeoutMS:  -5,
		Cache:      &CacheSpec{L1: "sets=banana"},
	}
	err := r.Validate()
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("err = %v, want *ValidationError", err)
	}
	want := []string{"version", "system", "scale", "issue_width", "exec.shards", "timeout_ms", "cache"}
	got := map[string]bool{}
	for _, f := range ve.Fields {
		got[f.Field] = true
	}
	for _, f := range want {
		if !got[f] {
			t.Errorf("missing field error for %q in %v", f, ve)
		}
	}
}

func TestValidateAppSourceExclusive(t *testing.T) {
	for _, r := range []Request{
		{System: "tyr"},
		{System: "tyr", App: "dmv", Source: testSource},
	} {
		if err := r.Validate(); err == nil {
			t.Errorf("request %+v should be rejected", r)
		}
	}
}

func TestValidateBadSource(t *testing.T) {
	r := Request{System: "tyr", Source: "this is not IR"}
	err := r.Validate()
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("err = %v, want *ValidationError", err)
	}
	if len(ve.Fields) != 1 || ve.Fields[0].Field != "source" {
		t.Errorf("want a single source error, got %v", ve)
	}
}

func TestPlanConversion(t *testing.T) {
	r := Request{
		App: "dmv", System: "tyr",
		IssueWidth: 32, Tags: 4, GlobalTags: 8, QueueCap: 2,
		LoadLatency: 7, TracePoints: 128, SkipCheck: true, Sanitize: true,
		Exec:      &ExecSpec{Shards: 1, Batch: 1, DeadlineMS: 2500},
		MaxCycles: 999,
		Cache:     &CacheSpec{MemLatency: 50, MSHRs: 2},
	}
	plan, err := r.Plan()
	if err != nil {
		t.Fatal(err)
	}
	sc := plan.Cfg
	want := harness.SysConfig{
		IssueWidth: 32, Tags: 4, GlobalTags: 8, QueueCap: 2,
		LoadLatency: 7, TracePoints: 128, SkipCheck: true, Sanitize: true,
		MaxCycles: 999, Cache: sc.Cache,
	}
	if sc.Cache == nil || sc.Cache.MemLatency != 50 || sc.Cache.MSHRs != 2 {
		t.Errorf("cache spec not applied: %+v", sc.Cache)
	}
	if !reflect.DeepEqual(sc, want) {
		t.Errorf("conversion mismatch:\n got %+v\nwant %+v", sc, want)
	}
	if plan.DeadlineMS != 2500 {
		t.Errorf("exec deadline not resolved: %d", plan.DeadlineMS)
	}
}

// TestExecBackCompat pins the deprecated top-level timeout_ms: it still
// decodes and resolves, and the exec block wins whenever both are set.
// exec.shards outlives sharded execution only as 0 or 1.
func TestExecBackCompat(t *testing.T) {
	var r Request
	if err := json.Unmarshal([]byte(`{"system":"tyr","app":"dmv","timeout_ms":100}`), &r); err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("deprecated spelling must stay valid: %v", err)
	}
	if r.ExecDeadlineMS() != 100 {
		t.Errorf("top-level timeout_ms did not resolve: deadline=%d", r.ExecDeadlineMS())
	}

	// Agreeing values coexist; the exec block is simply authoritative.
	r.Exec = &ExecSpec{DeadlineMS: 100}
	if err := r.Validate(); err != nil {
		t.Fatalf("agreeing exec and top-level values rejected: %v", err)
	}

	// Conflicting nonzero values are a hard 400, not a silent pick, and
	// the rejection carries the migration guidance as a note.
	r.Exec = &ExecSpec{DeadlineMS: 200}
	assertFieldAndNote(t, r.Validate(), "timeout_ms", "exec.deadline_ms")

	// exec.shards 0 and 1 are accepted; anything above names the field
	// and explains the removal.
	for _, n := range []int{0, 1} {
		r := Request{System: "tyr", App: "dmv", Exec: &ExecSpec{Shards: n}}
		if err := r.Validate(); err != nil {
			t.Errorf("exec.shards=%d rejected: %v", n, err)
		}
	}
	r = Request{System: "tyr", App: "dmv", Exec: &ExecSpec{Shards: 4}}
	assertFieldAndNote(t, r.Validate(), "exec.shards", "removed")
}

// assertFieldAndNote checks err is a *ValidationError naming field and
// carrying a note that mentions noteFrag.
func assertFieldAndNote(t *testing.T, err error, field, noteFrag string) {
	t.Helper()
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("err = %v, want *ValidationError", err)
	}
	found := false
	for _, f := range ve.Fields {
		found = found || f.Field == field
	}
	if !found {
		t.Errorf("error missing %s field: %v", field, ve)
	}
	found = false
	for _, n := range ve.Notes {
		found = found || strings.Contains(n, noteFrag)
	}
	if !found {
		t.Errorf("no note mentions %q: %v", noteFrag, ve.Notes)
	}
}

// TestExecBatchResolution pins that exec.batch outlives lockstep batching
// only as 0 or 1: both decode and plan, anything else names the field and
// explains the removal.
func TestExecBatchResolution(t *testing.T) {
	for _, n := range []int{0, 1} {
		var r Request
		body := fmt.Sprintf(`{"system":"tyr","app":"dmv","exec":{"batch":%d}}`, n)
		if err := json.Unmarshal([]byte(body), &r); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Plan(); err != nil {
			t.Errorf("exec.batch=%d rejected: %v", n, err)
		}
	}
	for _, n := range []int{2, 8, -1} {
		r := Request{System: "tyr", App: "dmv", Exec: &ExecSpec{Batch: n}}
		assertFieldAndNote(t, r.Validate(), "exec.batch", "lockstep batching was removed")
	}
}

func TestResolveAppSuiteKernel(t *testing.T) {
	r := Request{App: "tc", Scale: "tiny", System: "vN"}
	plan, err := r.Plan()
	if err != nil {
		t.Fatal(err)
	}
	app, err := plan.ResolveApp()
	if err != nil {
		t.Fatal(err)
	}
	if app.Name != "tc" {
		t.Errorf("resolved %q, want tc", app.Name)
	}
}

func TestResolveAppInlineSourceRunsEndToEnd(t *testing.T) {
	r := Request{Source: testSource, System: "tyr", Tags: 4}
	plan, err := r.Plan()
	if err != nil {
		t.Fatal(err)
	}
	app, err := plan.ResolveApp()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := harness.Run(app, r.System, plan.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Completed {
		t.Error("inline source run did not complete")
	}
}

// TestResolveAppBound pins the service-side contract: a stopped flag
// cancels the inline-source oracle run (the error wraps cancel.ErrStopped),
// and maxSteps bounds its dynamic instructions. Suite kernels ignore both.
func TestResolveAppBound(t *testing.T) {
	src := Request{Source: testSource, System: "tyr"}
	srcPlan, err := src.Plan()
	if err != nil {
		t.Fatal(err)
	}

	stopped := &cancel.Flag{}
	stopped.Stop()
	if _, err := srcPlan.ResolveAppBound(stopped, 0); !errors.Is(err, cancel.ErrStopped) {
		t.Errorf("stopped flag: err = %v, want cancel.ErrStopped", err)
	}

	if _, err := srcPlan.ResolveAppBound(nil, 1); err == nil ||
		!strings.Contains(err.Error(), "budget") {
		t.Errorf("maxSteps=1: err = %v, want a budget error", err)
	}

	kernel := Request{App: "tc", Scale: "tiny", System: "vN"}
	kernelPlan, err := kernel.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kernelPlan.ResolveAppBound(stopped, 1); err != nil {
		t.Errorf("suite kernel with bounds: %v (the oracle is precomputed, not run)", err)
	}
}

// TestPlanBuildsNoKernel pins the resolve-once contract's first half:
// planning a suite-kernel request checks the name against the table and
// builds nothing (building the medium suite costs about 16k allocations).
func TestPlanBuildsNoKernel(t *testing.T) {
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := (&Request{App: "tc", Scale: "medium", System: "tyr"}).Plan(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Errorf("Plan allocates %.0f times, want a few dozen at most", allocs)
	}
}

// TestResolveAppSharesKernel pins the second half: every resolution of a
// suite kernel returns the one per-process template.
func TestResolveAppSharesKernel(t *testing.T) {
	var got [2]*apps.App
	for i := range got {
		plan, err := (&Request{App: "dmm", Scale: "tiny", System: "tyr"}).Plan()
		if err != nil {
			t.Fatal(err)
		}
		if got[i], err = plan.ResolveAppBound(nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got[0] != got[1] || got[0] != apps.Kernel(apps.ScaleTiny, "dmm") {
		t.Errorf("ResolveAppBound returned %p then %p, want the shared kernel", got[0], got[1])
	}
}

// TestPlanKeepsParsedSource checks that the plan resolves the source it
// validated: a Source edit after Plan does not reach the run.
func TestPlanKeepsParsedSource(t *testing.T) {
	r := Request{Source: testSource, System: "tyr"}
	plan, err := r.Plan()
	if err != nil {
		t.Fatal(err)
	}
	r.Source = "this is not IR"
	app, err := plan.ResolveApp()
	if err != nil {
		t.Fatalf("resolve re-parsed the request's source: %v", err)
	}
	if app.Name != "sumloop" {
		t.Errorf("resolved %q, want sumloop", app.Name)
	}
}

// TestKnobBounds checks every bounded knob accepts MaxKnob and rejects
// MaxKnob+1 with a "must be <=" error on that field.
func TestKnobBounds(t *testing.T) {
	over := MaxKnob + 1
	want := fmt.Sprintf("must be <= %d (got %d)", MaxKnob, over)
	set := map[string]func(r *Request, v int){
		"issue_width":      func(r *Request, v int) { r.IssueWidth = v },
		"tags":             func(r *Request, v int) { r.Tags = v },
		"global_tags":      func(r *Request, v int) { r.GlobalTags = v },
		"queue_cap":        func(r *Request, v int) { r.QueueCap = v },
		"load_latency":     func(r *Request, v int) { r.LoadLatency = v },
		"trace_points":     func(r *Request, v int) { r.TracePoints = v },
		"block_tags.inner": func(r *Request, v int) { r.BlockTags = map[string]int{"outer": 2, "inner": v} },
	}
	for field, f := range set {
		r := Request{App: "dmv", Scale: "tiny", System: "tyr"}
		f(&r, MaxKnob)
		if err := r.Validate(); err != nil {
			t.Errorf("%s = MaxKnob rejected: %v", field, err)
		}
		f(&r, over)
		wantOnly(t, r.Validate(), field, want)
	}
	neg := Request{App: "dmv", System: "tyr", TracePoints: -1, BlockTags: map[string]int{"outer": -1}}
	wantOnly(t, neg.Validate(), "block_tags.outer", "must be >= 0 (got -1)")

	for field, f := range map[string]func(r *SweepRequest){
		"issue_width": func(r *SweepRequest) { r.IssueWidth = over },
		"tags":        func(r *SweepRequest) { r.Tags = over },
	} {
		r := SweepRequest{Scale: "tiny"}
		f(&r)
		wantOnly(t, r.Validate(), field, want)
	}
}

// wantOnly asserts err is a ValidationError with exactly one FieldError,
// on field, whose message is msg.
func wantOnly(t *testing.T, err error, field, msg string) {
	t.Helper()
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("%s: err = %v, want *ValidationError", field, err)
	}
	if len(ve.Fields) != 1 || ve.Fields[0].Field != field || ve.Fields[0].Message != msg {
		t.Errorf("%s: got %v, want one %q error", field, ve.Fields, msg)
	}
}

func TestValidationErrorMentionsEveryField(t *testing.T) {
	err := (&SweepRequest{Systems: []string{"nope"}, Apps: []string{"nope"}, TimeoutMS: -1}).Validate()
	if err == nil {
		t.Fatal("bad sweep accepted")
	}
	for _, frag := range []string{"systems", "apps", "timeout_ms"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not mention %s", err, frag)
		}
	}
}

func FuzzRequestDecodeValidate(f *testing.F) {
	f.Add(`{"system":"tyr","app":"dmv"}`)
	f.Add(`{"version":"tyr-api/v1","system":"vN","source":"program \"x\" entry main"}`)
	f.Add(`{"system":"ordered","app":"tc","scale":"tiny","cache":{"l1":"sets=8"}}`)
	f.Add(`{"system":"tyr","app":"dmv","exec":{"shards":2,"batch":4,"deadline_ms":100}}`)
	f.Add(`{"system":"tyr","app":"dmv","shards":3,"exec":{"shards":2}}`)
	f.Add(`{"system":[1,2],"app":5}`)
	f.Add(`{"app":"dmv","scale":"tiny","system":"tyr","tags":2000000000}`)
	f.Add(`{"app":"dmv","scale":"tiny","system":"tyr","issue_width":2000000000}`)
	f.Add(`{"app":"dmv","scale":"tiny","system":"tyr","block_tags":{"outer":2000000000}}`)
	f.Add(`{"system":"vN","source":"program \"big\" entry main\nmem data[4000000000]\nfunc main() {\n  return 0\n}\n"}`)
	f.Fuzz(func(t *testing.T, data string) {
		var r Request
		if err := json.Unmarshal([]byte(data), &r); err != nil {
			return
		}
		// Validate, the exec resolvers, and Plan must never panic on any
		// decodable request; a valid request must plan cleanly.
		_ = r.ExecDeadlineMS()
		if err := r.Validate(); err != nil {
			return
		}
		if _, err := r.Plan(); err != nil {
			t.Errorf("valid request failed Plan: %v", err)
		}
	})
}
