package cliflags

import (
	"flag"
	"io"
	"strings"
	"testing"
)

func TestDeprecatedAliasWarnsOnce(t *testing.T) {
	var buf strings.Builder
	old := warnOut
	warnOut = &buf
	defer func() { warnOut = old }()

	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	m := RegisterMachine(fs, "tyr")
	if err := fs.Parse([]string{"-sys", "ordered", "-sys", "vN"}); err != nil {
		t.Fatal(err)
	}
	if m.System != "vN" {
		t.Errorf("alias did not forward: system = %q", m.System)
	}
	if n := strings.Count(buf.String(), "deprecated"); n != 1 {
		t.Errorf("warned %d times, want once:\n%s", n, buf.String())
	}
	if !strings.Contains(buf.String(), "-sys") || !strings.Contains(buf.String(), "-system") {
		t.Errorf("warning does not name both spellings: %q", buf.String())
	}
}

func TestCanonicalSpellingDoesNotWarn(t *testing.T) {
	var buf strings.Builder
	old := warnOut
	warnOut = &buf
	defer func() { warnOut = old }()

	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	m := RegisterMachine(fs, "tyr")
	if err := fs.Parse([]string{"-system", "seqdf", "-width", "4", "-tags", "2"}); err != nil {
		t.Fatal(err)
	}
	if m.System != "seqdf" || m.Width != 4 || m.Tags != 2 {
		t.Errorf("machine group = %+v", m)
	}
	if buf.Len() != 0 {
		t.Errorf("unexpected warning: %q", buf.String())
	}
}

func TestBatchList(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	m := RegisterMachine(fs, "")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if n, err := m.BatchWidth(); err != nil || n != 1 {
		t.Errorf("unset -batch: BatchWidth() = %d, %v; want 1, nil", n, err)
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	m = RegisterMachine(fs, "")
	if err := fs.Parse([]string{"-batch", "4"}); err != nil {
		t.Fatal(err)
	}
	if n, err := m.BatchWidth(); err != nil || n != 4 {
		t.Errorf("-batch 4: BatchWidth() = %d, %v; want 4, nil", n, err)
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	m = RegisterMachine(fs, "")
	if err := fs.Parse([]string{"-batch", "1, 2,4,8"}); err != nil {
		t.Fatal(err)
	}
	want := BatchList{1, 2, 4, 8}
	if len(m.Batch) != len(want) {
		t.Fatalf("sweep list = %v, want %v", m.Batch, want)
	}
	for i := range want {
		if m.Batch[i] != want[i] {
			t.Fatalf("sweep list = %v, want %v", m.Batch, want)
		}
	}
	if m.Batch.String() != "1,2,4,8" {
		t.Errorf("String() = %q, want %q", m.Batch.String(), "1,2,4,8")
	}
	if _, err := m.BatchWidth(); err == nil {
		t.Error("BatchWidth() on a sweep list must error for single-run tools")
	}

	for _, bad := range []string{"0", "-1", "x", "2,,4", "2,zero"} {
		fs = flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		m = RegisterMachine(fs, "")
		if err := fs.Parse([]string{"-batch", bad}); err == nil {
			t.Errorf("-batch %q: expected a parse error, got %v", bad, m.Batch)
		}
	}
}

func TestCacheSpec(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c := RegisterCache(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if c.Spec() != nil {
		t.Error("no cache flags should mean a nil spec (flat memory)")
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	c = RegisterCache(fs)
	if err := fs.Parse([]string{"-l1", "sets=8,ways=2", "-mem-lat", "40"}); err != nil {
		t.Fatal(err)
	}
	spec := c.Spec()
	if spec == nil || spec.L1 != "sets=8,ways=2" || spec.MemLatency != 40 {
		t.Errorf("spec = %+v", spec)
	}
	if _, err := spec.Config(); err != nil {
		t.Errorf("spec does not build a cache config: %v", err)
	}
}
