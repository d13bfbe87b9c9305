// Command tyrc compiles and runs programs written in the IR's concrete
// syntax (see prog.Parse for the grammar; examples live in examples/lang).
//
// Usage:
//
//	tyrc [-system tyr] [-tags 64] [-width 128] [-O] [-arg N]... [-emit asm|dot|ir|bin]
//	     [-o out] [-vet] [-trace out.json] [-profile]
//	     [-cache] [-l1 sets=32,ways=2,line=4,lat=1] [-l2 ...] prog.tyr
//
// The program runs against its declared memory regions (zero-filled) and
// the result plus machine metrics are printed. -emit stops after
// compilation and prints the requested form; -emit bin writes the compiled
// graph as a tyr-graph/v1 binary artifact (internal/graphio) stamped with
// the same source hash tyrd's compiled-graph cache derives, so the artifact
// can seed a tyrd -cache-dir directory or feed tyrsim -graph without
// recompiling. -o redirects any emitted form to a file (recommended for
// bin, which is not text). -vet runs the static verifier
// (free barriers, tag safety, memory-ordering races) on the tagged lowering
// and exits nonzero if any pass finds a definite violation. Results are
// cross-checked against the reference interpreter unless -emit or -vet is
// used. -trace records the run's event stream as Chrome trace-event JSON;
// -profile prints the critical-path profile.
//
// The run flags assemble a tyr-api/v1 request (internal/api) and execute
// through the same harness entry point as the tyrd service, so a tyrc
// invocation and a curl against /v1/run mean the same simulation. Shared
// flag groups live in internal/cliflags; -sys remains a deprecated alias
// for -system.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"repro/internal/analysis"
	"repro/internal/api"
	"repro/internal/apps"
	"repro/internal/cliflags"
	"repro/internal/compile"
	"repro/internal/graphio"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/prog"
	"repro/internal/trace"
)

type argList []int64

func (a *argList) String() string { return fmt.Sprint(*a) }
func (a *argList) Set(s string) error {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return err
	}
	*a = append(*a, v)
	return nil
}

func main() {
	machine := cliflags.RegisterMachine(flag.CommandLine, "tyr")
	optimize := flag.Bool("O", false, "run the optimizer (fold, simplify, DCE) before compiling")
	emit := flag.String("emit", "", "emit a compiled form and exit: asm, dot, ir, or bin")
	out := flag.String("o", "", "write -emit output to this file instead of stdout")
	vet := flag.Bool("vet", false, "statically verify the compiled graph (free barriers, tag safety, races) and exit")
	obs := cliflags.RegisterObserve(flag.CommandLine)
	cacheFlags := cliflags.RegisterCache(flag.CommandLine)
	var args argList
	flag.Var(&args, "arg", "entry argument (repeatable)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tyrc [flags] prog.tyr")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	p, err := prog.Parse(string(src))
	if err != nil {
		fail(err)
	}
	if err := prog.Check(p); err != nil {
		fail(err)
	}
	if *optimize {
		p = prog.Optimize(p)
	}

	if *vet {
		g, err := compile.Tagged(p, compile.Options{EntryArgs: args})
		if err != nil {
			fail(err)
		}
		rep := analysis.Vet(g, p)
		fmt.Print(rep)
		if !rep.OK() {
			os.Exit(1)
		}
		return
	}

	if *emit != "" {
		var data []byte
		switch *emit {
		case "ir":
			data = []byte(prog.Format(p))
		case "asm", "dot", "bin":
			lowering, lower := "tagged", compile.Tagged
			if machine.System == "ordered" {
				lowering, lower = "ordered", compile.Ordered
			}
			g, err := lower(p, compile.Options{EntryArgs: args})
			if err != nil {
				fail(err)
			}
			switch *emit {
			case "dot":
				data = []byte(g.Dot())
			case "asm":
				data, err = g.MarshalText()
				if err != nil {
					fail(err)
				}
			case "bin":
				// Stamp the artifact with the content hash tyrd derives
				// for this (lowering, formatted IR, args) — the artifact's
				// address in a shared cache directory.
				src := graphio.HashSource(lowering, prog.Format(p), args)
				data = graphio.Encode(g, src)
			}
		default:
			fail(fmt.Errorf("unknown emit %q (want asm, dot, ir, bin)", *emit))
		}
		if *out != "" {
			if err := os.WriteFile(*out, data, 0o644); err != nil {
				fail(err)
			}
		} else {
			os.Stdout.Write(data)
		}
		return
	}

	// Reference run first: the oracle for the printed result value. (The
	// harness repeats this run internally via apps.FromProgram to build its
	// validation closure — user programs are small, so the extra
	// interpreter pass is cheap.)
	ref, err := prog.Run(p, prog.DefaultImage(p), prog.RunConfig{Args: args})
	if err != nil {
		fail(err)
	}

	// The remaining flags assemble a tyr-api/v1 request, so a tyrc
	// invocation and a curl against tyrd's /v1/run mean the same
	// simulation. The source was already parsed (and optionally optimized)
	// above for the emit/vet paths, so resolve the app from p directly
	// rather than re-parsing through the plan's ResolveApp.
	exec, err := machine.ExecSpec()
	if err != nil {
		fail(err)
	}
	req := api.Request{
		System:     machine.System,
		IssueWidth: machine.Width,
		Tags:       machine.Tags,
		Exec:       exec,
		Source:     string(src),
		Args:       args,
		Cache:      cacheFlags.Spec(),
	}
	plan, err := req.Plan()
	if err != nil {
		fail(err)
	}
	cfg := plan.Cfg
	app, err := apps.FromProgram("", p, args)
	if err != nil {
		fail(err)
	}

	var rec *trace.Recorder
	if obs.Enabled() {
		rec = trace.NewRecorder(0)
		cfg.Tracer = rec
	}
	// tyrc always runs the core with the sanitizer armed; the harness
	// also validates the result against the reference interpreter.
	cfg.Sanitize = true

	rs, err := harness.Run(app, req.System, cfg)
	if err != nil {
		fail(err)
	}

	// harness.Run validated the machine against the reference, so the
	// machine's result is the reference's.
	fmt.Printf("%s on %s: result = %d\n", p.Name, rs.System, ref.Ret)
	tb := &metrics.Table{}
	tb.Add("cycles", metrics.FormatCount(rs.Cycles))
	tb.Add("dynamic instructions", metrics.FormatCount(rs.Fired))
	if rs.Cycles > 0 {
		tb.Add("mean IPC", fmt.Sprintf("%.2f", rs.IPC()))
	}
	tb.Add("peak live state", metrics.FormatCount(rs.PeakLive))
	fmt.Print(tb.String())

	if rs.Cache != nil {
		fmt.Printf("\nmemory hierarchy (%s)\n", cfg.Cache.Describe())
		ct := &metrics.Table{Headers: []string{"level", "accesses", "misses", "miss rate", "writebacks"}}
		ct.Add("L1", metrics.FormatCount(rs.Cache.L1.Accesses), metrics.FormatCount(rs.Cache.L1.Misses),
			fmt.Sprintf("%.1f%%", rs.Cache.L1.MissRate*100), metrics.FormatCount(rs.Cache.L1.Writebacks))
		ct.Add("L2", metrics.FormatCount(rs.Cache.L2.Accesses), metrics.FormatCount(rs.Cache.L2.Misses),
			fmt.Sprintf("%.1f%%", rs.Cache.L2.MissRate*100), metrics.FormatCount(rs.Cache.L2.Writebacks))
		fmt.Print(ct.String())
		fmt.Printf("AMAT %.2f cycles\n", rs.Cache.AMAT)
	}

	if obs.TracePath != "" {
		f, err := os.Create(obs.TracePath)
		if err != nil {
			fail(err)
		}
		werr := trace.ExportChrome(f, rec)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fail(werr)
		}
		fmt.Printf("wrote Chrome trace (%d events, %d dropped) to %s\n", rec.Len(), rec.Dropped(), obs.TracePath)
	}
	if obs.Profile {
		fmt.Println()
		fmt.Print(trace.ComputeProfile(rec).Render())
	}

	fmt.Println("validated against the reference interpreter: OK")
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "tyrc: %v\n", err)
	os.Exit(1)
}
