// Package tuner implements the per-region tag-budget search the paper
// sketches in Sec. VII-E: local tag spaces give every concurrent block an
// independent parallelism knob, so a runtime system can shrink the budgets
// of blocks whose surplus parallelism only inflates live state, keeping
// hot blocks at full throttle.
//
// Tune performs a greedy coordinate descent: starting from a uniform
// budget, it repeatedly tries halving one block's tag count, keeping the
// change if peak live state improves without exceeding the allowed
// slowdown relative to the uniform baseline. The search is deterministic
// (blocks are visited in a fixed order) and typically needs only a few
// dozen simulations.
package tuner

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/mem"
	"repro/internal/metrics"
)

// Options configures a search.
type Options struct {
	// BaselineTags is the uniform starting budget (default 64, the
	// paper's setting).
	BaselineTags int
	// MinTags floors every block's budget (default and hard minimum 2,
	// Theorem 1's requirement).
	MinTags int
	// MaxSlowdown is the tolerated execution-time increase relative to
	// the uniform baseline, as a fraction (default 0.05 = 5%).
	MaxSlowdown float64
	// IssueWidth for all trial runs (0 = the engine default, 128).
	IssueWidth int
	// MaxTrials caps the number of simulations (default 64).
	MaxTrials int
}

func (o Options) withDefaults() Options {
	if o.BaselineTags == 0 {
		o.BaselineTags = metrics.DefaultTags
	}
	if o.MinTags < 2 {
		o.MinTags = 2
	}
	if o.MaxSlowdown == 0 {
		o.MaxSlowdown = 0.05
	}
	if o.MaxTrials == 0 {
		o.MaxTrials = 64
	}
	return o
}

// Step records one accepted move of the search.
type Step struct {
	Block    string
	From, To int
	PeakLive int64
	Cycles   int64
}

// Result reports a completed search.
type Result struct {
	Baseline core.Result
	Tuned    core.Result
	// BlockTags holds the budgets that differ from the baseline.
	BlockTags map[string]int
	Steps     []Step
	Trials    int
}

// PeakReduction returns the fractional peak-state reduction achieved.
func (r Result) PeakReduction() float64 {
	if r.Baseline.PeakLive == 0 {
		return 0
	}
	return 1 - float64(r.Tuned.PeakLive)/float64(r.Baseline.PeakLive)
}

// Slowdown returns the fractional execution-time increase paid.
func (r Result) Slowdown() float64 {
	if r.Baseline.Cycles == 0 {
		return 0
	}
	return float64(r.Tuned.Cycles)/float64(r.Baseline.Cycles) - 1
}

// Tune searches per-block tag budgets for the given tagged graph.
// newImage must return a fresh copy of the input memory for every trial.
func Tune(g *dfg.Graph, newImage func() *mem.Image, opts Options) (Result, error) {
	opts = opts.withDefaults()
	run := func(blockTags map[string]int) (core.Result, error) {
		return core.Run(g, newImage(), core.Config{
			Policy:       core.PolicyTyr,
			TagsPerBlock: opts.BaselineTags,
			BlockTags:    blockTags,
			IssueWidth:   opts.IssueWidth,
			TracePoints:  -1,
		})
	}

	out := Result{BlockTags: map[string]int{}}
	baseline, err := run(nil)
	if err != nil {
		return out, err
	}
	if !baseline.Completed {
		return out, fmt.Errorf("tuner: baseline run did not complete: %v", baseline.Deadlock)
	}
	out.Baseline = baseline
	out.Tuned = baseline
	out.Trials = 1
	budget := int64(float64(baseline.Cycles) * (1 + opts.MaxSlowdown))

	// Candidate blocks, busiest tag spaces first so the search attacks
	// the biggest state contributors early; the order is fixed up front
	// to keep the search deterministic.
	var blocks []string
	usage := map[string]int{}
	for _, s := range baseline.Spaces {
		if s.Block == "root" || s.Allocs == 0 {
			continue
		}
		blocks = append(blocks, s.Block)
		usage[s.Block] = s.PeakInUse
	}
	sort.Slice(blocks, func(i, j int) bool {
		if usage[blocks[i]] != usage[blocks[j]] {
			return usage[blocks[i]] > usage[blocks[j]]
		}
		return blocks[i] < blocks[j]
	})

	current := map[string]int{}
	improved := true
	for improved && out.Trials < opts.MaxTrials {
		improved = false
		for _, blk := range blocks {
			if out.Trials >= opts.MaxTrials {
				break
			}
			have := opts.BaselineTags
			if t, ok := current[blk]; ok {
				have = t
			}
			next := have / 2
			if next < opts.MinTags {
				continue
			}
			trial := copyTags(current)
			trial[blk] = next
			res, err := run(trial)
			if err != nil {
				return out, err
			}
			out.Trials++
			if !res.Completed || res.Cycles > budget || res.PeakLive > out.Tuned.PeakLive {
				continue // reject: slower than allowed or no state win
			}
			current = trial
			out.Tuned = res
			out.Steps = append(out.Steps, Step{
				Block: blk, From: have, To: next,
				PeakLive: res.PeakLive, Cycles: res.Cycles,
			})
			improved = true
		}
	}
	out.BlockTags = current
	return out, nil
}

func copyTags(m map[string]int) map[string]int {
	out := make(map[string]int, len(m)+1)
	for k, v := range m {
		out[k] = v
	}
	return out
}
