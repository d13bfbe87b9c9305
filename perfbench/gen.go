package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"text/template"

	"repro/internal/api"
	"repro/internal/apps"
	"repro/internal/harness"
)

//go:embed templates/*.tyr
var templateFS embed.FS

// A template is one parameterised .tyr program and the ranges its
// parameters are drawn from. Ranges keep each program at a few thousand
// dynamic instructions, so a request's cost is dominated by the request
// path (parse, check, oracle, compile) rather than by the engine.
type programTemplate struct {
	name   string
	params []param
	tmpl   *template.Template
}

type param struct {
	name   string
	lo, hi int64 // drawn uniformly from [lo, hi)
}

var templates = mustTemplates([]programTemplate{
	{name: "dot", params: []param{{"N", 8, 48}, {"P", 3, 12}, {"Q", 1, 6}, {"R", 2, 9}}},
	{name: "collatz", params: []param{{"LO", 2, 400}, {"W", 4, 12}}},
	{name: "hist", params: []param{{"N", 16, 64}, {"B", 4, 16}, {"S", 1, 1000}, {"M", 3, 90}, {"C", 1, 50}}},
	{name: "scan", params: []param{{"N", 8, 48}, {"A", 3, 40}, {"B", 0, 30}, {"M", 17, 97}, {"K", 0, 5}}},
})

func mustTemplates(ts []programTemplate) []programTemplate {
	for i := range ts {
		src, err := templateFS.ReadFile("templates/" + ts[i].name + ".tyr")
		if err != nil {
			panic(err)
		}
		ts[i].tmpl = template.Must(template.New(ts[i].name).Option("missingkey=error").Parse(string(src)))
	}
	return ts
}

// Streams separate the generators drawn from one seed, so adding draws to
// one input never shifts another.
const (
	streamOrder uint64 = iota + 1
	streamTiny
	streamPool
	streamSource
	streamWarm
)

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// programPool renders n distinct programs, cycling through the templates
// so each is equally represented.
func programPool(seed int64, n int) []string {
	r := newRand(seed, streamPool)
	seen := make(map[string]bool, n)
	pool := make([]string, 0, n)
	for len(pool) < n {
		t := templates[len(pool)%len(templates)]
		vals := make(map[string]int64, len(t.params))
		for _, p := range t.params {
			vals[p.name] = p.lo + r.Int64N(p.hi-p.lo)
		}
		var b bytes.Buffer
		if err := t.tmpl.Execute(&b, vals); err != nil {
			panic(err)
		}
		if src := b.String(); !seen[src] {
			seen[src] = true
			pool = append(pool, src)
		}
	}
	return pool
}

// tinyCells lists the 35 (kernel, system) cells of the tiny suite.
func tinyCells() []api.Request {
	var cells []api.Request
	for _, app := range apps.Suite(apps.ScaleTiny) {
		for _, sys := range harness.Systems {
			cells = append(cells, api.Request{App: app.Name, Scale: "tiny", System: sys})
		}
	}
	return cells
}

// tinySequence draws n /v1/run bodies uniformly over the tiny cells.
func tinySequence(seed int64, n int) [][]byte {
	cells := tinyCells()
	r := newRand(seed, streamTiny)
	out := make([][]byte, n)
	for i := range out {
		out[i] = mustJSON(cells[r.IntN(len(cells))])
	}
	return out
}

// sourceSequence draws n inline-source /v1/run bodies: a program uniformly
// from the pool on a system uniformly from the five.
func sourceSequence(seed int64, stream uint64, pool []string, n int) [][]byte {
	r := newRand(seed, stream)
	out := make([][]byte, n)
	for i := range out {
		out[i] = mustJSON(api.Request{
			Source: pool[r.IntN(len(pool))],
			System: harness.Systems[r.IntN(len(harness.Systems))],
		})
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encoding %T: %v", v, err))
	}
	return b
}
