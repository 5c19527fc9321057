// Package lcsynth is a miniature version of the LC framework [4] the paper
// used to design its algorithms: §3 explains that the authors generated
// over 100,000 candidate compressors by chaining data transformations and
// analyzed the best, which led to DIFFMS, RZE, FCM, RARE, and RAZE.
//
// This package reproduces that methodology at library scale: it holds a
// registry of composable transform components (every stage from
// internal/transforms plus identity), enumerates pipelines up to a given
// depth, scores each candidate on sample data by compression ratio and
// measured throughput, and reports the Pareto-optimal pipelines. The
// example in cmd/lcsearch shows the paper's own stage combinations
// re-emerging from the search.
package lcsynth

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"fpcompress/internal/transforms"
	"fpcompress/internal/wordio"
)

// Component is one selectable pipeline stage.
type Component struct {
	// Name identifies the stage ("DIFFMS32", "BIT32", ...).
	Name string
	// New constructs the transform.
	New func() transforms.Transform
	// Reduces marks stages whose output can be smaller than their input.
	// A useful pipeline ends with at least one reducing stage.
	Reduces bool
}

// Components returns the searchable component set for a word size.
func Components(word wordio.WordSize) []Component {
	cs := []Component{
		{Name: "DIFFMS" + suffix(word), New: func() transforms.Transform { return transforms.DiffMS{Word: word} }},
		{Name: "BIT" + suffix(word), New: func() transforms.Transform { return transforms.Bit{Word: word} }},
		{Name: "MPLG" + suffix(word), New: func() transforms.Transform { return transforms.MPLG{Word: word} }, Reduces: true},
		{Name: "RZE", New: func() transforms.Transform { return transforms.RZE{} }, Reduces: true},
	}
	if word == wordio.W64 {
		cs = append(cs,
			Component{Name: "FCM64", New: func() transforms.Transform { return transforms.FCM{} }},
			Component{Name: "RAZE", New: func() transforms.Transform { return transforms.RAZE{} }, Reduces: true},
			Component{Name: "RARE", New: func() transforms.Transform { return transforms.RARE{} }, Reduces: true},
		)
	}
	return cs
}

func suffix(word wordio.WordSize) string {
	if word == wordio.W32 {
		return "32"
	}
	return "64"
}

// Candidate is one evaluated pipeline.
type Candidate struct {
	// Stages is the component name sequence.
	Stages []string
	// Ratio is the total compression ratio over the sample inputs.
	Ratio float64
	// EncMBps and DecMBps are measured single-threaded throughputs.
	EncMBps, DecMBps float64
	// Pareto marks ratio/throughput-optimal candidates.
	Pareto bool
}

// String renders the pipeline like Figure 1 lists stages.
func (c Candidate) String() string {
	s := ""
	for i, st := range c.Stages {
		if i > 0 {
			s += " -> "
		}
		s += st
	}
	return fmt.Sprintf("%-40s ratio %.3f enc %.0f MB/s dec %.0f MB/s", s, c.Ratio, c.EncMBps, c.DecMBps)
}

// Search enumerates every pipeline of 1..maxDepth distinct stages that ends
// in a reducing stage, evaluates each on the samples, and returns all
// candidates sorted by descending ratio with the Pareto front marked.
// Pipelines that fail to invert exactly are discarded (none should).
func Search(components []Component, samples [][]byte, maxDepth int) ([]Candidate, error) {
	var out []Candidate
	var stack []Component
	var build func(depth int) error
	build = func(depth int) error {
		if len(stack) > 0 && stack[len(stack)-1].Reduces {
			c, err := evaluate(stack, samples)
			if err != nil {
				return err
			}
			out = append(out, c)
		}
		if depth == maxDepth {
			return nil
		}
		for _, comp := range components {
			if contains(stack, comp.Name) {
				continue // repeating a stage never helped in the paper's search
			}
			stack = append(stack, comp)
			if err := build(depth + 1); err != nil {
				return err
			}
			stack = stack[:len(stack)-1]
		}
		return nil
	}
	if err := build(0); err != nil {
		return nil, err
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Ratio > out[b].Ratio })
	markPareto(out)
	return out, nil
}

func contains(stack []Component, name string) bool {
	for _, c := range stack {
		if c.Name == name {
			return true
		}
	}
	return false
}

// evaluate runs one pipeline over all samples, verifying invertibility.
func evaluate(stack []Component, samples [][]byte) (Candidate, error) {
	p := make(transforms.Pipeline, len(stack))
	names := make([]string, len(stack))
	for i, c := range stack {
		p[i] = c.New()
		names[i] = c.Name
	}
	var rawTotal, encTotal int
	var encDur, decDur time.Duration
	for _, src := range samples {
		start := time.Now()
		enc := p.ForwardInto(nil, src)
		encDur += time.Since(start)
		start = time.Now()
		dec, err := p.InverseInto(nil, enc, transforms.NoLimit)
		decDur += time.Since(start)
		if err != nil {
			return Candidate{}, fmt.Errorf("pipeline %v: %w", names, err)
		}
		if !bytes.Equal(dec, src) {
			return Candidate{}, fmt.Errorf("pipeline %v: not lossless", names)
		}
		rawTotal += len(src)
		encTotal += len(enc)
	}
	return Candidate{
		Stages:  names,
		Ratio:   float64(rawTotal) / float64(encTotal),
		EncMBps: float64(rawTotal) / encDur.Seconds() / 1e6,
		DecMBps: float64(rawTotal) / decDur.Seconds() / 1e6,
	}, nil
}

// markPareto sets Pareto on every candidate not dominated in
// (Ratio, EncMBps).
func markPareto(cs []Candidate) {
	for i := range cs {
		dominated := false
		for j := range cs {
			if i == j {
				continue
			}
			if cs[j].Ratio >= cs[i].Ratio && cs[j].EncMBps >= cs[i].EncMBps &&
				(cs[j].Ratio > cs[i].Ratio || cs[j].EncMBps > cs[i].EncMBps) {
				dominated = true
				break
			}
		}
		cs[i].Pareto = !dominated
	}
}
