package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// compare prints each metric of two saved results side by side. It
// refuses (exit 2) when the runs come from different host fingerprints,
// workloads or trace modes: such deltas measure the machine, not the code.
func compare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare old.json new.json")
		return 2
	}
	var runs [2]saved
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &runs[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
	}
	a, b := runs[0], runs[1]
	if a.Fingerprint != b.Fingerprint {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to compare across hosts:\n  %+v\n  %+v\n", a.Fingerprint, b.Fingerprint)
		return 2
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to compare %s/trace=%d with %s/trace=%d\n", a.Workload, a.Trace, b.Workload, b.Trace)
		return 2
	}
	var names []string
	for n := range a.Result.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		x := a.Result.Metrics[n]
		y, ok := b.Result.Metrics[n]
		if !ok {
			continue
		}
		delta := "n/a"
		if x.Value != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(y.Value/x.Value-1))
		}
		fmt.Printf("%-34s %14.4f %14.4f %-6s %s\n", n, x.Value, y.Value, x.Unit, delta)
	}
	return 0
}
