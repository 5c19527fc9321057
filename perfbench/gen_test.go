package main

import (
	"testing"

	"fpcompress/internal/sdr"
)

// smallBulk keeps the test fast: the generator's logic is size-independent.
var smallBulk = bulkSpec{inputs: 3, size: 96 << 10, reads: 16}

func planDigests(seed uint64) (sp, dp, serve string) {
	spc := newCorpus(sdr.Single, 1<<12)
	dpc := newCorpus(sdr.Double, 1<<12)
	sp = makeBulkPlan(smallBulk, seed, spc).digest()
	dp = makeBulkPlan(smallBulk, seed, dpc).digest()
	serve = servePlanDigest(makeServePlan(seed, spc, dpc))
	return
}

func TestGeneratorDeterministic(t *testing.T) {
	sp1, dp1, sv1 := planDigests(7)
	sp2, dp2, sv2 := planDigests(7)
	if sp1 != sp2 || dp1 != dp2 || sv1 != sv2 {
		t.Fatalf("same seed, different inputs: %s/%s %s/%s %s/%s", sp1, sp2, dp1, dp2, sv1, sv2)
	}
	sp3, dp3, sv3 := planDigests(8)
	if sp1 == sp3 || dp1 == dp3 || sv1 == sv3 {
		t.Fatalf("seeds 7 and 8 generated identical inputs")
	}
}

func TestCorpusDomainsAndInputSize(t *testing.T) {
	for _, prec := range []sdr.Precision{sdr.Single, sdr.Double} {
		c := newCorpus(prec, 1<<12)
		want := map[sdr.Precision]int{sdr.Single: 7, sdr.Double: 5}[prec]
		if len(c.domains) != want {
			t.Fatalf("precision %d: %d domains, want %d", prec, len(c.domains), want)
		}
		in := c.input(newRand(1, 1), 64<<10, 1<<10)
		if len(in) != 64<<10 || len(in)%int(prec) != 0 {
			t.Fatalf("precision %d: input of %d bytes", prec, len(in))
		}
	}
}
