package predindex

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"triggerman/internal/datasource"
	"triggerman/internal/expr"
	"triggerman/internal/types"
)

// TestPropertyProbeDuringAdd: concurrent probes against an index with
// one viral constant — while another goroutine keeps adding predicates
// to the same signature — must produce exactly the totals a
// single-threaded reference predicts. The memory organizations mutate
// in place under the entry write lock, so this pins that a probe holds
// the entry's read lock across the whole set walk. Run under -race.
func TestPropertyProbeDuringAdd(t *testing.T) {
	const (
		probers    = 8
		probesEach = 2000 // even: half on the hot constant, half cold
		hotTrigs   = 3
		ncold      = 10
		adderAdds  = 150
	)
	// Forced organization so concurrent adds never cross a reorg
	// threshold mid-run; the COW add path is exercised all the same.
	ix := newIx(t, WithForcedOrganization(OrgMemoryIndex))
	mask := EventMask{AnyOp: true}

	// One viral constant carrying several triggers, plus cold singleton
	// constants — all the same signature shape, so one entry.
	var entry *SignatureEntry
	for i := 0; i < hotTrigs; i++ {
		sig, consts := buildSig(t, "emp.name = 'hot'")
		e, err := ix.AddPredicate(empSrc, mask, sig, consts, refFor(t, sig, consts, uint64(i+1), uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		entry = e
	}
	for i := 0; i < ncold; i++ {
		sig, consts := buildSig(t, fmt.Sprintf("emp.name = 'c%02d'", i))
		if _, err := ix.AddPredicate(empSrc, mask, sig, consts, refFor(t, sig, consts, uint64(100+i), uint64(100+i))); err != nil {
			t.Fatal(err)
		}
	}

	// Pre-build the concurrent adder's work in the test goroutine
	// (buildSig may t.Fatal). The added constants are never probed, so
	// the expected totals stay deterministic.
	type addJob struct {
		sig    *expr.Signature
		consts []types.Value
		ref    Ref
	}
	jobs := make([]addJob, adderAdds)
	for i := range jobs {
		sig, consts := buildSig(t, fmt.Sprintf("emp.name = 'zz%03d'", i))
		jobs[i] = addJob{sig, consts, refFor(t, sig, consts, uint64(5000+i), uint64(5000+i))}
	}

	errCh := make(chan error, probers+1)
	var adder sync.WaitGroup
	adder.Add(1)
	go func() { // adder: in-place set updates racing every probe
		defer adder.Done()
		for _, j := range jobs {
			if _, err := ix.AddPredicate(empSrc, mask, j.sig, j.consts, j.ref); err != nil {
				errCh <- err
				return
			}
			runtime.Gosched()
		}
	}()

	var gotMatches atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < probers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local int64
			for i := 0; i < probesEach; i++ {
				var tok datasource.Token
				if i%2 == 0 {
					tok = insertTok("hot", int64(i), "d00")
				} else {
					tok = insertTok(fmt.Sprintf("c%02d", (i/2+w)%ncold), int64(i), "d00")
				}
				if err := ix.MatchToken(tok, func(Match) bool {
					local++
					return true
				}); err != nil {
					errCh <- err
					return
				}
				if i%16 == 0 {
					runtime.Gosched() // interleave on single-P schedulers too
				}
			}
			gotMatches.Add(local)
		}(w)
	}
	wg.Wait()
	adder.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Single-threaded reference.
	const (
		totalProbes = probers * probesEach
		hotProbes   = totalProbes / 2
		wantMatches = hotProbes*hotTrigs + (totalProbes - hotProbes)
	)
	if got := gotMatches.Load(); got != wantMatches {
		t.Fatalf("callback matches = %d, want %d", got, wantMatches)
	}
	if got := entry.ProbeCount(); got != totalProbes {
		t.Fatalf("entry probes = %d, want %d", got, totalProbes)
	}
	if got := entry.MatchCount(); got != wantMatches {
		t.Fatalf("entry matches = %d, want %d", got, wantMatches)
	}
	st := ix.Stats()
	if st.Tokens != totalProbes || st.SigProbes != totalProbes || st.Matches != wantMatches {
		t.Fatalf("stats tokens/sigProbes/matches = %d/%d/%d, want %d/%d/%d",
			st.Tokens, st.SigProbes, st.Matches, totalProbes, totalProbes, wantMatches)
	}
	if st.RestTests != 0 {
		t.Fatalf("restTests = %d, want 0 (pure equality signatures)", st.RestTests)
	}

	snaps := ix.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("snapshot entries = %d, want 1", len(snaps))
	}
	if snaps[0].Probes != totalProbes || snaps[0].Matches != wantMatches {
		t.Fatalf("snapshot probes/matches = %d/%d, want %d/%d",
			snaps[0].Probes, snaps[0].Matches, totalProbes, wantMatches)
	}

	// The racing adds must all be visible after the run.
	ms := matchAll(t, ix, insertTok("zz000", 1, "d00"))
	if len(ms) != 1 || ms[0].TriggerID != 5000 {
		t.Fatalf("concurrently added predicate not matchable: %v", ms)
	}
}
