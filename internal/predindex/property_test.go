package predindex

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"triggerman/internal/datasource"
	"triggerman/internal/expr"
	"triggerman/internal/minisql"
	"triggerman/internal/parser"
	"triggerman/internal/storage"
	"triggerman/internal/types"
)

// TestPropertyIndexMatchesNaive is the package's oracle: for random
// predicate populations (equality, range, equality plus range,
// composite, disjunctive — all indexability classes) and random tokens,
// NULL and NaN values included, the predicate index must return exactly
// the trigger set a naive evaluate-everything matcher returns, under
// every organization.
func TestPropertyIndexMatchesNaive(t *testing.T) {
	orgs := []Organization{OrgMemoryList, OrgMemoryIndex, OrgIndexedTable, OrgTable}
	for _, org := range orgs {
		t.Run(org.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(org) * 7919))
			var opts []Option
			bp := storage.NewBufferPool(storage.NewMem(), 1024)
			db, err := minisql.Create(bp)
			if err != nil {
				t.Fatal(err)
			}
			opts = append(opts, WithDB(db), WithForcedOrganization(org))
			ix := New(opts...)
			ix.AddSource(empSrc, empSchema)

			type naive struct {
				id   uint64
				pred expr.Node
			}
			var preds []naive

			n := 120
			if org == OrgTable {
				n = 40 // full scans per probe; keep the oracle fast
			}
			for i := 0; i < n; i++ {
				when := randomWhen(rng)
				sig, consts := buildSig(t, when)
				ref := refFor(t, sig, consts, uint64(i+1), uint64(i+1))
				if _, err := ix.AddPredicate(empSrc, EventMask{AnyOp: true}, sig, consts, ref); err != nil {
					t.Fatalf("%q: %v", when, err)
				}
				node := mustBound(t, when)
				preds = append(preds, naive{uint64(i + 1), node})
			}

			for probe := 0; probe < 200; probe++ {
				tok := randomTok(rng)
				want := map[uint64]bool{}
				env := expr.SingleEnv{New: tok.New}
				for _, p := range preds {
					ok, err := expr.EvalPredicate(p.pred, env)
					if err != nil {
						t.Fatal(err)
					}
					if ok == expr.True {
						want[p.id] = true
					}
				}
				got := map[uint64]bool{}
				if err := ix.MatchToken(tok, func(m Match) bool {
					if got[m.TriggerID] {
						t.Fatalf("duplicate match for trigger %d", m.TriggerID)
					}
					got[m.TriggerID] = true
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("probe %d %s: got %d matches, want %d\n got=%v\nwant=%v",
						probe, tok, len(got), len(want), got, want)
				}
				for id := range want {
					if !got[id] {
						t.Fatalf("probe %d: missing trigger %d", probe, id)
					}
				}
			}
		})
	}
}

// randomWhen generates a random single-variable predicate exercising
// every indexability class. Equality-plus-range predicates draw their
// key from three names and their bound from twenty values, int or
// float, so many bounds share a key and some repeat.
func randomWhen(rng *rand.Rand) string {
	name := func() string { return fmt.Sprintf("'u%02d'", rng.Intn(20)) }
	dept := func() string { return fmt.Sprintf("'d%02d'", rng.Intn(20)) }
	sal := func() int { return rng.Intn(2000) }
	key := func() string { return fmt.Sprintf("'u%02d'", rng.Intn(3)) }
	bound := func() string {
		if rng.Intn(10) == 0 {
			// Around 2^53, where int and float comparisons part ways.
			return []string{"9007199254740992", "9007199254740992.0", "9007199254740993"}[rng.Intn(3)]
		}
		b := rng.Intn(20) * 100
		if rng.Intn(3) == 0 {
			return fmt.Sprintf("%d.5", b)
		}
		return fmt.Sprint(b)
	}
	op := func() string { return []string{"<", "<=", ">", ">="}[rng.Intn(4)] }
	switch rng.Intn(11) {
	case 0:
		return fmt.Sprintf("emp.name = %s", name())
	case 1:
		return fmt.Sprintf("emp.salary > %d", sal())
	case 2:
		return fmt.Sprintf("emp.salary <= %d", sal())
	case 3:
		return fmt.Sprintf("emp.name = %s and emp.dept = %s", name(), dept())
	case 4:
		return fmt.Sprintf("emp.name = %s and emp.salary %s %s", key(), op(), bound())
	case 5:
		return fmt.Sprintf("emp.name = %s or emp.dept = %s", name(), dept())
	case 6:
		return fmt.Sprintf("emp.salary between %d and %d", sal()/2, 1000+sal())
	case 7:
		// The flipped form: the constant on the left.
		return fmt.Sprintf("%s %s emp.salary and emp.name = %s", bound(), op(), key())
	case 8:
		return fmt.Sprintf("emp.name = %s and emp.dept = 'd%02d' and emp.salary %s %s", key(), rng.Intn(2), op(), bound())
	case 9:
		// A second range clause stays in the rest.
		return fmt.Sprintf("emp.name = %s and emp.salary %s %s and emp.salary < %d", key(), op(), bound(), 1000+sal())
	default:
		return fmt.Sprintf("not (emp.dept = %s)", dept())
	}
}

// randomTok draws an insert token. Names favour the equality-plus-range
// keys; salaries are mostly ints, often equal to a bound, and sometimes
// float, NULL, NaN or an int near 2^53; names are sometimes NULL.
func randomTok(rng *rand.Rand) datasource.Token {
	name := types.NewString(fmt.Sprintf("u%02d", rng.Intn(20)))
	switch rng.Intn(10) {
	case 0:
		name = types.Null()
	case 1, 2, 3, 4:
		name = types.NewString(fmt.Sprintf("u%02d", rng.Intn(3)))
	}
	var salary types.Value
	switch rng.Intn(20) {
	case 0:
		salary = types.Null()
	case 1:
		salary = types.NewFloat(math.NaN())
	case 2, 3:
		salary = types.NewFloat(float64(rng.Intn(20)*100) + 0.5*float64(rng.Intn(2)))
	case 4, 5, 6, 7:
		salary = types.NewInt(int64(rng.Intn(20) * 100))
	case 8:
		salary = types.NewInt(1<<53 + int64(rng.Intn(2)))
	default:
		salary = types.NewInt(int64(rng.Intn(2000)))
	}
	return datasource.Token{
		SourceID: empSrc,
		Op:       datasource.OpInsert,
		New:      types.Tuple{name, salary, types.NewString(fmt.Sprintf("d%02d", rng.Intn(20)))},
	}
}

func mustBound(t *testing.T, when string) expr.Node {
	t.Helper()
	n, err := parseAndBind(when)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func parseAndBind(when string) (expr.Node, error) {
	n, err := parser.ParseExpr(when)
	if err != nil {
		return nil, err
	}
	b := &expr.Binder{
		VarIndex:   map[string]int{"emp": 0},
		DefaultVar: 0,
		ColumnIndex: func(_ int, col string) int {
			return empSchema.ColumnIndex(col)
		},
	}
	if err := b.Bind(n); err != nil {
		return nil, err
	}
	return n, nil
}

// TestPropertyRemoveRestoresNaive removes a random half of the
// predicates and re-checks the oracle, covering delete paths of every
// organization.
func TestPropertyRemoveRestoresNaive(t *testing.T) {
	for _, org := range []Organization{OrgMemoryList, OrgMemoryIndex, OrgIndexedTable} {
		t.Run(org.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(org) * 104729))
			bp := storage.NewBufferPool(storage.NewMem(), 1024)
			db, _ := minisql.Create(bp)
			ix := New(WithDB(db), WithForcedOrganization(org))
			ix.AddSource(empSrc, empSchema)

			type entryInfo struct {
				id     uint64
				pred   expr.Node
				entry  *SignatureEntry
				consts []types.Value
			}
			var all []entryInfo
			for i := 0; i < 80; i++ {
				when := randomWhen(rng)
				sig, consts := buildSig(t, when)
				ref := refFor(t, sig, consts, uint64(i+1), uint64(i+1))
				e, err := ix.AddPredicate(empSrc, EventMask{AnyOp: true}, sig, consts, ref)
				if err != nil {
					t.Fatal(err)
				}
				all = append(all, entryInfo{uint64(i + 1), mustBound(t, when), e, consts})
			}
			live := map[uint64]expr.Node{}
			for _, e := range all {
				live[e.id] = e.pred
			}
			for _, e := range all {
				if rng.Intn(2) == 0 {
					if err := ix.RemovePredicate(e.entry, e.consts, e.id); err != nil {
						t.Fatal(err)
					}
					delete(live, e.id)
				}
			}
			for probe := 0; probe < 100; probe++ {
				tok := randomTok(rng)
				env := expr.SingleEnv{New: tok.New}
				want := map[uint64]bool{}
				for id, pred := range live {
					ok, err := expr.EvalPredicate(pred, env)
					if err != nil {
						t.Fatal(err)
					}
					if ok == expr.True {
						want[id] = true
					}
				}
				got := map[uint64]bool{}
				ix.MatchToken(tok, func(m Match) bool { got[m.TriggerID] = true; return true })
				if len(got) != len(want) {
					t.Fatalf("probe %d: got %v want %v", probe, got, want)
				}
			}
		})
	}
}

// TestPropertyInterleavedMigration adds and removes random predicates
// under the adaptive policy, with thresholds low enough that classes
// move list → memory index → indexed table mid-run, and re-partitions
// every class halfway. After every step batch the index must agree
// with the naive matcher, and so must the union of its partitions.
func TestPropertyInterleavedMigration(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db, err := minisql.Create(storage.NewBufferPool(storage.NewMem(), 1024))
	if err != nil {
		t.Fatal(err)
	}
	ix := newIx(t, WithDB(db), WithPolicy(Policy{ListMax: 2, MemMax: 6}))

	type live struct {
		pred   expr.Node
		entry  *SignatureEntry
		consts []types.Value
	}
	preds := map[uint64]live{}
	var ids []uint64
	parts := 1
	check := func(step int) {
		t.Helper()
		for probe := 0; probe < 20; probe++ {
			tok := randomTok(rng)
			env := expr.SingleEnv{New: tok.New}
			want := map[uint64]bool{}
			for id, p := range preds {
				if ok, err := expr.EvalPredicate(p.pred, env); err != nil {
					t.Fatal(err)
				} else if ok == expr.True {
					want[id] = true
				}
			}
			got := map[uint64]bool{}
			for p := 0; p < parts; p++ {
				if err := ix.MatchTokenPartition(tok, p, func(m Match) bool {
					if got[m.TriggerID] {
						t.Fatalf("step %d: trigger %d matched twice across partitions", step, m.TriggerID)
					}
					got[m.TriggerID] = true
					return true
				}); err != nil {
					t.Fatal(err)
				}
			}
			all := triggerIDs(matchAll(t, ix, tok))
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(all, want) {
				t.Fatalf("step %d %s: partitions %v, whole %v, want %v", step, tok, got, all, want)
			}
		}
	}
	for step := 1; step <= 400; step++ {
		if len(ids) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(ids))
			id := ids[i]
			ids = append(ids[:i], ids[i+1:]...)
			p := preds[id]
			if err := ix.RemovePredicate(p.entry, p.consts, id); err != nil {
				t.Fatal(err)
			}
			delete(preds, id)
		} else {
			when := randomWhen(rng)
			if rng.Intn(2) == 0 {
				// One class big enough to cross both thresholds.
				when = fmt.Sprintf("emp.name = 'u%02d' and emp.salary >= %d", rng.Intn(3), rng.Intn(20)*100)
			}
			sig, consts := buildSig(t, when)
			id := uint64(step)
			e, err := ix.AddPredicate(empSrc, EventMask{AnyOp: true}, sig, consts, refFor(t, sig, consts, id, id))
			if err != nil {
				t.Fatalf("%q: %v", when, err)
			}
			if e.Partitions() != parts {
				// A class first seen after the split joins it.
				if err := e.SetPartitions(parts); err != nil {
					t.Fatal(err)
				}
			}
			preds[id] = live{mustBound(t, when), e, consts}
			ids = append(ids, id)
		}
		if step == 200 {
			parts = 3
			for _, e := range ix.Signatures(empSrc) {
				if err := e.SetPartitions(parts); err != nil {
					t.Fatal(err)
				}
			}
		}
		if step%10 == 0 {
			check(step)
		}
	}
	seen := map[Organization]bool{}
	for _, e := range ix.Signatures(empSrc) {
		if e.Sig.RangeCol >= 0 && len(e.Sig.EqCols) > 0 {
			seen[e.Organization()] = true
		}
	}
	if !seen[OrgIndexedTable] {
		t.Fatalf("no equality-plus-range class reached the indexed table: %v", seen)
	}
}

// TestEqualityRangeAround2p53: near 2^53, int-int comparisons are exact
// but int-float ones round, so types.Compare is not a total order over
// such bounds. Every organization must still agree with the naive
// matcher, whichever order the bounds arrive in.
func TestEqualityRangeAround2p53(t *testing.T) {
	bounds := []string{"9007199254740992.0", "9007199254740992", "9007199254740993", "9007199254740991", "9007199254740994.0"}
	tokens := []types.Value{
		types.NewInt(1 << 53), types.NewInt(1<<53 + 1), types.NewInt(1<<53 + 2), types.NewInt(1<<53 - 1),
		types.NewFloat(1 << 53), types.NewFloat(math.NaN()), types.Null(),
	}
	for _, org := range []Organization{OrgMemoryList, OrgMemoryIndex, OrgTable, OrgIndexedTable} {
		for _, reversed := range []bool{false, true} {
			db, err := minisql.Create(storage.NewBufferPool(storage.NewMem(), 256))
			if err != nil {
				t.Fatal(err)
			}
			ix := newIx(t, WithDB(db), WithForcedOrganization(org))
			preds := map[uint64]expr.Node{}
			id := uint64(0)
			for _, op := range []string{"<", "<=", ">", ">="} {
				for i := range bounds {
					b := bounds[i]
					if reversed {
						b = bounds[len(bounds)-1-i]
					}
					id++
					when := fmt.Sprintf("emp.name = 'k' and emp.salary %s %s", op, b)
					sig, consts := buildSig(t, when)
					if _, err := ix.AddPredicate(empSrc, EventMask{AnyOp: true}, sig, consts, refFor(t, sig, consts, id, id)); err != nil {
						t.Fatal(err)
					}
					preds[id] = mustBound(t, when)
				}
			}
			for _, v := range tokens {
				tok := datasource.Token{SourceID: empSrc, Op: datasource.OpInsert,
					New: types.Tuple{types.NewString("k"), v, types.NewString("d")}}
				want := map[uint64]bool{}
				for id, p := range preds {
					if ok, _ := expr.EvalPredicate(p, expr.SingleEnv{New: tok.New}); ok == expr.True {
						want[id] = true
					}
				}
				if got := triggerIDs(matchAll(t, ix, tok)); !reflect.DeepEqual(got, want) {
					t.Errorf("%s reversed=%v salary=%s: got %v, want %v", org, reversed, v, got, want)
				}
			}
		}
	}
}
