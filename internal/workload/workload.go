// Package workload generates the synthetic trigger populations and
// update streams used by the experiment harness (EXPERIMENTS.md). The
// generators encode the paper's core premise: "if a large number of
// triggers are created, it is almost certainly the case that many of
// them have almost the same format" — so trigger populations are drawn
// from a small pool of expression signatures with many distinct
// constants.
package workload

import (
	"fmt"
	"math/rand"

	"triggerman/internal/datasource"
	"triggerman/internal/expr"
	"triggerman/internal/types"
)

// EmpSchema is the employee schema used by most experiments.
var EmpSchema = types.MustSchema(
	types.Column{Name: "name", Kind: types.KindVarchar},
	types.Column{Name: "salary", Kind: types.KindInt},
	types.Column{Name: "dept", Kind: types.KindVarchar},
)

// EmpRow builds an employee tuple.
func EmpRow(name string, salary int64, dept string) types.Tuple {
	return types.Tuple{types.NewString(name), types.NewInt(salary), types.NewString(dept)}
}

// EqualityTriggers returns n create-trigger statements of the single
// signature "emp.name = <const>", with constants cycling over
// distinctConsts values. Trigger i raises event E<i>.
func EqualityTriggers(n, distinctConsts int) []string {
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = fmt.Sprintf(
			"create trigger eq%07d from emp when emp.name = 'user%07d' do raise event Eq(emp.salary)",
			i, i%distinctConsts)
	}
	return out
}

// RangeTriggers returns n statements of the signature
// "emp.salary > <const>" with constants spread over [0, maxConst).
func RangeTriggers(n int, maxConst int64) []string {
	out := make([]string, n)
	for i := 0; i < n; i++ {
		c := int64(i) * maxConst / int64(n)
		out[i] = fmt.Sprintf(
			"create trigger rg%07d from emp when emp.salary > %d do raise event Rg(emp.name)",
			i, c)
	}
	return out
}

// SameConditionTriggers returns n statements sharing one condition and
// constant (Figure 5's shape: same condition, different actions).
func SameConditionTriggers(n int) []string {
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = fmt.Sprintf(
			"create trigger same%07d from emp when emp.dept = 'PENDING' do raise event Same%07d()",
			i, i)
	}
	return out
}

// MixedSignatureTriggers returns n statements drawn round-robin from
// sigPool distinct signatures (equality and range shapes over the three
// emp columns), each instantiated with a fresh constant. This models
// the paper's claim that even millions of triggers exhibit only a few
// hundred signatures.
func MixedSignatureTriggers(n, sigPool int) []string {
	// Range thresholds spread over ~[0, 2n*scale] so a token stream with
	// salaries over the same domain matches a selective fraction of the
	// range predicates instead of nearly all of them.
	shapes := []func(i, c int) string{
		func(i, c int) string { return fmt.Sprintf("emp.name = 'u%07d'", c) },
		func(i, c int) string { return fmt.Sprintf("emp.salary > %d", 900_000+c*17%100_000) },
		func(i, c int) string { return fmt.Sprintf("emp.dept = 'd%07d'", c) },
		func(i, c int) string { return fmt.Sprintf("emp.salary < %d", c*13%100_000) },
		func(i, c int) string { return fmt.Sprintf("emp.name = 'u%07d' and emp.salary > %d", c, c) },
		func(i, c int) string { return fmt.Sprintf("emp.dept = 'd%07d' and emp.salary < %d", c, c) },
		func(i, c int) string { return fmt.Sprintf("emp.salary >= %d", 950_000+c*7%50_000) },
		func(i, c int) string { return fmt.Sprintf("emp.name = 'u%07d' and emp.dept = 'd%07d'", c, c%97) },
	}
	if sigPool < 1 {
		sigPool = 1
	}
	if sigPool > len(shapes) {
		// Extend the pool with distinct-column-constant composites:
		// each extra slot compares salary against a distinct multiple.
		for k := len(shapes); k < sigPool; k++ {
			mult := int64(k)
			shapes = append(shapes, func(i, c int) string {
				return fmt.Sprintf("emp.salary * %d > %d", mult, c)
			})
		}
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		shape := shapes[i%sigPool]
		out[i] = fmt.Sprintf(
			"create trigger mx%07d from emp when %s do raise event Mx(emp.salary)",
			i, shape(i, i))
	}
	return out
}

// InsertTokens returns count insert descriptors over the emp schema with
// names drawn uniformly from nameSpace and salaries from [0, maxSalary).
func InsertTokens(rng *rand.Rand, count, nameSpace int, maxSalary int64, sourceID int32) []datasource.Token {
	out := make([]datasource.Token, count)
	for i := range out {
		out[i] = datasource.Token{
			SourceID: sourceID,
			Op:       datasource.OpInsert,
			New: EmpRow(
				fmt.Sprintf("user%07d", rng.Intn(nameSpace)),
				rng.Int63n(maxSalary),
				fmt.Sprintf("d%07d", rng.Intn(nameSpace))),
		}
	}
	return out
}

// DefaultZipf is the zipf exponent the tmbench harness has always used
// for its skewed draws (cache skew, hot-key sweeps); the -zipf flag
// defaults to it.
const DefaultZipf = 1.3

// DefaultZipfGoBench is the exponent the go-test benchmark harness
// (BenchmarkE5 in bench_test.go) has always used for its cache-skew
// draw.
const DefaultZipfGoBench = 1.07

// ZipfIDs returns count trigger IDs in [1, n] drawn from a Zipf
// distribution with parameter s (skew grows with s); used by the
// trigger-cache experiment.
func ZipfIDs(rng *rand.Rand, count, n int, s float64) []uint64 {
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	out := make([]uint64, count)
	for i := range out {
		out[i] = z.Uint64() + 1
	}
	return out
}

// ContendedIDs returns count IDs in [1, n] where an expected fraction f
// of the draws hit the single contended key (ID 1 — the "viral
// entity") and the remainder spread over the background domain
// [2, n]: zipf with exponent s when s > 1, uniform otherwise. The
// background never lands on the contended key, so the hot key's
// observed fraction equals f up to sampling noise — the property the
// skew sweep's axes depend on. f is clamped to [0, 1].
func ContendedIDs(rng *rand.Rand, count, n int, f, s float64) []uint64 {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	if n < 2 {
		f = 1 // degenerate domain: only the contended key exists
	}
	var z *rand.Zipf
	if s > 1 && n > 2 {
		z = rand.NewZipf(rng, s, 1, uint64(n-2))
	}
	out := make([]uint64, count)
	for i := range out {
		if rng.Float64() < f {
			out[i] = 1
			continue
		}
		if z != nil {
			out[i] = z.Uint64() + 2
		} else {
			out[i] = uint64(rng.Intn(n-1)) + 2
		}
	}
	return out
}

// ContendedTokens returns count insert descriptors over the emp schema
// whose names follow the ContendedIDs distribution: an expected
// fraction f carries the one viral name (user0000000), the rest spread
// over nameSpace names — zipf-s when s > 1, uniform otherwise. This is
// the skew experiment's update stream: every hot token probes the same
// constant-set entry and bumps the same signature counters.
func ContendedTokens(rng *rand.Rand, count, nameSpace int, f, s float64, maxSalary int64, sourceID int32) []datasource.Token {
	ids := ContendedIDs(rng, count, nameSpace, f, s)
	out := make([]datasource.Token, count)
	for i := range out {
		out[i] = datasource.Token{
			SourceID: sourceID,
			Op:       datasource.OpInsert,
			New: EmpRow(
				fmt.Sprintf("user%07d", ids[i]-1),
				rng.Int63n(maxSalary),
				fmt.Sprintf("d%07d", rng.Intn(nameSpace))),
		}
	}
	return out
}

// NaivePredicate is one entry of the naive (unindexed) trigger matcher:
// the strategy of the ECA systems in the paper's §8, where "the cost
// ... is always at least linear in the number of triggers" because
// every applicable trigger's condition is tested per event.
type NaivePredicate struct {
	TriggerID uint64
	Pred      expr.Node // bound against the source schema (VarIdx 0)
}

// NaiveMatcher tests every predicate against every token — the baseline
// for experiment E1.
type NaiveMatcher struct {
	Preds []NaivePredicate
}

// Add appends a predicate.
func (m *NaiveMatcher) Add(triggerID uint64, pred expr.Node) {
	m.Preds = append(m.Preds, NaivePredicate{TriggerID: triggerID, Pred: pred})
}

// Match calls fn for every trigger whose predicate accepts the token.
func (m *NaiveMatcher) Match(tok datasource.Token, fn func(triggerID uint64) bool) error {
	env := expr.SingleEnv{New: tok.Effective(), Old: tok.Old}
	for _, p := range m.Preds {
		ok, err := expr.EvalPredicate(p.Pred, env)
		if err != nil {
			return err
		}
		if ok == expr.True {
			if !fn(p.TriggerID) {
				return nil
			}
		}
	}
	return nil
}

// BindEmp binds a predicate tree against the emp schema (helper for
// experiment setup).
func BindEmp(n expr.Node) error {
	b := &expr.Binder{
		VarIndex:   map[string]int{"emp": 0},
		DefaultVar: 0,
		ColumnIndex: func(_ int, col string) int {
			return EmpSchema.ColumnIndex(col)
		},
	}
	return b.Bind(n)
}
