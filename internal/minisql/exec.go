package minisql

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"

	"triggerman/internal/expr"
	"triggerman/internal/parser"
	"triggerman/internal/storage"
	"triggerman/internal/types"
)

// Result is the outcome of a statement execution.
type Result struct {
	// Columns names the select projection (empty for DML).
	Columns []string
	// Rows holds select output.
	Rows []types.Tuple
	// Affected counts rows touched by insert/update/delete.
	Affected int
	// IndexUsed names the index chosen by the planner, if any.
	IndexUsed string
	// Table names the DML target (empty for select).
	Table string
	// Changes lists the row images touched by DML, in order, for update
	// capture: insert sets New, delete sets Old, update sets both.
	Changes []RowChange
}

// RowChange is one captured row mutation.
type RowChange struct {
	Old, New types.Tuple
}

// Exec parses and executes a statement string.
func (db *DB) Exec(sql string) (*Result, error) {
	st, err := parser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.ExecStmt(st)
}

// ExecStmt executes a pre-parsed statement. Column references in the
// statement must resolve against the target table; :NEW/:OLD references
// must already have been substituted away (the exec package performs
// the paper's macro substitution before calling here).
func (db *DB) ExecStmt(st parser.Statement) (*Result, error) {
	switch s := st.(type) {
	case *parser.Select:
		return db.execSelect(s)
	case *parser.Insert:
		return db.execInsert(s)
	case *parser.Update:
		return db.execUpdate(s)
	case *parser.Delete:
		return db.execDelete(s)
	default:
		return nil, fmt.Errorf("minisql: unsupported statement %T", st)
	}
}

// bindTo resolves column refs in n against the table's schema. The
// table name (or nothing) is the only legal qualifier.
func bindTo(t *Table, n expr.Node) error {
	if n == nil {
		return nil
	}
	b := &expr.Binder{
		VarIndex:   map[string]int{strings.ToLower(t.Name): 0},
		DefaultVar: 0,
		ColumnIndex: func(_ int, col string) int {
			return t.Schema.ColumnIndex(col)
		},
	}
	return b.Bind(n)
}

func rowEnv(tu types.Tuple) expr.Env { return expr.SingleEnv{New: tu} }

// plan describes how a WHERE clause will locate rows.
type plan struct {
	index *Index
	// eqKey, when set, is an exact composite key probe.
	eqKey []byte
	// Otherwise the plan scans the index entries whose leading columns
	// match the encoded equality prefix and whose next column lies in
	// [lo, hi]; a nil end is unbounded. The scan keeps both endpoints
	// whatever the operators: the caller re-checks the WHERE clause, and
	// integers beyond 2^53 share their encoded key with a neighbour.
	prefix []byte
	lo, hi *types.Value
}

// choosePlan looks for an index that can serve the WHERE clause: a full
// composite equality match, or else the index whose leading columns
// take the most equality atoms, with a range on the column after them.
func (t *Table) choosePlan(where expr.Node) *plan {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.choosePlanLocked(where)
}

// choosePlanLocked is choosePlan for a caller holding t.mu.
func (t *Table) choosePlanLocked(where expr.Node) *plan {
	if where == nil {
		return nil
	}
	cnf, err := expr.ToCNF(where)
	if err != nil {
		return nil
	}
	// Equality atoms col -> value.
	eq := map[int]types.Value{}
	type rng struct {
		val types.Value
		op  expr.Op
	}
	ranges := map[int][]rng{}
	for _, cl := range cnf.Clauses {
		if len(cl.Atoms) != 1 {
			continue
		}
		b, ok := cl.Atoms[0].(*expr.Binary)
		if !ok || !b.Op.IsComparison() {
			continue
		}
		col, val, op, ok := colConst(b)
		if !ok {
			continue
		}
		switch {
		case op == expr.OpEq:
			eq[col] = val
		case scannable(val):
			ranges[col] = append(ranges[col], rng{val, op})
		}
	}
	var best *plan
	bestScore := 0
	for _, ix := range t.indexes {
		key := make(types.Tuple, 0, len(ix.Columns))
		for _, c := range ix.Columns {
			v, has := eq[c]
			if !has {
				break
			}
			key = append(key, v)
		}
		if len(key) == len(ix.Columns) {
			return &plan{index: ix, eqKey: types.EncodeKey(nil, key)}
		}
		p := &plan{index: ix, prefix: types.EncodeKey(nil, key)}
		for _, r := range ranges[ix.Columns[len(key)]] {
			v := r.val
			switch r.op {
			case expr.OpGt, expr.OpGe:
				if p.lo == nil || types.Compare(v, *p.lo) > 0 {
					p.lo = &v
				}
			case expr.OpLt, expr.OpLe:
				if p.hi == nil || types.Compare(v, *p.hi) < 0 {
					p.hi = &v
				}
			}
		}
		score := 2 * len(key)
		if p.lo != nil || p.hi != nil {
			score++
		}
		if score > bestScore {
			best, bestScore = p, score
		}
	}
	return best
}

// scannable reports whether a range constant can bound an index scan:
// NULL matches nothing, and NaN compares equal to every number, so
// neither has a place in the key order.
func scannable(v types.Value) bool {
	return !v.IsNull() && !(v.Kind() == types.KindFloat && math.IsNaN(v.Float()))
}

// colConst recognizes column-vs-constant comparisons, normalizing the
// column to the left.
func colConst(b *expr.Binary) (col int, val types.Value, op expr.Op, ok bool) {
	if c, isCol := b.Left.(*expr.ColumnRef); isCol && !c.Old && c.ColIdx >= 0 {
		if k, isConst := b.Right.(*expr.Const); isConst {
			return c.ColIdx, k.Val, b.Op, true
		}
	}
	if c, isCol := b.Right.(*expr.ColumnRef); isCol && !c.Old && c.ColIdx >= 0 {
		if k, isConst := b.Left.(*expr.Const); isConst {
			switch b.Op {
			case expr.OpLt:
				return c.ColIdx, k.Val, expr.OpGt, true
			case expr.OpLe:
				return c.ColIdx, k.Val, expr.OpGe, true
			case expr.OpGt:
				return c.ColIdx, k.Val, expr.OpLt, true
			case expr.OpGe:
				return c.ColIdx, k.Val, expr.OpLe, true
			case expr.OpEq, expr.OpNe:
				return c.ColIdx, k.Val, b.Op, true
			}
		}
	}
	return 0, types.Value{}, 0, false
}

// matchingRIDs runs the plan (or a full scan when plan is nil), calling
// fn for candidate rows; the WHERE clause is re-checked by the caller.
func (t *Table) candidates(p *plan, fn func(rid storage.RID, tu types.Tuple) bool) error {
	if p == nil {
		return t.Scan(fn)
	}
	if p.eqKey != nil {
		vals, err := p.index.tree.Lookup(p.eqKey)
		if err != nil {
			return err
		}
		for _, v := range vals {
			rid := storage.UnpackRID(v)
			tu, err := t.Get(rid)
			if err != nil {
				// Row vanished between index and heap (no MVCC); skip.
				continue
			}
			if !fn(rid, tu) {
				return nil
			}
		}
		return nil
	}
	// Prefix and range scan.
	start := p.prefix
	if p.lo != nil {
		start = types.EncodeKey(slices.Clip(p.prefix), types.Tuple{*p.lo})
	}
	stop := p.prefix
	if p.hi != nil {
		stop = types.EncodeKey(slices.Clip(p.prefix), types.Tuple{*p.hi})
	}
	var ierr error
	err := p.index.tree.Scan(start, func(k []byte, v uint64) bool {
		if len(stop) > 0 && bytes.Compare(truncateTo(k, stop), stop) > 0 {
			return false
		}
		rid := storage.UnpackRID(v)
		tu, err := t.Get(rid)
		if err != nil {
			return true
		}
		if ierr != nil {
			return false
		}
		return fn(rid, tu)
	})
	if err != nil {
		return err
	}
	return ierr
}

// truncateTo cuts k to at most the length of bound for prefix compare
// (composite index keys extend past the bound's columns).
func truncateTo(k, bound []byte) []byte {
	if len(k) > len(bound) {
		return k[:len(bound)]
	}
	return k
}

func (db *DB) execSelect(s *parser.Select) (*Result, error) {
	t, err := db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	where := expr.Clone(s.Where)
	if err := bindTo(t, where); err != nil {
		return nil, err
	}
	// Projection setup.
	var cols []string
	var exprs []expr.Node
	for _, item := range s.Items {
		if item.Star {
			for i, c := range t.Schema.Columns {
				cols = append(cols, c.Name)
				exprs = append(exprs, &expr.ColumnRef{Column: c.Name, VarIdx: 0, ColIdx: i})
			}
			continue
		}
		e := expr.Clone(item.Expr)
		if err := bindTo(t, e); err != nil {
			return nil, err
		}
		name := item.Alias
		if name == "" {
			name = e.String()
		}
		cols = append(cols, name)
		exprs = append(exprs, e)
	}
	res := &Result{Columns: cols}
	pl := t.choosePlan(where)
	if pl != nil {
		res.IndexUsed = pl.index.Name
	}
	var eerr error
	err = t.candidates(pl, func(rid storage.RID, tu types.Tuple) bool {
		env := rowEnv(tu)
		if where != nil {
			ok, werr := expr.EvalPredicate(where, env)
			if werr != nil {
				eerr = werr
				return false
			}
			if ok != expr.True {
				return true
			}
		}
		row := make(types.Tuple, len(exprs))
		for i, e := range exprs {
			v, verr := expr.EvalScalar(e, env)
			if verr != nil {
				eerr = verr
				return false
			}
			row[i] = v
		}
		res.Rows = append(res.Rows, row)
		return true
	})
	if err != nil {
		return nil, err
	}
	if eerr != nil {
		return nil, eerr
	}
	return res, nil
}

func (db *DB) execInsert(s *parser.Insert) (*Result, error) {
	t, err := db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	tu := make(types.Tuple, t.Schema.Arity())
	for i := range tu {
		tu[i] = types.Null()
	}
	for i, ve := range s.Values {
		e := expr.Clone(ve)
		// Value expressions may not reference table columns.
		v, err := expr.EvalScalar(e, expr.SingleEnv{})
		if err != nil {
			return nil, fmt.Errorf("minisql: insert value %d: %w", i+1, err)
		}
		pos := i
		if len(s.Columns) > 0 {
			pos = t.Schema.ColumnIndex(s.Columns[i])
			if pos < 0 {
				return nil, fmt.Errorf("minisql: unknown column %q in insert", s.Columns[i])
			}
		}
		if pos >= len(tu) {
			return nil, fmt.Errorf("minisql: insert supplies %d values but %s has %d columns",
				len(s.Values), t.Name, t.Schema.Arity())
		}
		tu[pos] = v
	}
	if _, err := t.Insert(tu); err != nil {
		return nil, err
	}
	return &Result{Affected: 1, Table: t.Name, Changes: []RowChange{{New: tu}}}, nil
}

func (db *DB) execUpdate(s *parser.Update) (*Result, error) {
	t, err := db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	where := expr.Clone(s.Where)
	if err := bindTo(t, where); err != nil {
		return nil, err
	}
	type setc struct {
		col int
		e   expr.Node
	}
	var sets []setc
	for _, sc := range s.Sets {
		col := t.Schema.ColumnIndex(sc.Column)
		if col < 0 {
			return nil, fmt.Errorf("minisql: unknown column %q in update", sc.Column)
		}
		e := expr.Clone(sc.Value)
		if err := bindTo(t, e); err != nil {
			return nil, err
		}
		sets = append(sets, setc{col, e})
	}
	// The table write lock spans plan, collect and write, so the
	// statement is atomic: a concurrent `set x = x + 1` cannot read a
	// row another statement is about to rewrite.
	t.mu.Lock()
	defer t.mu.Unlock()
	// Collect matches first (mutating while scanning an index we may be
	// updating would invalidate the iteration).
	pl := t.choosePlanLocked(where)
	type match struct {
		rid storage.RID
		tu  types.Tuple
	}
	var matches []match
	var eerr error
	err = t.candidates(pl, func(rid storage.RID, tu types.Tuple) bool {
		if where != nil {
			ok, werr := expr.EvalPredicate(where, rowEnv(tu))
			if werr != nil {
				eerr = werr
				return false
			}
			if ok != expr.True {
				return true
			}
		}
		matches = append(matches, match{rid, tu.Clone()})
		return true
	})
	if err != nil {
		return nil, err
	}
	if eerr != nil {
		return nil, eerr
	}
	res := &Result{Table: t.Name}
	if pl != nil {
		res.IndexUsed = pl.index.Name
	}
	for _, m := range matches {
		env := rowEnv(m.tu)
		nt := m.tu.Clone()
		for _, sc := range sets {
			v, verr := expr.EvalScalar(sc.e, env)
			if verr != nil {
				return nil, verr
			}
			nt[sc.col] = v
		}
		if _, err := t.updateRowLocked(m.rid, nt); err != nil {
			return nil, err
		}
		res.Affected++
		res.Changes = append(res.Changes, RowChange{Old: m.tu, New: nt})
	}
	return res, nil
}

func (db *DB) execDelete(s *parser.Delete) (*Result, error) {
	t, err := db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	where := expr.Clone(s.Where)
	if err := bindTo(t, where); err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	pl := t.choosePlanLocked(where)
	var rids []storage.RID
	var eerr error
	err = t.candidates(pl, func(rid storage.RID, tu types.Tuple) bool {
		if where != nil {
			ok, werr := expr.EvalPredicate(where, rowEnv(tu))
			if werr != nil {
				eerr = werr
				return false
			}
			if ok != expr.True {
				return true
			}
		}
		rids = append(rids, rid)
		return true
	})
	if err != nil {
		return nil, err
	}
	if eerr != nil {
		return nil, eerr
	}
	res := &Result{Table: t.Name}
	if pl != nil {
		res.IndexUsed = pl.index.Name
	}
	for _, rid := range rids {
		old, gerr := t.Get(rid)
		if gerr != nil {
			return nil, gerr
		}
		if err := t.deleteLocked(rid); err != nil {
			return nil, err
		}
		res.Affected++
		res.Changes = append(res.Changes, RowChange{Old: old})
	}
	return res, nil
}
