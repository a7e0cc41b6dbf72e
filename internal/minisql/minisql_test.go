package minisql

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"triggerman/internal/storage"
	"triggerman/internal/types"
)

func newDB(t testing.TB) *DB {
	t.Helper()
	bp := storage.NewBufferPool(storage.NewMem(), 256)
	db, err := Create(bp)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func empTable(t testing.TB, db *DB) *Table {
	t.Helper()
	schema := types.MustSchema(
		types.Column{Name: "name", Kind: types.KindVarchar},
		types.Column{Name: "salary", Kind: types.KindInt},
		types.Column{Name: "dept", Kind: types.KindVarchar},
	)
	tab, err := db.CreateTable("emp", schema)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func seedEmp(t testing.TB, db *DB) {
	t.Helper()
	for i, row := range []string{"Bob,90000,eng", "Alice,120000,eng", "Carol,70000,ops", "Dave,50000,sales"} {
		var name, dept string
		var sal int64
		if _, err := fmt.Sscanf(row, "%s", &name); err != nil {
			_ = i
		}
		_ = name
		_ = dept
		_ = sal
		_ = row
	}
	for _, r := range []struct {
		name string
		sal  int64
		dept string
	}{
		{"Bob", 90000, "eng"},
		{"Alice", 120000, "eng"},
		{"Carol", 70000, "ops"},
		{"Dave", 50000, "sales"},
	} {
		if _, err := db.Exec(fmt.Sprintf(
			"insert into emp values ('%s', %d, '%s')", r.name, r.sal, r.dept)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCreateTableAndInsertSelect(t *testing.T) {
	db := newDB(t)
	empTable(t, db)
	seedEmp(t, db)

	res, err := db.Exec("select name, salary from emp where dept = 'eng'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Columns[0] != "name" || res.Columns[1] != "salary" {
		t.Errorf("columns = %v", res.Columns)
	}
	res, _ = db.Exec("select * from emp")
	if len(res.Rows) != 4 || len(res.Columns) != 3 {
		t.Errorf("star select: %d rows, %v", len(res.Rows), res.Columns)
	}
	// Expression projection with alias.
	res, err = db.Exec("select salary * 2 as dbl from emp where name = 'Bob'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Columns[0] != "dbl" || res.Rows[0][0].Int() != 180000 {
		t.Errorf("alias select = %v %v", res.Columns, res.Rows)
	}
}

func TestUpdateDelete(t *testing.T) {
	db := newDB(t)
	empTable(t, db)
	seedEmp(t, db)

	res, err := db.Exec("update emp set salary = salary + 1000 where dept = 'eng'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 2 {
		t.Errorf("affected = %d", res.Affected)
	}
	r2, _ := db.Exec("select salary from emp where name = 'Bob'")
	if r2.Rows[0][0].Int() != 91000 {
		t.Errorf("salary = %v", r2.Rows[0][0])
	}
	res, _ = db.Exec("delete from emp where salary < 60000")
	if res.Affected != 1 {
		t.Errorf("delete affected = %d", res.Affected)
	}
	tab, _ := db.Table("emp")
	if tab.Count() != 3 {
		t.Errorf("count = %d", tab.Count())
	}
	// delete everything
	res, _ = db.Exec("delete from emp")
	if res.Affected != 3 || tab.Count() != 0 {
		t.Errorf("delete all: %d, count %d", res.Affected, tab.Count())
	}
}

// TestConcurrentUpdateDeleteAtomic: UPDATE and DELETE are atomic per
// statement. Concurrent read-modify-write increments must not lose
// updates, and concurrent deletes of one row must remove it once.
func TestConcurrentUpdateDeleteAtomic(t *testing.T) {
	db := newDB(t)
	if _, err := db.CreateTable("bal", types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "total", Kind: types.KindInt},
	)); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"insert into bal values (1, 0)",
		"insert into bal values (2, 0)",
	} {
		if _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	const workers, rounds = 4, 200
	var wg sync.WaitGroup
	var deleted atomic.Int64
	errs := make(chan error, 2*workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := db.Exec("update bal set total = total + 1 where id = 1"); err != nil {
					errs <- err
					return
				}
			}
			res, err := db.Exec("delete from bal where id = 2")
			if err != nil {
				errs <- err
				return
			}
			deleted.Add(int64(res.Affected))
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res, err := db.Exec("select total from bal where id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != workers*rounds {
		t.Fatalf("total = %d, want %d", got, workers*rounds)
	}
	if got := deleted.Load(); got != 1 {
		t.Fatalf("concurrent deletes removed %d row(s), want 1", got)
	}
}

func TestInsertVariants(t *testing.T) {
	db := newDB(t)
	empTable(t, db)
	// Named columns, partial: missing column becomes NULL.
	if _, err := db.Exec("insert into emp(name, dept) values ('Eve', 'eng')"); err != nil {
		t.Fatal(err)
	}
	res, _ := db.Exec("select salary from emp where name = 'Eve'")
	if !res.Rows[0][0].IsNull() {
		t.Errorf("missing column should be NULL, got %v", res.Rows[0][0])
	}
	// Type mismatch.
	if _, err := db.Exec("insert into emp values (42, 'oops', 'x')"); err == nil {
		t.Error("type mismatch should fail")
	}
	// Arity overflow.
	if _, err := db.Exec("insert into emp values ('a', 1, 'b', 'c')"); err == nil {
		t.Error("arity overflow should fail")
	}
	// Unknown column.
	if _, err := db.Exec("insert into emp(ghost) values (1)"); err == nil {
		t.Error("unknown column should fail")
	}
	// Unknown table.
	if _, err := db.Exec("insert into nope values (1)"); err == nil {
		t.Error("unknown table should fail")
	}
}

func TestIndexUseEquality(t *testing.T) {
	db := newDB(t)
	tab := empTable(t, db)
	seedEmp(t, db)
	if _, err := tab.CreateIndex("emp_name", "name"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("select salary from emp where name = 'Alice'")
	if err != nil {
		t.Fatal(err)
	}
	if res.IndexUsed != "emp_name" {
		t.Errorf("index not used: %q", res.IndexUsed)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 120000 {
		t.Errorf("rows = %v", res.Rows)
	}
	// Index maintained across update.
	if _, err := db.Exec("update emp set name = 'Alicia' where name = 'Alice'"); err != nil {
		t.Fatal(err)
	}
	res, _ = db.Exec("select salary from emp where name = 'Alicia'")
	if len(res.Rows) != 1 {
		t.Errorf("post-update lookup rows = %v", res.Rows)
	}
	res, _ = db.Exec("select salary from emp where name = 'Alice'")
	if len(res.Rows) != 0 {
		t.Error("old key still in index")
	}
	// Index maintained across delete.
	db.Exec("delete from emp where name = 'Alicia'")
	res, _ = db.Exec("select salary from emp where name = 'Alicia'")
	if len(res.Rows) != 0 {
		t.Error("deleted key still in index")
	}
}

func TestIndexUseRange(t *testing.T) {
	db := newDB(t)
	tab := empTable(t, db)
	for i := 0; i < 200; i++ {
		db.Exec(fmt.Sprintf("insert into emp values ('e%03d', %d, 'd')", i, i*1000))
	}
	if _, err := tab.CreateIndex("emp_sal", "salary"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("select name from emp where salary > 150000 and salary <= 160000")
	if err != nil {
		t.Fatal(err)
	}
	if res.IndexUsed != "emp_sal" {
		t.Errorf("range index not used: %q", res.IndexUsed)
	}
	if len(res.Rows) != 10 { // 151..160
		t.Errorf("rows = %d", len(res.Rows))
	}
	// between
	res, _ = db.Exec("select name from emp where salary between 10000 and 12000")
	if len(res.Rows) != 3 {
		t.Errorf("between rows = %d", len(res.Rows))
	}
	// unbounded high
	res, _ = db.Exec("select name from emp where salary >= 198000")
	if len(res.Rows) != 2 {
		t.Errorf(">= rows = %d", len(res.Rows))
	}
}

func TestCompositeIndex(t *testing.T) {
	db := newDB(t)
	tab := empTable(t, db)
	seedEmp(t, db)
	if _, err := tab.CreateIndex("emp_dept_name", "dept", "name"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("select salary from emp where dept = 'eng' and name = 'Bob'")
	if err != nil {
		t.Fatal(err)
	}
	if res.IndexUsed != "emp_dept_name" {
		t.Errorf("composite index not used: %q", res.IndexUsed)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 90000 {
		t.Errorf("rows = %v", res.Rows)
	}
	// Partial match (dept only) cannot use the full-equality path but
	// must still return correct results via scan.
	res, _ = db.Exec("select salary from emp where dept = 'eng'")
	if len(res.Rows) != 2 {
		t.Errorf("partial rows = %v", res.Rows)
	}
}

func TestIndexBackfill(t *testing.T) {
	db := newDB(t)
	tab := empTable(t, db)
	seedEmp(t, db)
	ix, err := tab.CreateIndex("late_idx", "name")
	if err != nil {
		t.Fatal(err)
	}
	_ = ix
	res, _ := db.Exec("select salary from emp where name = 'Carol'")
	if res.IndexUsed != "late_idx" || len(res.Rows) != 1 {
		t.Errorf("backfilled index: used=%q rows=%v", res.IndexUsed, res.Rows)
	}
	// Duplicate index name rejected.
	if _, err := tab.CreateIndex("late_idx", "dept"); err == nil {
		t.Error("duplicate index name should fail")
	}
	if _, err := tab.CreateIndex("bad", "ghost"); err == nil {
		t.Error("index on unknown column should fail")
	}
	if _, err := tab.CreateIndex("empty"); err == nil {
		t.Error("empty column list should fail")
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	disk := storage.NewMem()
	bp := storage.NewBufferPool(disk, 128)
	db, err := Create(bp)
	if err != nil {
		t.Fatal(err)
	}
	master := db.MasterPage()
	schema := types.MustSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindVarchar},
	)
	tab, err := db.CreateTable("kv", schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateIndex("kv_k", "k"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := db.Exec(fmt.Sprintf("insert into kv values (%d, 'val%d')", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}

	bp2 := storage.NewBufferPool(disk, 128)
	db2, err := Open(bp2, master)
	if err != nil {
		t.Fatal(err)
	}
	if got := db2.Tables(); len(got) != 1 || got[0] != "kv" {
		t.Fatalf("tables = %v", got)
	}
	res, err := db2.Exec("select v from kv where k = 42")
	if err != nil {
		t.Fatal(err)
	}
	if res.IndexUsed != "kv_k" || len(res.Rows) != 1 || res.Rows[0][0].Str() != "val42" {
		t.Errorf("reopened query: used=%q rows=%v", res.IndexUsed, res.Rows)
	}
	// Writes continue after reopen.
	if _, err := db2.Exec("insert into kv values (500, 'new')"); err != nil {
		t.Fatal(err)
	}
}

func TestDropTable(t *testing.T) {
	db := newDB(t)
	empTable(t, db)
	if err := db.DropTable("emp"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Table("emp"); err == nil {
		t.Error("dropped table still visible")
	}
	if err := db.DropTable("emp"); err == nil {
		t.Error("double drop should fail")
	}
	// Name can be reused.
	if _, err := db.CreateTable("emp", types.MustSchema(types.Column{Name: "x", Kind: types.KindInt})); err != nil {
		t.Error(err)
	}
}

func TestDuplicateTable(t *testing.T) {
	db := newDB(t)
	empTable(t, db)
	if _, err := db.CreateTable("EMP", types.MustSchema()); err == nil {
		t.Error("case-insensitive duplicate should fail")
	}
}

func TestSelectErrors(t *testing.T) {
	db := newDB(t)
	empTable(t, db)
	if _, err := db.Exec("select ghost from emp"); err == nil {
		t.Error("unknown column should fail")
	}
	if _, err := db.Exec("select * from ghost"); err == nil {
		t.Error("unknown table should fail")
	}
	if _, err := db.Exec("update emp set ghost = 1"); err == nil {
		t.Error("update unknown column should fail")
	}
	if _, err := db.Exec("this is not sql"); err == nil {
		t.Error("garbage should fail")
	}
}

func TestNullSemanticsInWhere(t *testing.T) {
	db := newDB(t)
	tab := empTable(t, db)
	tab.Insert(types.Tuple{types.NewString("N"), types.Null(), types.NewString("x")})
	// NULL salary doesn't match salary > 0 or salary <= 0.
	res, _ := db.Exec("select name from emp where salary > 0")
	if len(res.Rows) != 0 {
		t.Error("NULL matched > 0")
	}
	res, _ = db.Exec("select name from emp where salary <= 0")
	if len(res.Rows) != 0 {
		t.Error("NULL matched <= 0")
	}
}

func TestLargeTableScanAndIndexAgree(t *testing.T) {
	db := newDB(t)
	tab := empTable(t, db)
	for i := 0; i < 1000; i++ {
		tab.Insert(types.Tuple{
			types.NewString(fmt.Sprintf("u%04d", i)),
			types.NewInt(int64(i % 50 * 1000)),
			types.NewString(fmt.Sprintf("d%d", i%7)),
		})
	}
	// Scan answer.
	scanRes, err := db.Exec("select name from emp where salary = 25000")
	if err != nil {
		t.Fatal(err)
	}
	tab.CreateIndex("sal_idx", "salary")
	idxRes, err := db.Exec("select name from emp where salary = 25000")
	if err != nil {
		t.Fatal(err)
	}
	if idxRes.IndexUsed != "sal_idx" {
		t.Error("index not used after creation")
	}
	if len(scanRes.Rows) != len(idxRes.Rows) || len(scanRes.Rows) != 20 {
		t.Errorf("scan %d vs index %d rows", len(scanRes.Rows), len(idxRes.Rows))
	}
}

func TestUpdateRelocationMaintainsIndex(t *testing.T) {
	db := newDB(t)
	schema := types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "blob", Kind: types.KindVarchar},
	)
	tab, _ := db.CreateTable("big", schema)
	tab.CreateIndex("big_id", "id")
	// Fill a page, then grow one row so it relocates.
	for i := 0; i < 12; i++ {
		db.Exec(fmt.Sprintf("insert into big values (%d, '%s')", i, string(make([]byte, 300))))
	}
	grow := make([]byte, 3500)
	for i := range grow {
		grow[i] = 'x'
	}
	if _, err := db.Exec(fmt.Sprintf("update big set blob = '%s' where id = 3", grow)); err != nil {
		t.Fatal(err)
	}
	res, _ := db.Exec("select id from big where id = 3")
	if res.IndexUsed != "big_id" || len(res.Rows) != 1 {
		t.Errorf("post-relocation: used=%q rows=%d", res.IndexUsed, len(res.Rows))
	}
}

// TestCompositeIndexPrefixRange checks the plan that serves an equality
// prefix of a composite index plus a range on the next column: every
// query must return exactly the rows a full scan returns, and the ones
// with an equality on the leading column must use the index.
func TestCompositeIndexPrefixRange(t *testing.T) {
	indexed, plain := newDB(t), newDB(t)
	tab := empTable(t, indexed)
	empTable(t, plain)
	const big = 1 << 53
	salaries := []int64{-5, 0, 1, 999, 1000, 1001, 15000, 20000, 20000, 29999, 30000, big - 1, big, big + 1, big + 2}
	for d := 0; d < 3; d++ {
		for i, s := range salaries {
			stmt := fmt.Sprintf("insert into emp values ('e%d_%d', %d, 'd%d')", d, i, s, d)
			for _, db := range []*DB{indexed, plain} {
				if _, err := db.Exec(stmt); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if _, err := tab.CreateIndex("emp_dept_sal", "dept", "salary"); err != nil {
		t.Fatal(err)
	}
	names := func(res *Result) []string {
		var out []string
		for _, r := range res.Rows {
			out = append(out, r[0].Str())
		}
		sort.Strings(out)
		return out
	}
	for _, tc := range []struct {
		where string
		index bool
	}{
		{"dept = 'd1' and salary > 1000", true},
		{"dept = 'd1' and salary >= 1000", true},
		{"dept = 'd1' and salary < 20000", true},
		{"dept = 'd1' and salary <= 20000", true},
		{"dept = 'd1' and salary >= 1000 and salary < 30000", true},
		{"dept = 'd2' and 1000 < salary", true},
		{"dept = 'd2' and salary > 14999.5", true},
		{"dept = 'd0' and salary > 9007199254740992", true},
		{"dept = 'd0' and salary >= 9007199254740993", true},
		{"dept = 'd0' and salary < 9007199254740993", true},
		{"dept = 'd2'", true},
		{"dept = 'd9' and salary > 0", true},
		{"salary > 1000", false},
	} {
		q := "select name from emp where " + tc.where
		got, err := indexed.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", tc.where, err)
		}
		want, err := plain.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", tc.where, err)
		}
		if g, w := names(got), names(want); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: rows %v, want %v", tc.where, g, w)
		}
		if used := got.IndexUsed == "emp_dept_sal"; used != tc.index {
			t.Errorf("%s: index used = %q, want used=%v", tc.where, got.IndexUsed, tc.index)
		}
	}
}
