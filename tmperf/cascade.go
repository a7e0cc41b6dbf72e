package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"triggerman"
	"triggerman/internal/datasource"
	"triggerman/internal/predindex"
	"triggerman/internal/types"
)

// Sizes of the cascade workload (README.md gives the reasons).
const (
	cascCustomers = 5000
	cascRegions   = 16
	cascRound     = 10000 // closed-loop tokens per round, on a fresh system
	cascHaving    = 50
	// cascClosedPct is the closed loop's share of a run's seconds. Round
	// throughput swings by a quarter either way with how the dispatcher's
	// batches fall (README.md), so the closed loop gets most of the run.
	cascClosedPct = 60
)

// cascRates are the open-loop rates in tokens/s; the middle one is the
// reference.
var cascRates = [3]float64{1250, 2500, 20000}

// cascTriggers are created before any base row is loaded: alpha
// memories are not primed from rows that already exist.
var cascTriggers = []struct{ name, text string }{
	{"big", `create trigger big from orders when orders.amount > 800
		do execSQL 'insert into audit values (:NEW.orders.oid, :NEW.orders.cust, :NEW.orders.amount, :NEW.orders.seq)'`},
	{"bal", `create trigger bal on insert to orders from orders
		do execSQL 'update balances set total = total + :NEW.orders.amount where cust = :NEW.orders.cust'`},
	{"gold", `create trigger gold on insert to orders from orders o, customers c
		when o.cust = c.cust and c.tier = 'gold' do raise event Gold(o.oid, o.seq)`},
	{"hot", `create trigger hot from orders group by region having count(region) > 50
		do raise event Hot(orders.region, count(region))`},
	{"huge", `create trigger huge from audit when audit.amount > 990 do raise event Huge(audit.oid, audit.seq)`},
}

// Column of the token sequence number in each trigger's first tuple.
var cascSeqCol = map[string]int{"big": 4, "bal": 4, "gold": 4, "hot": 4, "huge": 3}

// order is one live order in the generator's model.
type order struct {
	oid, cust, amount, seq int64
	region                 int
}

func (o order) tuple() types.Tuple {
	return types.Tuple{types.NewInt(o.oid), types.NewInt(o.cust), types.NewString(fmt.Sprintf("R%02d", o.region)),
		types.NewInt(o.amount), types.NewInt(o.seq)}
}

// cascModel is the generator's reference: every outcome the system
// must reproduce from the tokens it was sent.
type cascModel struct {
	fires    map[string]int64
	balances []int64
	auditN   int64
	auditSum int64 // Σ mix(oid, seq) over audit rows
	groups   map[int]*groupModel
}

// groupModel mirrors the aggregate's per-group arming: a group fires on
// a false→true transition of count > 50 and re-arms when it goes false.
type groupModel struct {
	count                int64
	armed, everEvaluated bool
}

func newCascModel() *cascModel {
	m := &cascModel{fires: map[string]int64{}, balances: make([]int64, cascCustomers), groups: map[int]*groupModel{}}
	for c := range m.balances {
		m.balances[c] = int64(c % 100)
	}
	return m
}

func (m *cascModel) group(region int, delta int64) {
	g := m.groups[region]
	if g == nil {
		g = &groupModel{}
		m.groups[region] = g
	}
	g.count += delta
	ok := g.count > cascHaving
	if !g.everEvaluated {
		g.armed, g.everEvaluated = true, true
	}
	switch {
	case ok && g.armed:
		g.armed = false
		m.fires["hot"]++
	case !ok:
		g.armed = true
	}
	if g.count <= 0 {
		delete(m.groups, region)
	}
}

// cascToken is one generated orders token.
type cascToken struct {
	op       datasource.Op
	old, new order
}

// cascGen draws orders tokens 60/25/15 insert/update/delete with true
// old and new images, and advances the model.
type cascGen struct {
	rng   *rand.Rand
	live  []order
	next  int64
	model *cascModel
}

func (g *cascGen) token(seq int64) cascToken {
	r := g.rng.Float64()
	var t cascToken
	switch {
	case r < 0.60 || len(g.live) == 0:
		o := order{oid: g.next, cust: g.rng.Int63n(cascCustomers), region: g.rng.Intn(cascRegions),
			amount: 1 + g.rng.Int63n(1000), seq: seq}
		g.next++
		g.live = append(g.live, o)
		t = cascToken{op: datasource.OpInsert, new: o}
	case r < 0.85:
		i := g.rng.Intn(len(g.live))
		o := g.live[i]
		n := o
		n.amount, n.seq = 1+g.rng.Int63n(1000), seq
		g.live[i] = n
		t = cascToken{op: datasource.OpUpdate, old: o, new: n}
	default:
		i := g.rng.Intn(len(g.live))
		o := g.live[i]
		g.live[i] = g.live[len(g.live)-1]
		g.live = g.live[:len(g.live)-1]
		t = cascToken{op: datasource.OpDelete, old: o}
	}
	g.apply(t)
	return t
}

// apply folds one token into the model.
func (g *cascGen) apply(t cascToken) {
	m := g.model
	if t.op != datasource.OpDelete && t.new.amount > 800 {
		m.fires["big"]++
		m.auditN++
		m.auditSum += int64(mix(uint64(t.new.oid), uint64(t.new.seq)))
		if t.new.amount > 990 {
			m.fires["huge"]++
		}
	}
	switch t.op {
	case datasource.OpInsert:
		m.fires["bal"]++
		m.balances[t.new.cust] += t.new.amount
		if t.new.cust%10 == 0 {
			m.fires["gold"]++
		}
		m.group(t.new.region, +1)
	case datasource.OpUpdate:
		m.group(t.new.region, 0)
	case datasource.OpDelete:
		m.group(t.old.region, -1)
	}
}

func (t cascToken) token() datasource.Token {
	tok := datasource.Token{Op: t.op}
	if t.op != datasource.OpInsert {
		tok.Old = t.old.tuple()
	}
	if t.op != datasource.OpDelete {
		tok.New = t.new.tuple()
	}
	return tok
}

// cascState is what FireHook counts during one phase.
type cascState struct {
	fires map[uint64]*atomic.Int64
	w     *window
}

// cascEnv is one open cascade system.
type cascEnv struct {
	sys    *triggerman.System
	disk   *countingDisk
	orders *triggerman.StreamSource
	ids    map[uint64]string
	state  atomic.Pointer[cascState]
	gen    *cascGen
	seq    int64
	rec    *spanRecorder
	ddl    durations
	churnN int
	churn  []string
	// attempts counts generator tokens pushed.
	attempts int64
}

// cascadeOptions leaves ActionTasks off: with it on, concurrent balance
// updates lose increments (README.md, "Known defect").
func (o sysOpts) cascadeOptions(disk *countingDisk) triggerman.Options {
	opts := o.options()
	opts.Queue = triggerman.PersistentQueue
	opts.DurableQueue = true
	opts.SourceFIFO = true
	opts.Disk = disk
	return opts
}

// openCascade builds a drained system: sources, then triggers, then
// base rows, then Drain. Each closed round and open window gets its own
// system, because the persistent queue's dequeue cost grows with every
// token it has ever held.
func openCascade(o sysOpts, seed int64, rec *spanRecorder) (e *cascEnv, err error) {
	disk := newCountingDisk()
	sys, err := triggerman.Open(o.cascadeOptions(disk))
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			sys.Close()
		}
	}()
	e = &cascEnv{sys: sys, disk: disk, rec: rec, ids: map[uint64]string{},
		gen: &cascGen{rng: rand.New(rand.NewSource(seed)), model: newCascModel()}}
	if e.orders, err = sys.DefineStreamSource("orders",
		types.Column{Name: "oid", Kind: types.KindInt},
		types.Column{Name: "cust", Kind: types.KindInt},
		types.Column{Name: "region", Kind: types.KindVarchar},
		types.Column{Name: "amount", Kind: types.KindInt},
		types.Column{Name: "seq", Kind: types.KindInt}); err != nil {
		return e, err
	}
	customers, err := sys.DefineTableSource("customers",
		types.Column{Name: "cust", Kind: types.KindInt},
		types.Column{Name: "tier", Kind: types.KindVarchar})
	if err != nil {
		return e, err
	}
	if _, err := sys.DefineTableSource("audit",
		types.Column{Name: "oid", Kind: types.KindInt},
		types.Column{Name: "cust", Kind: types.KindInt},
		types.Column{Name: "amount", Kind: types.KindInt},
		types.Column{Name: "seq", Kind: types.KindInt}); err != nil {
		return e, err
	}
	balances, err := sys.DB().CreateTable("balances", types.MustSchema(
		types.Column{Name: "cust", Kind: types.KindInt},
		types.Column{Name: "total", Kind: types.KindInt}))
	if err != nil {
		return e, err
	}
	if _, err := balances.CreateIndex("balances_cust", "cust"); err != nil {
		return e, err
	}
	for _, t := range cascTriggers {
		if err := sys.CreateTrigger(t.text); err != nil {
			return e, fmt.Errorf("%s: %w", t.name, err)
		}
		id, _ := sys.Catalog().TriggerByName(t.name)
		e.ids[id] = t.name
	}
	for len(e.churn) < churnLive {
		if err := e.churnCreate(); err != nil {
			return e, err
		}
	}
	sys.FireHook = e.onFire
	for c := int64(0); c < cascCustomers; c++ {
		tier := "std"
		if c%10 == 0 {
			tier = "gold"
		}
		if err := customers.Insert(types.Tuple{types.NewInt(c), types.NewString(tier)}); err != nil {
			return e, err
		}
		if _, err := balances.Insert(types.Tuple{types.NewInt(c), types.NewInt(c % 100)}); err != nil {
			return e, err
		}
	}
	sys.Drain()
	return e, e.healthy()
}

func (e *cascEnv) close() { e.sys.Close() }

func (e *cascEnv) healthy() error {
	st := e.sys.Stats()
	if st.Errors != 0 || st.DeadLettered != 0 {
		return fmt.Errorf("%d errors, %d dead-lettered: %v", st.Errors, st.DeadLettered, e.sys.LastError())
	}
	return nil
}

func (e *cascEnv) onFire(id uint64, tuples []types.Tuple) {
	st := e.state.Load()
	if st == nil {
		return
	}
	c, ok := st.fires[id]
	if !ok {
		return
	}
	c.Add(1)
	if w := st.w; w != nil {
		w.observe(tuples[0][cascSeqCol[e.ids[id]]].Int())
	}
}

func (e *cascEnv) newState(w *window) *cascState {
	st := &cascState{fires: map[uint64]*atomic.Int64{}, w: w}
	for id := range e.ids {
		st.fires[id] = new(atomic.Int64)
	}
	e.state.Store(st)
	return st
}

// churnCreate adds a trigger in the amount>c signature that no order
// can match, and drops the oldest once more than churnLive are live.
func (e *cascEnv) churnCreate() error {
	name := fmt.Sprintf("churn%06d", e.churnN)
	stmt := fmt.Sprintf("create trigger %s from orders when orders.amount > %d do raise event Never(orders.oid)", name, 2000+e.churnN)
	e.churnN++
	if err := e.sys.CreateTrigger(stmt); err != nil {
		return err
	}
	e.churn = append(e.churn, name)
	if len(e.churn) > churnLive {
		if err := e.sys.DropTrigger(e.churn[0]); err != nil {
			return err
		}
		e.churn = e.churn[1:]
	}
	return nil
}

func (e *cascEnv) push(t cascToken) error {
	id := e.rec.begin("Push", -1)
	err := e.orders.Push(t.token())
	e.rec.end(id)
	e.attempts++
	return err
}

// check compares the system with the model: per-trigger firings, the
// audit rows and every balance.
func (e *cascEnv) check(st *cascState) error {
	m := e.gen.model
	for id, name := range e.ids {
		if got, want := st.fires[id].Load(), m.fires[name]; got != want {
			return fmt.Errorf("reference check: trigger %s fired %d times, want %d", name, got, want)
		}
	}
	id := e.rec.begin("Exec", -1)
	res, err := e.sys.DB().Exec("select oid, seq from audit")
	e.rec.end(id)
	if err != nil {
		return err
	}
	var sum int64
	for _, r := range res.Rows {
		sum += int64(mix(uint64(r[0].Int()), uint64(r[1].Int())))
	}
	if int64(len(res.Rows)) != m.auditN || sum != m.auditSum {
		return fmt.Errorf("reference check: %d audit rows (checksum %x), want %d (%x)", len(res.Rows), sum, m.auditN, m.auditSum)
	}
	id = e.rec.begin("Exec", -1)
	res, err = e.sys.DB().Exec("select cust, total from balances")
	e.rec.end(id)
	if err != nil {
		return err
	}
	if len(res.Rows) != cascCustomers {
		return fmt.Errorf("reference check: %d balances rows, want %d", len(res.Rows), cascCustomers)
	}
	for _, r := range res.Rows {
		if c := r[0].Int(); r[1].Int() != m.balances[c] {
			return fmt.Errorf("reference check: balance of %d is %d, want %d", c, r[1].Int(), m.balances[c])
		}
	}
	return e.healthy()
}

// closedRound pushes cascRound tokens back to back, keeping at most
// cascBacklog queued, and drains; it returns the elapsed time from the
// first Push until Drain returns.
func (e *cascEnv) closedRound() (time.Duration, error) {
	toks := make([]cascToken, cascRound)
	for i := range toks {
		toks[i] = e.gen.token(e.seq + int64(i))
	}
	settle()
	st := e.newState(nil)
	phase := e.rec.begin("closed", -1)
	begin := time.Now()
	for i, t := range toks {
		if err := e.push(t); err != nil {
			return 0, fmt.Errorf("push: %w", err)
		}
		if i%churnEvery == churnEvery-1 {
			pace(e.sys, cascBacklog)
		}
	}
	d := e.rec.begin("Drain", phase)
	e.sys.Drain()
	e.rec.end(d)
	el := time.Since(begin)
	e.rec.end(phase)
	e.seq += cascRound
	return el, e.check(st)
}

// openWindow runs one open-loop window on this (fresh) system. With
// churn, a timed create+drop pair follows every churnEvery sends: DDL is
// timed while tokens flow at the reference rate, not in the closed loop,
// where its median moved by a quarter from run to run.
func (e *cascEnv) openWindow(rate float64, dur time.Duration, sampleDepth, churn bool) (*window, error) {
	w := newWindow(rate, dur)
	toks := make([]cascToken, w.n)
	for i := range toks {
		toks[i] = e.gen.token(int64(i))
	}
	settle()
	st := e.newState(w)
	phase := e.rec.begin("open", -1)
	if err := runWindow(e.sys, w, sampleDepth, func(i int) error {
		if err := e.push(toks[i]); err != nil {
			return err
		}
		if churn && i%churnEvery == churnEvery-1 {
			id := e.rec.begin("DDL", phase)
			t0 := time.Now()
			if err := e.churnCreate(); err != nil {
				return fmt.Errorf("ddl: %w", err)
			}
			e.ddl = append(e.ddl, time.Since(t0))
			e.rec.end(id)
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("push: %w", err)
	}
	d := e.rec.begin("Drain", phase)
	e.sys.Drain()
	e.rec.end(d)
	e.rec.end(phase)
	if w.nReject != 0 {
		return nil, fmt.Errorf("%d tokens rejected with admission off", w.nReject)
	}
	return w, e.check(st)
}

// cascOut is what one workload run measured across its systems.
type cascOut struct {
	setups   []float64
	tps      []float64
	ddl      durations
	windows  [3]*window
	attempts int64
}

// cascRefSystems is how many systems the reference window is split
// over. The DDL median and the median latency from actual send of one
// system's window differ from the next system's far more than between
// the intervals of one system's window (0.09-0.20 ms from actual send),
// so the figures pool many systems.
const cascRefSystems = 16

// cascPhases runs the closed rounds and open windows, each on a fresh
// system; a nil open runs only the closed rounds.
func cascPhases(cfg config, o sysOpts, closedBudget time.Duration, open *[3]time.Duration, rec *spanRecorder, acc *layerAcc) (*cascOut, error) {
	out := &cascOut{}
	phase := func(run func(e *cascEnv) error) error {
		settle()
		begin := time.Now()
		e, err := openCascade(o, cfg.seed, rec)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		out.setups = append(out.setups, time.Since(begin).Seconds())
		before := snapshot(e.sys, e.disk)
		err = run(e)
		if acc != nil && err == nil {
			acc.addDelta(before, snapshot(e.sys, e.disk))
			acc.tokens += e.attempts
		}
		out.attempts += e.attempts
		out.ddl = append(out.ddl, e.ddl...)
		e.close()
		return err
	}
	begin := time.Now()
	for len(out.tps) < 3 || time.Since(begin) < closedBudget {
		if err := phase(func(e *cascEnv) error {
			el, err := e.closedRound()
			out.tps = append(out.tps, float64(cascRound)/el.Seconds())
			return err
		}); err != nil {
			return nil, err
		}
	}
	fmt.Printf("closed rounds=%d tokens/round=%d tokens_per_s=%.0f\n", len(out.tps), cascRound, out.tps)
	if open == nil {
		return out, nil
	}
	for i, rate := range cascRates {
		parts := 1
		if i == refRate {
			parts = cascRefSystems
		}
		var ws []*window
		for k := 0; k < parts; k++ {
			if err := phase(func(e *cascEnv) error {
				w, err := e.openWindow(rate, open[i]/time.Duration(parts), acc != nil, i == refRate)
				ws = append(ws, w)
				return err
			}); err != nil {
				return nil, err
			}
		}
		out.windows[i] = mergeWindows(ws)
	}
	return out, nil
}

// cascSetupProbes is how many more systems an untraced run opens only to
// time set-up and weigh the heap, after its phases: set-up takes about
// 0.12 s, and the live heap after it reads either about 5.4 or 6.0 MB,
// so both need more samples than one.
const cascSetupProbes = 8

func runCascade(cfg config, res *result) error {
	closedBudget, openBudget := splitBudget(cfg.seconds, cascClosedPct)
	if cfg.trace {
		return cascadeTraced(cfg, res, closedBudget, openBudget)
	}
	out, err := cascPhases(cfg, sysOpts{telemetry: true}, closedBudget, &openBudget, nil, nil)
	if err != nil {
		return err
	}
	var heaps []float64
	for k := 0; k < cascSetupProbes; k++ {
		settle()
		begin := time.Now()
		e, err := openCascade(sysOpts{telemetry: true}, cfg.seed, nil)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		out.setups = append(out.setups, time.Since(begin).Seconds())
		heaps = append(heaps, heapMB())
		e.close()
	}
	fmt.Printf("setups=%d setup_s=%.4f\n", len(out.setups), out.setups)
	ref, sloRate, _ := openResults(out.windows, [3]int64{})
	res.Attempted, res.Failed = out.attempts, 0
	fmt.Printf("failed_frac 0 (0 of %d)\n", res.Attempted)
	res.Metrics["setup_s"] = metric{median(out.setups), "s"}
	res.Metrics["heap_mb"] = metric{median(heaps), "MB"}
	res.Metrics["tokens_per_s"] = metric{median(out.tps), "1/s"}
	res.Metrics["ddl_p50_us"] = metric{us(out.ddl.quantile(0.5)), "us"}
	res.Metrics["fire_p50_ms"] = metric{ref.lat.quantile(0.5) / 1e6, "ms"}
	res.Metrics["slo_rate"] = metric{sloRate, "1/s"}
	return nil
}

func cascadeTraced(cfg config, res *result, closedBudget time.Duration, openBudget [3]time.Duration) error {
	rec := newSpanRecorder()
	var acc layerAcc
	out, err := cascPhases(cfg, sysOpts{traced: true, telemetry: true}, closedBudget, &openBudget, rec, &acc)
	if err != nil {
		return err
	}
	for _, w := range out.windows {
		acc.addWindow(w)
	}
	res.Attempted = out.attempts
	// The replays run on one more traced system, after its reference check.
	e, err := openCascade(sysOpts{traced: true, telemetry: true}, cfg.seed, rec)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	acc.matchRepl, acc.pins, acc.execs, err = e.replay(200)
	e.close()
	if err != nil {
		return err
	}
	untraced, err := cascPhases(cfg, sysOpts{telemetry: true}, closedBudget/2, nil, nil, nil)
	if err != nil {
		return err
	}
	off, err := cascPhases(cfg, sysOpts{}, closedBudget/2, nil, nil, nil)
	if err != nil {
		return err
	}
	res.Attempted += untraced.attempts + off.attempts
	tr, un, of := median(out.tps), median(untraced.tps), median(off.tps)
	res.Metrics = acc.layerMetrics(rec, 100*(un-tr)/un, 100*(of-un)/of)
	return rec.write(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.csv", cfg.workload, cfg.seed))
}

// replay times PredIndex().MatchToken on generated orders tokens,
// Catalog().Pin on the cascade's triggers, and DB().Exec of the two
// statement shapes its actions run.
func (e *cascEnv) replay(n int) (match, pins, execs durations, err error) {
	src := e.orders.Source().ID
	var ids []uint64
	for id := range e.ids {
		ids = append(ids, id)
	}
	for i := 0; i < n; i++ {
		tok := e.gen.token(-1).token()
		tok.SourceID = src
		id := e.rec.begin("MatchToken", -1)
		err = e.sys.PredIndex().MatchToken(tok, func(predindex.Match) bool { return true })
		match = append(match, e.rec.end(id))
		if err != nil {
			return
		}
		id = e.rec.begin("Pin", -1)
		_, unpin, perr := e.sys.Catalog().Pin(ids[i%len(ids)])
		if perr == nil {
			unpin()
		}
		pins = append(pins, e.rec.end(id))
		if err = perr; err != nil {
			return
		}
		stmt := fmt.Sprintf("insert into audit values (%d, %d, 0, -1)", -1-i, i%cascCustomers)
		if i%2 == 1 {
			stmt = fmt.Sprintf("update balances set total = total + 0 where cust = %d", i%cascCustomers)
		}
		id = e.rec.begin("Exec", -1)
		_, err = e.sys.DB().Exec(stmt)
		execs = append(execs, e.rec.end(id))
		if err != nil {
			return
		}
	}
	return
}
