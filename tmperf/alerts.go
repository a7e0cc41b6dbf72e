package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"triggerman"
	"triggerman/internal/admission"
	"triggerman/internal/datasource"
	"triggerman/internal/predindex"
	"triggerman/internal/types"
)

// Sizes of the alerts population (README.md gives the reasons).
const (
	alertTriggers = 100_000
	alertSymbols  = 25_000
	alertVenues   = 64
	alertMaxPrice = 10_000
	alertZipf     = 1.1
	// alertDipMax bounds the price<c thresholds: a venue alert fires on
	// about 0.5% of its venue's quotes, so the index tests every venue
	// trigger's residual but few match.
	alertDipMax = 100
	churnEvery  = 50
	churnLive   = 10
	alertRound  = 6000 // closed-loop tokens per round
	alertWarm   = 1000 // warm-up tokens inside setup
	// alertClosedPct is the closed loop's share of a run's seconds; the
	// open loop needs the rest for a steady reference-rate p99.
	alertClosedPct = 40
)

// alertRates are the open-loop rates in tokens/s; the middle one is the
// reference. The high rate is the overload probe: about seven times the
// closed-loop capacity, so within its window the batch source's backlog
// crosses the soft depth (batch tokens are shed) and the quotes backlog
// the hard depth (quotes are rejected). At 9600/s one run in five did
// neither.
var alertRates = [3]float64{400, 800, 19200}

// Admission watermarks, in queued tokens per source.
const (
	softDepth = 4096
	hardDepth = 16384
)

// alertTrig is one generated alert: kind 0 is symbol=c ∧ price>c,
// kind 1 is symbol=c, kind 2 is venue=c ∧ price<c.
type alertTrig struct {
	kind  int
	key   int // symbol or venue number
	price int64
}

// alertsPop is the generated population plus the reference indexes.
type alertsPop struct {
	trigs   []alertTrig
	bySym   [][]int32 // kinds 0 and 1 by symbol
	byVenue [][]int32 // kind 2 by venue, sorted by price
}

// genAlertsPop deals symbols and venues round-robin, so every seed has
// the same number of triggers on each key (the zipf-hot symbols included)
// and only thresholds and tokens vary with the seed.
func genAlertsPop(seed int64) *alertsPop {
	rng := rand.New(rand.NewSource(seed))
	p := &alertsPop{
		trigs:   make([]alertTrig, alertTriggers),
		bySym:   make([][]int32, alertSymbols),
		byVenue: make([][]int32, alertVenues),
	}
	for i := range p.trigs {
		t := alertTrig{kind: i % 3, price: 1 + rng.Int63n(alertMaxPrice)}
		if t.kind == 2 {
			t.price = 1 + rng.Int63n(alertDipMax)
			t.key = (i / 3) % alertVenues
			p.byVenue[t.key] = append(p.byVenue[t.key], int32(i))
		} else {
			t.key = (i / 3) % alertSymbols
			p.bySym[t.key] = append(p.bySym[t.key], int32(i))
		}
		p.trigs[i] = t
	}
	for _, l := range p.byVenue {
		sort.Slice(l, func(a, b int) bool { return p.trigs[l[a]].price < p.trigs[l[b]].price })
	}
	return p
}

func (t alertTrig) text(i int) string {
	switch t.kind {
	case 0:
		return fmt.Sprintf("create trigger a%06d from quotes when quotes.symbol = 'S%05d' and quotes.price > %d do raise event Alert(quotes.symbol, quotes.price)", i, t.key, t.price)
	case 1:
		return fmt.Sprintf("create trigger a%06d from quotes when quotes.symbol = 'S%05d' do raise event Alert(quotes.symbol, quotes.price)", i, t.key)
	default:
		return fmt.Sprintf("create trigger a%06d from quotes when quotes.venue = 'V%02d' and quotes.price < %d do raise event Alert(quotes.symbol, quotes.price)", i, t.key, t.price)
	}
}

// quote is one generated token.
type quote struct {
	sym, venue int
	price      int64
}

// fireState is what FireHook checks firings against during one phase.
type fireState struct {
	count, sum atomic.Int64
	batch      atomic.Int64
	// w, when set, times each firing from its token's scheduled send.
	w    *window
	base int64
}

// alertsEnv is one open alerts system.
type alertsEnv struct {
	pop      *alertsPop
	sys      *triggerman.System
	quotes   *triggerman.StreamSource
	feed     *triggerman.StreamSource // batch-class source
	ids      []uint64
	bulkID   uint64
	state    atomic.Pointer[fireState]
	seq      int64
	churn    []string
	churnN   int
	rng      *rand.Rand
	zipf     *rand.Zipf
	rec      *spanRecorder
	ddl      durations
	attempts int64
}

// sysOpts are the telemetry settings of one system.
type sysOpts struct {
	traced    bool // every token traced
	telemetry bool // shipped telemetry; false turns profiling, SLO and tracing off
}

func (o sysOpts) options() triggerman.Options {
	opts := triggerman.Options{Drivers: 2}
	switch {
	case o.traced:
		opts.TraceSampleEvery = 1
	case !o.telemetry:
		opts.TraceSampleEvery = -1
		opts.DisableProfiling = true
		opts.DisableSLO = true
	}
	return opts
}

func (o sysOpts) alertsOptions() triggerman.Options {
	opts := o.options()
	opts.Queue = triggerman.MemoryQueue
	opts.AdmissionConfig = &admission.Config{SoftDepth: softDepth, HardDepth: hardDepth}
	return opts
}

// openAlerts builds a warm, drained system: triggers first, then a
// checked warm-up batch so the trigger cache and index are in their
// steady state.
func openAlerts(pop *alertsPop, o sysOpts, seed int64, rec *spanRecorder) (e *alertsEnv, err error) {
	sys, err := triggerman.Open(o.alertsOptions())
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			sys.Close()
		}
	}()
	e = &alertsEnv{pop: pop, sys: sys, rec: rec, rng: rand.New(rand.NewSource(seed ^ 0x5eed))}
	e.zipf = rand.NewZipf(e.rng, alertZipf, 1, alertSymbols-1)
	if e.quotes, err = sys.DefineStreamSource("quotes",
		types.Column{Name: "symbol", Kind: types.KindVarchar},
		types.Column{Name: "price", Kind: types.KindInt},
		types.Column{Name: "venue", Kind: types.KindVarchar},
		types.Column{Name: "seq", Kind: types.KindInt}); err != nil {
		return e, err
	}
	e.ids = make([]uint64, len(pop.trigs))
	for i, t := range pop.trigs {
		name := fmt.Sprintf("a%06d", i)
		if err := sys.CreateTrigger(t.text(i)); err != nil {
			return e, err
		}
		id, ok := sys.Catalog().TriggerByName(name)
		if !ok {
			return e, fmt.Errorf("trigger %s missing after create", name)
		}
		e.ids[i] = id
	}
	if e.feed, err = sys.DefineStreamSource("feed", types.Column{Name: "v", Kind: types.KindInt}); err != nil {
		return e, err
	}
	if err := sys.CreateTrigger("create trigger bulk batch from feed when feed.v >= 0 do raise event Bulk(feed.v)"); err != nil {
		return e, err
	}
	e.bulkID, _ = sys.Catalog().TriggerByName("bulk")
	for len(e.churn) < churnLive {
		if err := e.churnCreate(); err != nil {
			return e, err
		}
	}
	sys.FireHook = e.onFire
	sys.Drain()
	if _, err := e.closedRound(alertWarm, false); err != nil {
		return e, fmt.Errorf("warm-up: %w", err)
	}
	return e, nil
}

func (e *alertsEnv) close() { e.sys.Close() }

// onFire is the FireHook: it sums a checksum over (trigger, token) and
// times the firing in open-loop windows.
func (e *alertsEnv) onFire(id uint64, tuples []types.Tuple) {
	st := e.state.Load()
	if st == nil {
		return
	}
	if id == e.bulkID {
		st.batch.Add(1)
		return
	}
	seq := tuples[0][3].Int()
	st.count.Add(1)
	st.sum.Add(int64(mix(id, uint64(seq))))
	if w := st.w; w != nil {
		w.observe(seq - st.base)
	}
}

// nextQuote draws one token: zipf symbol, uniform venue and price.
func (e *alertsEnv) nextQuote() quote {
	return quote{sym: int(e.zipf.Uint64()), venue: e.rng.Intn(alertVenues), price: 1 + e.rng.Int63n(alertMaxPrice)}
}

// expect adds q's reference firings (count and checksum) for token seq.
func (e *alertsEnv) expect(q quote, seq int64, count, sum *int64) {
	for _, i := range e.pop.bySym[q.sym] {
		t := e.pop.trigs[i]
		if t.kind == 1 || q.price > t.price {
			*count++
			*sum += int64(mix(e.ids[i], uint64(seq)))
		}
	}
	l := e.pop.byVenue[q.venue]
	first := sort.Search(len(l), func(k int) bool { return e.pop.trigs[l[k]].price > q.price })
	for _, i := range l[first:] {
		*count++
		*sum += int64(mix(e.ids[i], uint64(seq)))
	}
}

func (e *alertsEnv) push(q quote, seq int64) error {
	id := e.rec.begin("Push", -1)
	err := e.quotes.Push(datasource.Token{Op: datasource.OpInsert, New: types.Tuple{
		types.NewString(fmt.Sprintf("S%05d", q.sym)), types.NewInt(q.price),
		types.NewString(fmt.Sprintf("V%02d", q.venue)), types.NewInt(seq)}})
	e.rec.end(id)
	e.attempts++
	return err
}

// churnCreate adds one trigger in the hot signature on a symbol no
// token carries, and drops the oldest once more than churnLive live.
func (e *alertsEnv) churnCreate() error {
	name := fmt.Sprintf("churn%06d", e.churnN)
	stmt := fmt.Sprintf("create trigger %s from quotes when quotes.symbol = 'X%05d' and quotes.price > %d do raise event Alert(quotes.symbol, quotes.price)",
		name, e.churnN, e.churnN%alertMaxPrice)
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

// closedRound pushes n tokens back to back, with one create+drop pair
// every churnEvery tokens when churn is set, then drains. It returns
// the elapsed time from the first Push until Drain returns.
func (e *alertsEnv) closedRound(n int, churn bool) (time.Duration, error) {
	qs := make([]quote, n)
	var wantN, wantSum int64
	for i := range qs {
		qs[i] = e.nextQuote()
		e.expect(qs[i], e.seq+int64(i), &wantN, &wantSum)
	}
	settle()
	st := &fireState{}
	e.state.Store(st)
	phase := e.rec.begin("closed", -1)
	begin := time.Now()
	for i, q := range qs {
		if err := e.push(q, e.seq); err != nil {
			return 0, fmt.Errorf("push: %w", err)
		}
		e.seq++
		if churn && i%churnEvery == churnEvery-1 {
			id := e.rec.begin("DDL", phase)
			t0 := time.Now()
			if err := e.churnCreate(); err != nil {
				return 0, fmt.Errorf("ddl: %w", err)
			}
			e.ddl = append(e.ddl, time.Since(t0))
			e.rec.end(id)
		}
		if i%churnEvery == churnEvery-1 {
			pace(e.sys, alertBacklog)
		}
	}
	d := e.rec.begin("Drain", phase)
	e.sys.Drain()
	e.rec.end(d)
	el := time.Since(begin)
	e.rec.end(phase)
	if got := st.count.Load(); got != wantN || st.sum.Load() != wantSum {
		return 0, fmt.Errorf("reference check: %d firings (checksum %x), want %d (%x)", got, st.sum.Load(), wantN, wantSum)
	}
	return el, e.healthy()
}

// healthy fails the run on any asynchronous error or on a quarantine
// other than a shed batch token.
func (e *alertsEnv) healthy() error {
	st := e.sys.Stats()
	if st.Errors != 0 || st.DeadLettered != st.TokensShed {
		return fmt.Errorf("%d errors, %d dead-lettered: %v", st.Errors, st.DeadLettered, e.sys.LastError())
	}
	return nil
}

// openWindow runs one open-loop window at rate for dur and checks that
// firings plus refusals account for every token. Quotes and batch
// tokens are accounted apart: a refused batch token never marks its
// quote refused.
func (e *alertsEnv) openWindow(rate float64, dur time.Duration, sampleDepth bool) (*window, int64, error) {
	w := newWindow(rate, dur)
	qs := make([]quote, w.n)
	for i := range qs {
		qs[i] = e.nextQuote()
	}
	shedBefore := e.sys.Stats().TokensShed
	settle()
	st := &fireState{w: w, base: e.seq}
	e.state.Store(st)
	base := e.seq
	phase := e.rec.begin("open", -1)
	var batchSent, batchRejected int64
	err := runWindow(e.sys, w, sampleDepth, func(i int) error {
		err := e.push(qs[i], base+int64(i))
		if i%4 == 0 {
			id := e.rec.begin("Push", phase)
			ferr := e.feed.Push(datasource.Token{Op: datasource.OpInsert, New: types.Tuple{types.NewInt(int64(i))}})
			e.rec.end(id)
			e.attempts++
			batchSent++
			switch {
			case isOverload(ferr):
				batchRejected++
			case ferr != nil:
				return ferr
			}
		}
		return err
	})
	e.seq += int64(w.n)
	if err != nil {
		return nil, 0, fmt.Errorf("push: %w", err)
	}
	d := e.rec.begin("Drain", phase)
	e.sys.Drain()
	e.rec.end(d)
	e.rec.end(phase)
	shed := e.sys.Stats().TokensShed - shedBefore
	var wantN, wantSum int64
	for i, q := range qs {
		if !w.rejected[i] {
			e.expect(q, base+int64(i), &wantN, &wantSum)
		}
	}
	if got := st.count.Load(); got != wantN || st.sum.Load() != wantSum {
		return nil, 0, fmt.Errorf("reference check at %.0f/s: %d firings (checksum %x), want %d (%x)", rate, got, st.sum.Load(), wantN, wantSum)
	}
	if got := st.batch.Load(); got+shed+batchRejected != batchSent {
		return nil, 0, fmt.Errorf("reference check at %.0f/s: %d batch firings + %d shed + %d rejected, want %d batch tokens",
			rate, got, shed, batchRejected, batchSent)
	}
	w.nReject += int(batchRejected)
	return w, shed, e.healthy()
}

// setupsPerRun is how many times a run sets the system up; setup_s is
// the median. The closed loop runs on every one of them, so tokens_per_s
// and ddl_p50_us pool several systems.
const setupsPerRun = 3

func runAlertsOpenLoop(cfg config, res *result) error {
	pop := genAlertsPop(cfg.seed)
	if cfg.trace {
		return alertsTraced(cfg, res, pop)
	}
	closedBudget, openBudget := splitBudget(cfg.seconds, alertClosedPct)
	var setups, rates []float64
	var ddl durations
	var heap float64
	var e *alertsEnv
	for k := 0; k < setupsPerRun; k++ {
		if e != nil {
			res.Attempted += e.attempts
			e.close()
		}
		settle()
		begin := time.Now()
		var err error
		if e, err = openAlerts(pop, sysOpts{telemetry: true}, cfg.seed, nil); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(begin).Seconds())
		if k == 0 {
			heap = heapMB()
		}
		r, err := e.closedPhase(closedBudget/setupsPerRun, 1)
		if err != nil {
			e.close()
			return err
		}
		rates = append(rates, r...)
		ddl = append(ddl, e.ddl...)
	}
	defer e.close()
	windows, sheds, err := e.openPhase(openBudget, nil)
	if err != nil {
		return err
	}
	ref, sloRate, refused := openResults(windows, sheds)
	res.Attempted += e.attempts
	res.Failed = refused
	fmt.Printf("failed_frac %.6g (%d of %d)\n", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["heap_mb"] = metric{heap, "MB"}
	res.Metrics["tokens_per_s"] = metric{median(rates), "1/s"}
	res.Metrics["ddl_p50_us"] = metric{us(ddl.quantile(0.5)), "us"}
	res.Metrics["fire_p50_ms"] = metric{ref.lat.quantile(0.5) / 1e6, "ms"}
	res.Metrics["slo_rate"] = metric{sloRate, "1/s"}
	return nil
}

// openPhase runs one window at each of the workload's rates on this
// system. With acc set, it samples queue depth and keeps lateness.
func (e *alertsEnv) openPhase(budgets [3]time.Duration, acc *layerAcc) (ws [3]*window, sheds [3]int64, err error) {
	for i, rate := range alertRates {
		if ws[i], sheds[i], err = e.openWindow(rate, budgets[i], acc != nil); err != nil {
			return
		}
		acc.addWindow(ws[i])
	}
	return
}

// closedPhase runs closed-loop rounds, at least min, until budget is
// spent and returns each round's tokens/s.
func (e *alertsEnv) closedPhase(budget time.Duration, min int) ([]float64, error) {
	var rates, ddl []float64
	begin := time.Now()
	for len(rates) < min || time.Since(begin) < budget {
		n := len(e.ddl)
		el, err := e.closedRound(alertRound, true)
		if err != nil {
			return nil, err
		}
		rates = append(rates, float64(alertRound)/el.Seconds())
		ddl = append(ddl, us(e.ddl[n:].quantile(0.5)))
	}
	fmt.Printf("closed rounds=%d tokens/round=%d tokens_per_s=%.0f ddl_p50_us=%.1f\n", len(rates), alertRound, rates, ddl)
	return rates, nil
}

// alertsTraced is the per-layer run: every token traced, spans around
// each public call, then the same closed loop untraced and with
// telemetry off for the overhead and tax pairs.
func alertsTraced(cfg config, res *result, pop *alertsPop) error {
	rec := newSpanRecorder()
	o := sysOpts{traced: true, telemetry: true}
	e, err := openAlerts(pop, o, cfg.seed, rec)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	closedBudget, openBudget := splitBudget(cfg.seconds, alertClosedPct)
	var acc layerAcc
	before := snapshot(e.sys, nil)
	attempts0 := e.attempts
	tracedRates, err := e.closedPhase(closedBudget, 3)
	tracedTPS := median(tracedRates)
	if err != nil {
		e.close()
		return err
	}
	windows, sheds, err := e.openPhase(openBudget, &acc)
	if err != nil {
		e.close()
		return err
	}
	_, _, refused := openResults(windows, sheds)
	acc.addDelta(before, snapshot(e.sys, nil))
	acc.tokens = e.attempts - attempts0
	acc.matchRepl, acc.pins, err = e.replay(500)
	res.Attempted, res.Failed = e.attempts, refused
	e.close()
	if err != nil {
		return err
	}

	var untraced, off float64
	for _, v := range []struct {
		o   sysOpts
		out *float64
	}{{sysOpts{telemetry: true}, &untraced}, {sysOpts{}, &off}} {
		e, err := openAlerts(pop, v.o, cfg.seed, nil)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		rates, err := e.closedPhase(closedBudget/2, 3)
		*v.out = median(rates)
		res.Attempted += e.attempts
		e.close()
		if err != nil {
			return err
		}
	}
	res.Metrics = acc.layerMetrics(rec,
		100*(untraced-tracedTPS)/untraced, 100*(off-untraced)/off)
	return rec.write(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.csv", cfg.workload, cfg.seed))
}

// replay times PredIndex().MatchToken on sampled tokens against the
// live index, and Catalog().Pin on a sample of population triggers
// (the cache holds a sixth of them, so most pins reload).
func (e *alertsEnv) replay(n int) (match, pins durations, err error) {
	for i := 0; i < n; i++ {
		q := e.nextQuote()
		tok := datasource.Token{SourceID: e.quotes.Source().ID, Op: datasource.OpInsert, New: types.Tuple{
			types.NewString(fmt.Sprintf("S%05d", q.sym)), types.NewInt(q.price),
			types.NewString(fmt.Sprintf("V%02d", q.venue)), types.NewInt(-1)}}
		id := e.rec.begin("MatchToken", -1)
		err := e.sys.PredIndex().MatchToken(tok, func(predindex.Match) bool { return true })
		match = append(match, e.rec.end(id))
		if err != nil {
			return nil, nil, err
		}
		tid := e.ids[e.rng.Intn(len(e.ids))]
		id = e.rec.begin("Pin", -1)
		_, unpin, err := e.sys.Catalog().Pin(tid)
		if err == nil {
			unpin()
		}
		pins = append(pins, e.rec.end(id))
		if err != nil {
			return nil, nil, err
		}
	}
	return match, pins, nil
}
