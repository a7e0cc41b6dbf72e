package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"triggerman"
	"triggerman/internal/admission"
	tmmetrics "triggerman/internal/metrics"
)

// The reference open-loop rate is the middle of a workload's three.
const refRate = 1

// fireP99Limit is the shipped interactive-p99 objective.
const fireP99Limit = 50 * time.Millisecond

// spanRecorder keeps the benchmark's own spans in memory: one per
// public call the generator goroutine makes, and one per phase. Only
// the generator goroutine records, so it needs no lock. A nil recorder
// records nothing.
type spanRecorder struct {
	t0    time.Time
	spans []span
}

type span struct {
	name       string
	parent     int
	start, end time.Duration
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// begin opens a span under parent (-1 for none) and returns its id.
func (r *spanRecorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, parent: parent, start: time.Since(r.t0)})
	return len(r.spans) - 1
}

// end closes span id and returns its duration.
func (r *spanRecorder) end(id int) time.Duration {
	if r == nil || id < 0 {
		return 0
	}
	s := &r.spans[id]
	s.end = time.Since(r.t0)
	return s.end - s.start
}

// durations lists the durations of every span with the given name.
func (r *spanRecorder) durations(name string) durations {
	if r == nil {
		return nil
	}
	var out durations
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// write stores the spans as CSV under dir.
func (r *spanRecorder) write(dir, file string) error {
	if r == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	fmt.Fprintln(f, "id,parent,name,start_ns,end_ns")
	for i, s := range r.spans {
		fmt.Fprintf(f, "%d,%d,%s,%d,%d\n", i, s.parent, s.name, int64(s.start), int64(s.end))
	}
	return f.Close()
}

// rtCounts are runtime/metrics readings.
type rtCounts struct {
	allocObjs, allocBytes uint64
	gcCPU, totalCPU       float64
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() rtCounts {
	s := append([]metrics.Sample(nil), rtSamples...)
	metrics.Read(s)
	return rtCounts{
		allocObjs:  s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// heapMB is the live heap after a forced GC.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// histCounts is one histogram's raw state from Metrics().Snapshot().
type histCounts struct {
	bounds  []int64
	buckets []int64
	sum     int64
	count   int64
}

func (h histCounts) sub(o histCounts) histCounts {
	out := histCounts{bounds: h.bounds, buckets: make([]int64, len(h.buckets)), sum: h.sum - o.sum, count: h.count - o.count}
	for i := range h.buckets {
		out.buckets[i] = h.buckets[i]
		if i < len(o.buckets) {
			out.buckets[i] -= o.buckets[i]
		}
	}
	return out
}

func (h histCounts) add(o histCounts) histCounts {
	if h.buckets == nil {
		return o
	}
	out := histCounts{bounds: h.bounds, buckets: append([]int64(nil), h.buckets...), sum: h.sum + o.sum, count: h.count + o.count}
	for i := range o.buckets {
		out.buckets[i] += o.buckets[i]
	}
	return out
}

// quantile interpolates linearly inside the bucket holding q.
func (h histCounts) quantile(q float64) time.Duration {
	if h.count <= 0 {
		return 0
	}
	rank := q * float64(h.count)
	var seen float64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo := int64(0)
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := lo * 2
			if i < len(h.bounds) {
				hi = h.bounds[i]
			}
			frac := (rank - seen) / float64(c)
			return time.Duration(float64(lo) + frac*float64(hi-lo))
		}
		seen += float64(c)
	}
	return time.Duration(h.bounds[len(h.bounds)-1])
}

// stageNames are the program's lifecycle stages read from the existing
// tman_stage_duration_seconds histograms.
var stageNames = []string{"capture", "dequeue", "taskwait", "match", "propagate", "action", "deliver"}

// sysSnap is everything the benchmark reads from a system at a phase
// boundary.
type sysSnap struct {
	st    triggerman.Stats
	disk  diskCounts
	rt    rtCounts
	hists map[string]histCounts
}

func snapshot(sys *triggerman.System, disk *countingDisk) sysSnap {
	s := sysSnap{st: sys.Stats(), rt: readRuntime(), hists: map[string]histCounts{}}
	if disk != nil {
		s.disk = disk.snapshot()
	}
	snap := sys.Metrics().Snapshot()
	read := func(key, family, labels string) {
		f, ok := snap.Family(family)
		if !ok {
			return
		}
		for _, inst := range f.Insts {
			if inst.Labels == labels && inst.Hist != nil {
				s.hists[key] = histCounts{bounds: inst.Hist.BoundsNs, buckets: inst.Hist.Buckets, sum: inst.Hist.SumNs, count: inst.Hist.Count}
			}
		}
	}
	for _, st := range stageNames {
		read(st, "tman_stage_duration_seconds", tmmetrics.LabelString(tmmetrics.L("stage", st)))
	}
	read("token", "tman_token_duration_seconds", "")
	return s
}

// layerAcc accumulates per-layer deltas over the measured phases of a
// traced run, across every system the run opened.
type layerAcc struct {
	tokens int64 // generator tokens pushed

	tokensIn, actions, events int64
	sigProbes, constCmp, rest int64
	idxMatches, tokMatches    int64
	tasks, steals             int64
	parks, unparks, aged      int64
	cacheHits, cacheMisses    int64
	cacheEvict                int64
	poolHits, poolMisses      int64
	poolEvict                 int64
	rejected, shed            int64
	disk                      diskCounts
	allocObjs, allocBytes     uint64
	gcCPU, totalCPU           float64
	hists                     map[string]histCounts

	depthMax  int
	late      durations
	matchRepl durations
	pins      durations
	execs     durations
}

// addDelta folds the change between two snapshots of one system.
func (a *layerAcc) addDelta(before, after sysSnap) {
	b, e := before.st, after.st
	a.tokensIn += e.TokensIn - b.TokensIn
	a.actions += e.ActionsRun - b.ActionsRun
	a.events += e.EventsRaised - b.EventsRaised
	a.sigProbes += e.Index.SigProbes - b.Index.SigProbes
	a.constCmp += e.Index.ConstCompares - b.Index.ConstCompares
	a.rest += e.Index.RestTests - b.Index.RestTests
	a.idxMatches += e.Index.Matches - b.Index.Matches
	a.tokMatches += e.TokensMatched - b.TokensMatched
	a.tasks += e.Pool.Executed - b.Pool.Executed
	a.steals += e.Pool.Steals - b.Pool.Steals
	a.parks += e.Pool.Parks - b.Pool.Parks
	a.unparks += e.Pool.Unparks - b.Pool.Unparks
	a.aged += e.Pool.Aged - b.Pool.Aged
	a.cacheHits += e.TriggerCache.Hits - b.TriggerCache.Hits
	a.cacheMisses += e.TriggerCache.Misses - b.TriggerCache.Misses
	a.cacheEvict += e.TriggerCache.Evictions - b.TriggerCache.Evictions
	a.poolHits += int64(e.BufferPool.Hits - b.BufferPool.Hits)
	a.poolMisses += int64(e.BufferPool.Misses - b.BufferPool.Misses)
	a.poolEvict += int64(e.BufferPool.Evictions - b.BufferPool.Evictions)
	a.rejected += e.TokensRejected - b.TokensRejected
	a.shed += e.TokensShed - b.TokensShed
	a.disk.reads += after.disk.reads - before.disk.reads
	a.disk.writes += after.disk.writes - before.disk.writes
	a.disk.syncs += after.disk.syncs - before.disk.syncs
	a.disk.busy += after.disk.busy - before.disk.busy
	a.allocObjs += after.rt.allocObjs - before.rt.allocObjs
	a.allocBytes += after.rt.allocBytes - before.rt.allocBytes
	a.gcCPU += after.rt.gcCPU - before.rt.gcCPU
	a.totalCPU += after.rt.totalCPU - before.rt.totalCPU
	if a.hists == nil {
		a.hists = map[string]histCounts{}
	}
	for k, h := range after.hists {
		a.hists[k] = a.hists[k].add(h.sub(before.hists[k]))
	}
}

// layerMetrics derives every per-layer metric. Layers a workload does
// not exercise read 0.
func (a *layerAcc) layerMetrics(rec *spanRecorder, overheadPct, taxPct float64) map[string]metric {
	tok := float64(a.tokens)
	per := func(n int64) float64 { return ratio(float64(n), tok) }
	q := func(stage string, p float64) float64 { return us(a.hists[stage].quantile(p)) }
	push := rec.durations("Push")
	m := map[string]metric{
		"capture.push_us_p50":                {us(push.quantile(0.50)), "us"},
		"capture.push_us_p99":                {us(push.quantile(0.99)), "us"},
		"capture.rejected":                   {float64(a.rejected), "count"},
		"capture.shed":                       {float64(a.shed), "count"},
		"datasource.depth_max":               {float64(a.depthMax), "count"},
		"datasource.page_fetches_per_token":  {per(a.poolHits + a.poolMisses), "count"},
		"datasource.wait_us_p50":             {q("dequeue", 0.5), "us"},
		"taskq.tasks_per_token":              {per(a.tasks), "count"},
		"taskq.steals_per_token":             {per(a.steals), "count"},
		"taskq.parks_per_token":              {per(a.parks), "count"},
		"taskq.unparks_per_token":            {per(a.unparks), "count"},
		"taskq.aged":                         {float64(a.aged), "count"},
		"taskq.wait_us_p50":                  {q("taskwait", 0.5), "us"},
		"taskq.wait_us_p99":                  {q("taskwait", 0.99), "us"},
		"predindex.match_us_p50":             {us(a.matchRepl.quantile(0.5)), "us"},
		"predindex.sig_probes_per_token":     {per(a.sigProbes), "count"},
		"predindex.const_compares_per_token": {per(a.constCmp), "count"},
		"predindex.rest_tests_per_token":     {per(a.rest), "count"},
		"predindex.matches_per_token":        {per(a.idxMatches), "count"},
		"predindex.useful_ratio":             {ratio(float64(a.idxMatches), float64(a.rest)), "ratio"},
		"catalog.hit_ratio":                  {ratio(float64(a.cacheHits), float64(a.cacheHits+a.cacheMisses)), "ratio"},
		"catalog.misses_per_token":           {per(a.cacheMisses), "count"},
		"catalog.evictions_per_token":        {per(a.cacheEvict), "count"},
		"catalog.pin_us_p50":                 {us(a.pins.quantile(0.5)), "us"},
		"propagate.us_p50":                   {q("propagate", 0.5), "us"},
		"propagate.matches_per_token":        {per(a.idxMatches - a.tokMatches), "count"},
		"action.per_token":                   {per(a.actions), "count"},
		"action.us_p50":                      {q("action", 0.5), "us"},
		"action.exec_us_p50":                 {us(a.execs.quantile(0.5)), "us"},
		"storage.page_reads_per_token":       {per(a.disk.reads), "count"},
		"storage.page_writes_per_token":      {per(a.disk.writes), "count"},
		"storage.syncs_per_token":            {per(a.disk.syncs), "count"},
		"storage.disk_us_per_token":          {ratio(us(a.disk.busy), tok), "us"},
		"storage.pool_hit_ratio":             {ratio(float64(a.poolHits), float64(a.poolHits+a.poolMisses)), "ratio"},
		"storage.evictions_per_token":        {per(a.poolEvict), "count"},
		"storage.enqueues_per_sync":          {ratio(float64(a.tokensIn), float64(a.disk.syncs)), "count"},
		"event.events_per_token":             {per(a.events), "count"},
		"event.deliver_us_p50":               {q("deliver", 0.5), "us"},
		"telemetry.tax_pct":                  {taxPct, "%"},
		"runtime.allocs_per_token":           {ratio(float64(a.allocObjs), tok), "count"},
		"runtime.bytes_per_token":            {ratio(float64(a.allocBytes), tok), "B"},
		"runtime.gc_cpu_frac":                {ratio(a.gcCPU, a.totalCPU), "ratio"},
		"gen.late_ms_p99":                    {ms(a.late.quantile(0.99)), "ms"},
		"gen.late_ms_max":                    {ms(a.late.quantile(1)), "ms"},
		"budget.unexplained_pct":             {a.unexplainedPct(), "%"},
		"trace.overhead_pct":                 {overheadPct, "%"},
	}
	return m
}

// unexplainedPct is the share of the mean traced token's
// capture→completion time that no stage accounts for. deliver runs
// inside action, so it is not added again.
func (a *layerAcc) unexplainedPct() float64 {
	tot := a.hists["token"]
	if tot.count == 0 || tot.sum == 0 {
		return 0
	}
	var stages int64
	for _, st := range stageNames {
		if st != "deliver" {
			stages += a.hists[st].sum
		}
	}
	return 100 * float64(tot.sum-stages) / float64(tot.sum)
}

// isOverload reports an admission rejection.
func isOverload(err error) bool { return errors.Is(err, admission.ErrOverload) }

// window is one open-loop run at a fixed rate. lat times firings from
// each token's scheduled send, latSent from the instant the generator
// actually sent it, so latSent leaves out the generator's lateness.
type window struct {
	rate      float64
	n         int
	start     time.Time
	sched     []time.Time
	sent      []time.Time
	lat       *latHist
	latSent   *latHist
	intervals []*latHist
	late      durations
	rejected  []bool
	nReject   int
	depthEnd  int
	depthMax  int
}

// p99Interval is the span of send times over which one p99 is taken. At
// the reference rates it holds about one collector cycle, so a run's
// p99 is not decided by whether one unusually long cycle landed in it.
const p99Interval = 3 * time.Second

func newWindow(rate float64, dur time.Duration) *window {
	k := int(dur / p99Interval)
	if k%2 == 0 {
		k-- // an odd count has a middle interval
	}
	if k < 1 {
		k = 1
	}
	w := &window{rate: rate, n: int(rate * dur.Seconds()), lat: new(latHist), latSent: new(latHist), intervals: make([]*latHist, k)}
	for i := range w.intervals {
		w.intervals[i] = new(latHist)
	}
	return w
}

// observe times a firing of token i from its scheduled and its actual
// send.
func (w *window) observe(i int64) {
	if i < 0 || i >= int64(len(w.sched)) {
		return
	}
	now := time.Now()
	d := now.Sub(w.sched[i])
	w.lat.observe(d)
	w.latSent.observe(now.Sub(w.sent[i]))
	w.intervals[i*int64(len(w.intervals))/int64(w.n)].observe(d)
}

// p99 is the median over the window's intervals of each interval's
// p99, in nanoseconds. The whole window's p99 and p999 are printed
// beside it.
func (w *window) p99() float64 {
	ps := make([]float64, len(w.intervals))
	for i, h := range w.intervals {
		ps[i] = h.quantile(0.99)
	}
	return median(ps)
}

// mergeWindows sums windows run one after another at the same rate,
// each on its own system, into one for reporting. Each part counts as
// one of the merged window's p99 intervals.
func mergeWindows(parts []*window) *window {
	m := &window{rate: parts[0].rate, lat: new(latHist), latSent: new(latHist)}
	for _, w := range parts {
		m.n += w.n
		m.lat.merge(w.lat)
		m.latSent.merge(w.latSent)
		m.intervals = append(m.intervals, w.lat)
		m.late = append(m.late, w.late...)
		m.nReject += w.nReject
		m.depthEnd = max(m.depthEnd, w.depthEnd)
		m.depthMax = max(m.depthMax, w.depthMax)
	}
	return m
}

// runWindow sends n tokens on a fixed schedule. send pushes token i;
// the scheduled and actual send instants are stored before the call so
// FireHook can time from them. Sends are never skipped: a late
// generator catches up, and its lateness is recorded.
func runWindow(sys *triggerman.System, w *window, sampleDepth bool, send func(i int) error) error {
	interval := time.Duration(float64(time.Second) / w.rate)
	w.sched = make([]time.Time, w.n)
	w.sent = make([]time.Time, w.n)
	w.rejected = make([]bool, w.n)
	w.late = make(durations, 0, w.n)
	w.start = time.Now().Add(time.Millisecond)
	for i := 0; i < w.n; i++ {
		due := w.start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		w.late = append(w.late, now.Sub(due))
		w.sched[i], w.sent[i] = due, now
		if err := send(i); err != nil {
			if !isOverload(err) {
				return err
			}
			w.rejected[i] = true
			w.nReject++
		}
		if sampleDepth && i%64 == 0 {
			if d := sys.Stats().QueueDepth; d > w.depthMax {
				w.depthMax = d
			}
		}
	}
	w.depthEnd = sys.Stats().QueueDepth
	if w.depthEnd > w.depthMax {
		w.depthMax = w.depthEnd
	}
	return nil
}

// meetsSLO is the slo_rate test: interactive p99 within the shipped
// objective, nothing refused, and no backlog left growing (less than
// 50ms of arrivals still queued when the schedule ends). The p99 is the
// median over the window's intervals (see p99); wholeWindow tests the
// whole window's p99 instead, which is how the shipped objective counts.
func (w *window) meetsSLO(shed int64, wholeWindow bool) bool {
	p99 := w.p99()
	if wholeWindow {
		p99 = w.lat.quantile(0.99)
	}
	return time.Duration(p99) <= fireP99Limit &&
		w.nReject == 0 && shed == 0 &&
		float64(w.depthEnd) <= w.rate*fireP99Limit.Seconds()
}

// report prints one window's figures.
func (w *window) report(shed int64) {
	fmt.Printf("open rate=%.0f/s sent=%d rejected=%d shed=%d firings=%d fire_p50=%.3fms (from actual send %.3fms) fire_p99=%.3fms (whole window %.3fms) fire_p999=%.3fms depth_max=%d depth_end=%d late_p50=%.3fms late_p99=%.3fms late_max=%.3fms\n",
		w.rate, w.n, w.nReject, shed, w.lat.count(), w.lat.quantile(0.5)/1e6, w.latSent.quantile(0.5)/1e6, w.p99()/1e6, w.lat.quantile(0.99)/1e6,
		w.lat.quantile(0.999)/1e6, w.depthMax, w.depthEnd, ms(w.late.quantile(0.5)), ms(w.late.quantile(0.99)), ms(w.late.quantile(1)))
}

// openResults reads the reference window, slo_rate (the highest rate
// whose window meets the objective) and the tokens refused at or below
// the reference rate; refusals above it are the overload probe working
// as designed, not failures.
func openResults(ws [3]*window, sheds [3]int64) (ref *window, sloRate float64, refused int64) {
	var wholeRate float64
	for i, w := range ws {
		w.report(sheds[i])
		if w.meetsSLO(sheds[i], false) {
			sloRate = w.rate
		}
		if w.meetsSLO(sheds[i], true) {
			wholeRate = w.rate
		}
		if i <= refRate {
			refused += int64(w.nReject) + sheds[i]
		}
	}
	// Printed, not reported as metrics: README.md gives the spreads that
	// keep them out of BENCHMARK.json.
	fmt.Printf("fire_p99_ms %.6g at the reference rate\n", ws[refRate].p99()/1e6)
	fmt.Printf("slo_rate_whole_window %.0f\n", wholeRate)
	return ws[refRate], sloRate, refused
}

// addWindow keeps an open-loop window's generator lateness and
// queue-depth peak; a nil accumulator keeps nothing.
func (a *layerAcc) addWindow(w *window) {
	if a == nil {
		return
	}
	a.late = append(a.late, w.late...)
	if w.depthMax > a.depthMax {
		a.depthMax = w.depthMax
	}
}

// splitBudget divides a run's measured seconds: closedPct% closed loop,
// the rest open loop with 80% of that at the reference rate, whose p99
// needs the most samples.
func splitBudget(seconds float64, closedPct int) (closed time.Duration, open [3]time.Duration) {
	total := time.Duration(seconds * float64(time.Second))
	closed = total * time.Duration(closedPct) / 100
	o := total - closed
	open = [3]time.Duration{o / 10, o * 8 / 10, o / 10}
	return
}

// settle collects garbage before a timed phase, so every phase starts
// at the same point of the collector's cycle rather than a random one;
// otherwise one collection more or less per phase moves its figures.
func settle() { runtime.GC() }

// Closed rounds keep at most this many tokens queued: the generator
// waits while more are queued, so pushes, DDL and processing overlap for
// the whole round instead of every push landing in its first tenth,
// which made ddl_p50_us swing 35-95us between alerts rounds. 512 alerts
// tokens keep both drivers busy; cascade keeps a long persistent queue,
// whose dequeue cost depends on how many tokens wait.
const (
	alertBacklog = 512
	cascBacklog  = 4096
)

// pace blocks while the queue holds more than limit tokens.
func pace(sys *triggerman.System, limit int64) {
	for {
		if d, _ := sys.Metrics().Value("tman_queue_depth"); d <= limit {
			return
		}
		time.Sleep(time.Millisecond)
	}
}
