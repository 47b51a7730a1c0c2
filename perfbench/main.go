// Command perfbench is the repository's end-to-end benchmark. It stands
// the whole serving stack up in one process — offline pipeline, two
// shard servers on loopback TCP, the scatter-gather detector, the
// serving cache and the HTTP gateway — drives it from outside with
// generated traffic, checks every answer against a cold reference
// detector, and prints its metrics as one JSON line. See BENCHMARK.md.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload hot-frontdoor --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/microblog"
	"repro/internal/world"
)

// preloadPosts is how many posts every deployment ingests (in
// batchSize batches) before it counts as ready.
const preloadPosts = 10_000

// repetitions is how many open/closed-loop repetitions an untraced
// window holds; its latency and throughput figures are their medians.
const repetitions = 10

// setupRounds is how many times a run stands the deployment up; setup_s
// is the median. All but the last round are torn down again.
const setupRounds = 3

// Phase tags keep each phase's request sequence independent.
const (
	phaseWarm = iota
	phaseOpen
	phaseClosed
	phaseReplay
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string
}

func main() {
	if os.Getenv(spinnerEnv) != "" {
		runSpinner()
	}
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name: hot-frontdoor, cold-scatter or ingest-mixed")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced deployment and reports per-layer metrics; 0 the end-to-end ones")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench-data", "directory for spill files and span output")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace %d: want 0 or 1\n", traceFlag)
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds %d: need at least 1", o.seconds)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	stop, err := startSpinners()
	if err != nil {
		return err
	}
	defer stop()
	env := environment(o)
	envLine, _ := json.Marshal(map[string]any{"env": env}) // strings and numbers always marshal
	fmt.Println(string(envLine))

	r := &runner{o: o, w: w, cfg: smallScale(), dur: time.Duration(o.seconds) * time.Second}
	res, err := r.run()
	if err != nil {
		return err
	}
	printTable(os.Stderr, res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runner holds one run's state across its set-up rounds and phases.
type runner struct {
	o   options
	w   workload
	cfg core.PipelineConfig
	dur time.Duration

	preload []microblog.Post
	table   *queryTable
	oracle  *oracle

	setupSecs   []float64
	stageSecs   map[string][]float64
	preloadAcks [][]time.Duration // per set-up round
}

// posts returns the preload posts, generated once from the seed.
func (r *runner) posts(w *world.World) []microblog.Post {
	if r.preload == nil {
		r.preload = stream(w, r.o.seed, preloadPosts)
	}
	return r.preload
}

// stream returns the first n posts of the live stream seeded by seed.
func stream(w *world.World, seed uint64, n int) []microblog.Post {
	ps := microblog.NewPostStream(w, microblog.DefaultStreamConfig(seed))
	out := make([]microblog.Post, n)
	for i := range out {
		out[i] = ps.Next()
	}
	return out
}

func (r *runner) run() (*result, error) {
	r.stageSecs = map[string][]float64{}
	var untracedP50 time.Duration
	for round := 0; round < setupRounds; round++ {
		last := round == setupRounds-1
		st, err := setup(r.cfg, r.w.dep, r.posts, r.o.out, r.o.trace && last)
		if err != nil {
			return nil, err
		}
		total := 0.0
		for _, name := range setupStages {
			total += st.stages[name]
			r.stageSecs[name] = append(r.stageSecs[name], st.stages[name])
		}
		r.setupSecs = append(r.setupSecs, total)
		r.preloadAcks = append(r.preloadAcks, st.preloadAcks)
		if round == 0 {
			r.buildOracle(st)
		}
		if !last {
			if r.o.trace && round == setupRounds-2 {
				// The untraced side of the tracing-overhead comparison.
				ph := r.measure(st, r.dur/2, 1, false, nil)
				untracedP50 = percentile(latencies(ph.open(), ph.reps[0].missing), 0.50)
			}
			st.close()
			runtime.GC()
			continue
		}
		defer st.close()
		if r.o.trace {
			return r.traced(st, untracedP50)
		}
		return r.untraced(st)
	}
	panic("unreachable")
}

// buildOracle computes the reference answers from the first round's
// pipeline: a cold core.Detector over the base corpus plus the preload.
func (r *runner) buildOracle(st *stack) {
	r.table = newQueryTable(st.off.log)
	if r.w.writeRate > 0 {
		// Live writes move the answers; this workload checks them after
		// the writer stops (see replay).
		return
	}
	ref := core.NewDetector(st.off.coll, st.off.corpus.ExtendedWith(r.preload), st.off.online)
	r.oracle = newOracle(ref, r.table, allKeys(r.table, r.w))
}

// phase is what one measured window produced.
type phase struct {
	// reps are the window's repetitions, each an open loop and, when
	// peak throughput is measured, a closed loop after it.
	reps []rep
	// writes are the writer's batches over the whole window.
	writes      []sample
	acked       []microblog.Post
	partials    int64
	segmentsMax int
	rssMB       float64
}

// rep is one repetition of the window.
type rep struct {
	open, closed []sample
	closedWall   time.Duration
	// missing is the latency charged to a failed or wrong request: the
	// length of the open loop.
	missing time.Duration
}

// open returns every repetition's open-loop samples.
func (p *phase) open() []sample {
	var all []sample
	for _, r := range p.reps {
		all = append(all, r.open...)
	}
	return all
}

// closed returns every repetition's closed-loop samples.
func (p *phase) closed() []sample {
	var all []sample
	for _, r := range p.reps {
		all = append(all, r.closed...)
	}
	return all
}

// latencies returns each sample's latency from its due time; one that
// failed or answered wrong counts as missing and is charged missing.
func latencies(samples []sample, missing time.Duration) []time.Duration {
	out := make([]time.Duration, len(samples))
	for i, s := range samples {
		out[i] = s.latency()
		if s.out != outOK {
			out[i] = missing
		}
	}
	return out
}

// repMedian returns the median over repetitions of f.
func (p *phase) repMedian(f func(rep) float64) float64 {
	xs := make([]float64, len(p.reps))
	for i, r := range p.reps {
		xs[i] = f(r)
	}
	return median(xs)
}

// warm readies a fresh stack untimed: hot-frontdoor sends every
// distinct query once so the cache holds the whole working set; the
// others run half a second of their own open-loop traffic.
func (r *runner) warm(h *httpClient) {
	if r.w.warmAll {
		n := len(r.table.text)
		closedLoopN(r.w.clients, n, func(c, i int) {
			h.post(c, r.table.bodies[i], false)
		})
		return
	}
	openLoop(r.w.clients, r.w.rate, 500*time.Millisecond,
		searcher(h, r.table, r.oracle, r.table.drawers(r.w, r.o.seed, phaseWarm, r.w.clients)))
}

// closedLoopN runs fn(c, i) for i in [0, n) over clients goroutines.
func closedLoopN(clients, n int, fn func(c, i int)) {
	done := make(chan struct{})
	for c := 0; c < clients; c++ {
		go func(c int) {
			for i := c; i < n; i += clients {
				fn(c, i)
			}
			done <- struct{}{}
		}(c)
	}
	for c := 0; c < clients; c++ {
		<-done
	}
}

// measure warms st and then runs one window of dur in reps
// repetitions. Each repetition runs open-loop search traffic at the
// workload's rate and then, if withPeak, a closed loop for 40% of its
// time. The writer, if the workload has one, runs for the whole window;
// without one, each loop starts from a fresh GC cycle. Reporting the
// median over repetitions keeps a short disturbance on the host from
// moving a run's figures.
func (r *runner) measure(st *stack, dur time.Duration, reps int, withPeak bool, onStart func()) *phase {
	h := newHTTPClient(st.url, r.w.clients)
	defer h.close()
	// Start every window from the same state: set-up garbage returned to
	// the OS, caches warm, a fresh GC cycle (as testing.B does before
	// timing), and the peak-RSS mark reset so rss_peak_mb is the peak
	// while serving.
	debug.FreeOSMemory()
	r.warm(h)
	runtime.GC()
	resetPeakRSS()
	if onStart != nil {
		onStart()
	}

	openDur := dur / time.Duration(reps)
	var closedDur time.Duration
	if withPeak {
		openDur = dur * 6 / 10 / time.Duration(reps)
		closedDur = dur * 4 / 10 / time.Duration(reps)
	}
	p := &phase{}
	before := st.srv.Stats()
	var writer chan struct{}
	if r.w.writeRate > 0 {
		writer = make(chan struct{})
		go func() {
			defer close(writer)
			p.writes, p.acked, p.segmentsMax = r.write(st, dur)
		}()
	}
	for i := 0; i < reps; i++ {
		if writer == nil && i > 0 {
			runtime.GC()
		}
		rp := rep{missing: openDur}
		rp.open = flatten(openLoop(r.w.clients, r.w.rate, openDur,
			searcher(h, r.table, r.oracle, r.table.drawers(r.w, r.o.seed, phaseOpen+10*i, r.w.clients))))
		if withPeak {
			if writer == nil {
				runtime.GC()
			}
			closed, wall := closedLoop(r.w.clients, closedDur,
				searcher(h, r.table, r.oracle, r.table.drawers(r.w, r.o.seed, phaseClosed+10*i, r.w.clients)))
			rp.closed, rp.closedWall = flatten(closed), wall
		}
		p.reps = append(p.reps, rp)
	}
	if writer != nil {
		<-writer
	}
	after := st.srv.Stats()
	p.partials = after.PartialResults - before.PartialResults
	p.rssMB = rssPeakMB()
	return p
}

// write runs the writer: batchSize-post Cluster.IngestBatch calls on
// an open-loop schedule of writeRate per second for dur. It returns
// the acknowledgement samples, the acknowledged posts in order, and,
// on a traced stack, the most sealed segments any index held at a
// batch boundary.
func (r *runner) write(st *stack, dur time.Duration) ([]sample, []microblog.Post, int) {
	ps := microblog.NewPostStream(st.off.world, microblog.DefaultStreamConfig(r.o.seed+1_000_000))
	var acked []microblog.Post
	segMax := 0
	batch := make([]microblog.Post, batchSize)
	samples := openLoop(1, r.w.writeRate, dur, func(int) (outcome, int, int32, bool) {
		for i := range batch {
			batch[i] = ps.Next()
		}
		if err := st.cluster.IngestBatch(batch); err != nil {
			return outFailed, 0, -1, false
		}
		acked = append(acked, batch...)
		if st.rec != nil {
			for _, idx := range st.indexes() {
				segMax = max(segMax, idx.Stats().Segments)
			}
		}
		return outOK, 0, -1, false
	})
	return samples[0], acked, segMax
}

// replay is ingest-mixed's correctness check: with the writer stopped
// and every shard quiesced, a fixed sample of queries goes through the
// gateway and must match a cold detector rebuilt over the base corpus,
// the preload and every acknowledged post — a lost acknowledged write
// shows as a mismatch. It returns the sample size and the mismatches.
func (r *runner) replay(st *stack, acked []microblog.Post) (int, int, error) {
	if err := st.cluster.Quiesce(); err != nil {
		return 0, 0, err
	}
	posts := append(append([]microblog.Post(nil), r.preload...), acked...)
	ref := core.NewDetector(st.off.coll, st.off.corpus.ExtendedWith(posts), st.off.online)
	const sampleSize = 200
	d := r.table.drawers(r.w, r.o.seed, phaseReplay, 1)[0]
	seen := map[answerKey]bool{}
	var keys []answerKey
	for len(keys) < sampleSize {
		q, _ := d.next()
		// Every tenth key asks for the baseline.
		k := answerKey{query: q, baseline: len(keys)%10 == 9}
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	o := newOracle(ref, r.table, keys)
	h := newHTTPClient(st.url, 1)
	defer h.close()
	bad := 0
	for _, k := range keys {
		status, body, err := h.post(0, r.table.bodies[k.query], k.baseline)
		if err != nil || o.check(k, status, body) != outOK {
			bad++
		}
	}
	return len(keys), bad, nil
}

// counts tallies a sample set's outcomes.
func counts(samples []sample) (ok, failed, wrong int64) {
	for _, s := range samples {
		switch s.out {
		case outOK:
			ok++
		case outWrong:
			wrong++
		default:
			failed++
		}
	}
	return ok, failed, wrong
}

// tally adds sample sets' attempts and failures to res; a wrong answer
// also makes the run incorrect.
func tally(res *result, sets ...[]sample) {
	for _, set := range sets {
		_, failed, wrong := counts(set)
		res.Attempted += int64(len(set))
		res.Failed += failed + wrong
		if wrong > 0 {
			res.Correct = false
		}
	}
}

// untraced is the end-to-end run on the last round's stack.
func (r *runner) untraced(st *stack) (*result, error) {
	p := r.measure(st, r.dur, repetitions, true, nil)
	res := &result{Correct: true, Metrics: map[string]metric{}}
	tally(res, p.open(), p.closed(), p.writes)
	res.Failed += p.partials
	if r.w.writeRate > 0 {
		n, bad, err := r.replay(st, p.acked)
		if err != nil {
			return nil, err
		}
		res.Attempted += int64(n)
		res.Failed += int64(bad)
		if bad > 0 {
			res.Correct = false
		}
	}

	searchQ := func(q float64) float64 {
		return p.repMedian(func(rp rep) float64 { return ms(percentile(latencies(rp.open, rp.missing), q)) })
	}
	m := res.Metrics
	m["setup_s"] = metric{median(r.setupSecs), "s"}
	m["search_p50_ms"] = metric{searchQ(0.50), "ms"}
	m["search_p90_ms"] = metric{searchQ(0.90), "ms"}
	m["search_peak_qps"] = metric{p.repMedian(func(rp rep) float64 {
		ok, _, _ := counts(rp.closed)
		return float64(ok) / rp.closedWall.Seconds()
	}), "1/s"}
	m["rss_peak_mb"] = metric{p.rssMB, "MB"}
	return res, nil
}

// ingestQuantile returns the q-quantile of batch acknowledgement
// latency in ms: with a writer, over all its batches, from due time;
// without, the median over set-up rounds of the preload batches'
// quantile. The writer's batches are pooled rather than split by
// repetition, which would leave ~150 per repetition.
func (r *runner) ingestQuantile(p *phase, q float64) float64 {
	if r.w.writeRate > 0 {
		return ms(percentile(latencies(p.writes, r.dur), q))
	}
	xs := make([]float64, len(r.preloadAcks))
	for i, acks := range r.preloadAcks {
		xs[i] = ms(percentile(acks, q))
	}
	return median(xs)
}

// traced is the per-layer run on the last (traced) round's stack.
func (r *runner) traced(st *stack, untracedP50 time.Duration) (*result, error) {
	var before snapshot
	var t0 time.Duration
	p := r.measure(st, r.dur/2, 1, false, func() {
		before = takeSnapshot(st)
		t0 = now()
	})
	after := takeSnapshot(st)
	spans := st.rec.since(t0)

	res := &result{Correct: true, Metrics: layerMetrics(r, st, p, spans, before, after)}
	tally(res, p.open(), p.writes)
	res.Failed += p.partials
	lat := latencies(p.open(), p.reps[0].missing)
	m := res.Metrics
	m["tail.search_p99_ms"] = metric{ms(percentile(lat, 0.99)), "ms"}
	m["ingest.ack_ms_p50"] = metric{r.ingestQuantile(p, 0.50), "ms"}
	m["ingest.ack_ms_p99"] = metric{r.ingestQuantile(p, 0.99), "ms"}
	m["trace.overhead_p50_ms"] = metric{ms(percentile(lat, 0.50) - untracedP50), "ms"}
	m["loadgen.noop_late_p99_ms"] = metric{ms(noopLateness(r.w.clients, r.w.rate)), "ms"}
	for _, name := range setupStages {
		m["setup."+name+"_s"] = metric{median(r.stageSecs[name]), "s"}
	}
	path := filepath.Join(r.o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", r.w.name, r.o.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(spans), path)
	return res, nil
}

// noopLateness runs the open-loop generator against a target that does
// nothing, for a second at the workload's rate, and returns
// the p99 of how late it woke: the generator's own error floor.
func noopLateness(clients int, rate float64) time.Duration {
	runtime.GC()
	per := openLoop(clients, rate, time.Second, func(int) (outcome, int, int32, bool) {
		return outOK, 0, 0, false
	})
	return percentile(lateness(flatten(per)), 0.99)
}

// percentile returns the nearest-rank q-quantile (0 for no samples).
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
