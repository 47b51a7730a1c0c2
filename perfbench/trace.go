package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/expertise"
	"repro/internal/microblog"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/world"
)

// start is the zero of every timestamp the benchmark records, so
// client samples and decorator spans share one monotonic clock.
var start = time.Now()

// now returns the monotonic time since start.
func now() time.Duration { return time.Since(start) }

// Span kinds. A core span is one detector call (serve missed its
// cache); scatter and gather spans are one shard's Search/SearchStats
// and View.Stats inside it; an ingest span is one shard's IngestBatch.
const (
	kindCore    = "core"
	kindScatter = "shard.scatter"
	kindGather  = "shard.gather"
	kindIngest  = "shard.ingest"
)

// span is one timed call across a layer boundary. Parent links a
// shard span to the core span whose context carried it.
type span struct {
	ID       uint64        `json:"id"`
	Parent   uint64        `json:"parent,omitempty"`
	Kind     string        `json:"kind"`
	Shard    int           `json:"shard"`
	Query    string        `json:"query,omitempty"`
	Baseline bool          `json:"baseline,omitempty"`
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
	// Core spans only: the detector's own trace of the query.
	Expand  time.Duration `json:"expand_ns,omitempty"`
	Terms   int           `json:"terms,omitempty"`
	Matched int           `json:"matched,omitempty"`
	Err     bool          `json:"err,omitempty"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{} }

func (r *recorder) id() uint64 { return r.next.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// since returns the spans that started at or after t.
func (r *recorder) since(t time.Duration) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Start >= t {
			out = append(out, s)
		}
	}
	return out
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parentKey carries the core span's ID down to the shard calls.
type parentKey struct{}

func parentOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(parentKey{}).(uint64)
	return id
}

// tracedDetector times every detector call serve makes. It forwards
// every optional serve interface the sharded detector implements, so
// serve takes the same code path as over the bare detector.
type tracedDetector struct {
	d   *core.ShardedLiveDetector
	rec *recorder
}

var (
	_ serve.ContextBackend   = (*tracedDetector)(nil)
	_ serve.VectorBackend    = (*tracedDetector)(nil)
	_ serve.PartialReporter  = (*tracedDetector)(nil)
	_ serve.FailoverReporter = (*tracedDetector)(nil)
	_ serve.ReshardReporter  = (*tracedDetector)(nil)
)

func traceDetector(d *core.ShardedLiveDetector, rec *recorder) *tracedDetector {
	return &tracedDetector{d: d, rec: rec}
}

// search runs one detector call under a core span whose ID rides ctx.
func (t *tracedDetector) search(ctx context.Context, query string, baseline bool,
	call func(ctx context.Context) ([]expertise.Expert, core.SearchTrace, error)) ([]expertise.Expert, core.SearchTrace, error) {
	id := t.rec.id()
	begin := now()
	experts, tr, err := call(context.WithValue(ctx, parentKey{}, id))
	t.rec.add(span{
		ID: id, Kind: kindCore, Shard: -1, Query: query, Baseline: baseline,
		Start: begin, End: now(),
		Expand: tr.ExpandDuration, Terms: len(tr.Expansion), Matched: tr.MatchedTweets,
		Err: err != nil,
	})
	return experts, tr, err
}

func (t *tracedDetector) Search(query string) ([]expertise.Expert, core.SearchTrace) {
	experts, tr, _ := t.search(context.Background(), query, false, func(ctx context.Context) ([]expertise.Expert, core.SearchTrace, error) {
		return t.d.SearchContext(ctx, query)
	})
	return experts, tr
}

func (t *tracedDetector) SearchBaseline(query string) []expertise.Expert {
	experts, _ := t.SearchBaselineContext(context.Background(), query)
	return experts
}

func (t *tracedDetector) SearchContext(ctx context.Context, query string) ([]expertise.Expert, core.SearchTrace, error) {
	return t.search(ctx, query, false, func(ctx context.Context) ([]expertise.Expert, core.SearchTrace, error) {
		return t.d.SearchContext(ctx, query)
	})
}

func (t *tracedDetector) SearchBaselineContext(ctx context.Context, query string) ([]expertise.Expert, error) {
	experts, _, err := t.search(ctx, query, true, func(ctx context.Context) ([]expertise.Expert, core.SearchTrace, error) {
		experts, err := t.d.SearchBaselineContext(ctx, query)
		return experts, core.SearchTrace{Query: query}, err
	})
	return experts, err
}

func (t *tracedDetector) Epoch() uint64                       { return t.d.Epoch() }
func (t *tracedDetector) EpochVector(dst []uint64) []uint64   { return t.d.EpochVector(dst) }
func (t *tracedDetector) PartialStats() (partial, errs int64) { return t.d.PartialStats() }
func (t *tracedDetector) Failovers() int64                    { return t.d.Failovers() }
func (t *tracedDetector) ReshardStats() (shard.MigrationStats, bool) {
	return t.d.ReshardStats()
}

// tracedShard times one shard's calls. EpochIsLocal and Failovers
// answer exactly as shard.Cluster would for the wrapped backend when
// it lacks those interfaces (false, 0).
type tracedShard struct {
	b     shard.Backend
	shard int
	rec   *recorder
}

// tracedStatser is a tracedShard over a backend that also answers
// the fused search+stats call; the core detector type-asserts
// shard.SearchStatser, so the decorator offers it only when the
// wrapped backend does.
type tracedStatser struct {
	*tracedShard
	ss shard.SearchStatser
}

var (
	_ shard.Backend          = (*tracedShard)(nil)
	_ shard.EpochLocality    = (*tracedShard)(nil)
	_ shard.FailoverReporter = (*tracedShard)(nil)
	_ shard.SearchStatser    = (*tracedStatser)(nil)
)

// traceShard wraps shard i's backend.
func traceShard(b shard.Backend, i int, rec *recorder) shard.Backend {
	t := &tracedShard{b: b, shard: i, rec: rec}
	if ss, ok := b.(shard.SearchStatser); ok {
		return &tracedStatser{tracedShard: t, ss: ss}
	}
	return t
}

// scatter records a scatter span and wraps the returned view so the
// gather call is timed under the same parent.
func (t *tracedShard) scatter(ctx context.Context, begin time.Duration, v shard.View, err error) shard.View {
	parent := parentOf(ctx)
	t.rec.add(span{ID: t.rec.id(), Parent: parent, Kind: kindScatter, Shard: t.shard, Start: begin, End: now(), Err: err != nil})
	if v == nil {
		return nil
	}
	return &tracedView{v: v, parent: parent, shard: t.shard, rec: t.rec}
}

func (t *tracedShard) Search(ctx context.Context, terms []string, extended bool, raw []expertise.RawCandidate) ([]expertise.RawCandidate, int, shard.View, error) {
	begin := now()
	rows, matched, v, err := t.b.Search(ctx, terms, extended, raw)
	return rows, matched, t.scatter(ctx, begin, v, err), err
}

func (t *tracedStatser) SearchStats(ctx context.Context, terms []string, extended bool, raw []expertise.RawCandidate, stats []expertise.UserStats) ([]expertise.RawCandidate, int, []expertise.UserStats, shard.View, error) {
	begin := now()
	rows, matched, rowStats, v, err := t.ss.SearchStats(ctx, terms, extended, raw, stats)
	return rows, matched, rowStats, t.scatter(ctx, begin, v, err), err
}

func (t *tracedShard) Ingest(p microblog.Post) (microblog.TweetID, error) {
	begin := now()
	id, err := t.b.Ingest(p)
	t.rec.add(span{ID: t.rec.id(), Kind: kindIngest, Shard: t.shard, Start: begin, End: now(), Err: err != nil})
	return id, err
}

func (t *tracedShard) IngestBatch(posts []microblog.Post) error {
	begin := now()
	err := t.b.IngestBatch(posts)
	t.rec.add(span{ID: t.rec.id(), Kind: kindIngest, Shard: t.shard, Start: begin, End: now(), Err: err != nil})
	return err
}

func (t *tracedShard) Epoch() (uint64, error) { return t.b.Epoch() }
func (t *tracedShard) Quiesce() error         { return t.b.Quiesce() }
func (t *tracedShard) Close() error           { return t.b.Close() }

func (t *tracedShard) EpochIsLocal() bool {
	el, ok := t.b.(shard.EpochLocality)
	return ok && el.EpochIsLocal()
}

func (t *tracedShard) Failovers() int64 {
	if fr, ok := t.b.(shard.FailoverReporter); ok {
		return fr.Failovers()
	}
	return 0
}

// tracedView times the gather-stage denominator fetch.
type tracedView struct {
	v      shard.View
	parent uint64
	shard  int
	rec    *recorder
}

func (v *tracedView) Stats(ctx context.Context, users []world.UserID, dst []expertise.UserStats) ([]expertise.UserStats, error) {
	begin := now()
	out, err := v.v.Stats(ctx, users, dst)
	v.rec.add(span{ID: v.rec.id(), Parent: v.parent, Kind: kindGather, Shard: v.shard, Start: begin, End: now(), Err: err != nil})
	return out, err
}

func (v *tracedView) Release() { v.v.Release() }
