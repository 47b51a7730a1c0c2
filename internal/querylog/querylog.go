// Package querylog synthesizes and processes the web-search click log
// that replaces the paper's 998 GB of Bing query logs (May 2014, US).
//
// The generator samples click events from a world.World: a searcher picks
// a topic (weighted by topic search popularity), a keyword within it
// (weighted by keyword popularity), and clicks either one of the topic's
// URLs (core URLs preferred over shared category hubs) or, with a small
// probability, an unrelated URL — the noise the paper's >=50-clicks
// filter exists to remove. A configurable fraction of events are junk
// queries owned by no topic at all.
//
// Events are written as sharded text logs (one "query\turl" line per
// click) and aggregated back with one goroutine per shard, mirroring the
// paper's distributed extraction stage at laptop scale. All byte counts
// and durations are recorded for the Table 9 reproduction.
package querylog

import (
	"bufio"
	"cmp"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/world"
	"repro/internal/xrand"
)

// ClickRecord is one aggregated (query, url) pair with its click count.
type ClickRecord struct {
	Query  string
	URL    string
	Clicks int
}

// GenConfig controls click-log generation.
type GenConfig struct {
	Seed uint64
	// Events is the total number of click events to sample.
	Events int
	// Shards is the number of log files to spread events over.
	Shards int
	// NoiseClickRate is the probability a click lands on a random
	// unrelated URL instead of one of the query's topic URLs.
	NoiseClickRate float64
	// JunkQueryRate is the probability an event uses a junk query that
	// belongs to no topic (misspellings beyond recognition, one-off
	// searches). Junk queries are rare individually, so the minimum-click
	// filter removes them, as in the paper.
	JunkQueryRate float64
	// HubClickRate is the probability a topical click lands on a shared
	// category-hub URL rather than a topic-core URL.
	HubClickRate float64
	// BridgeClickRate scales the probability that a click on a topic's
	// keyword lands on a *related* topic's main URL (a 49ers searcher
	// clicking sfgate.com). Bridge clicks create the weak inter-community
	// edges behind Figure 7's neighboring communities; the effective
	// probability is BridgeClickRate times the relation weight.
	BridgeClickRate float64
}

// DefaultGenConfig returns generation defaults sized for the default
// world (~6k terms): enough events that canonical keywords comfortably
// clear the noise filter while junk does not.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Seed:            7,
		Events:          2_000_000,
		Shards:          8,
		NoiseClickRate:  0.04,
		JunkQueryRate:   0.04,
		HubClickRate:    0.12,
		BridgeClickRate: 0.3,
	}
}

// TinyGenConfig returns a miniature configuration for unit tests.
func TinyGenConfig() GenConfig {
	cfg := DefaultGenConfig()
	cfg.Events = 60_000
	cfg.Shards = 3
	return cfg
}

// Stats records resource consumption of a pipeline stage (Table 9).
type Stats struct {
	Stage        string
	Workers      int
	Duration     time.Duration
	BytesRead    int64
	BytesWritten int64
	Records      int
}

// String renders one Table 9 row.
func (s Stats) String() string {
	return fmt.Sprintf("%-12s workers=%-3d runtime=%-12s read=%-10s write=%-10s records=%d",
		s.Stage, s.Workers, s.Duration.Round(time.Millisecond),
		FormatBytes(s.BytesRead), FormatBytes(s.BytesWritten), s.Records)
}

// FormatBytes renders a byte count in human units.
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// Generator samples click events from a world.
type Generator struct {
	World *world.World
	Cfg   GenConfig

	topicSampler *xrand.Weighted
	kwSamplers   []*xrand.Weighted // per topic, over its keywords
	rng          *xrand.RNG

	// Every keyword text and URL the world can emit is interned to an
	// int32 id once, so sampling and counting touch ints, not strings.
	// urlRank orders the URL ids by their strings.
	queries    interner // keyword texts
	urls       []string // url id -> URL
	urlRank    []int32
	topics     []topicIDs // per topic
	globalURLs []int32    // every topic URL, sorted by string, duplicates kept
}

// topicIDs is one topic's interned keywords and URLs.
type topicIDs struct {
	keywords []int32 // per keyword: query id
	selfURLs []int32 // per keyword: url id of SelfURL (-1 if never clicked)
	urls     []int32 // parallel to Topic.URLs
}

// interner assigns dense int32 ids to distinct strings.
type interner struct {
	strs []string
	ids  map[string]int32
}

func (in *interner) id(s string) int32 {
	if id, ok := in.ids[s]; ok {
		return id
	}
	id := int32(len(in.strs))
	in.ids[s] = id
	in.strs = append(in.strs, s)
	return id
}

// ranks returns each id's position in the string order of strs.
func ranks(strs []string) []int32 {
	order := make([]int32, len(strs))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(strs[a], strs[b]) })
	rank := make([]int32, len(strs))
	for r, id := range order {
		rank[id] = int32(r)
	}
	return rank
}

// NewGenerator prepares the samplers. The generator is not safe for
// concurrent use; shard generation splits RNG streams internally.
func NewGenerator(w *world.World, cfg GenConfig) *Generator {
	rng := xrand.New(cfg.Seed)
	weights := make([]float64, len(w.Topics))
	for i := range w.Topics {
		weights[i] = w.Topics[i].SearchPop
	}
	g := &Generator{
		World:        w,
		Cfg:          cfg,
		rng:          rng,
		topicSampler: xrand.NewWeighted(rng.Split(), weights),
	}
	queries := interner{ids: map[string]int32{}}
	urls := interner{ids: map[string]int32{}}
	var globalURLs []string
	g.kwSamplers = make([]*xrand.Weighted, len(w.Topics))
	g.topics = make([]topicIDs, len(w.Topics))
	for i := range w.Topics {
		kws := w.Topics[i].Keywords
		kwWeights := make([]float64, len(kws))
		ids := topicIDs{
			keywords: make([]int32, len(kws)),
			selfURLs: make([]int32, len(kws)),
			urls:     make([]int32, len(w.Topics[i].URLs)),
		}
		for j := range kws {
			kwWeights[j] = kws[j].SearchPop
			ids.keywords[j] = queries.id(kws[j].Text)
			ids.selfURLs[j] = -1
			if kws[j].SelfClickRate > 0 {
				ids.selfURLs[j] = urls.id(kws[j].SelfURL)
			}
		}
		for j, u := range w.Topics[i].URLs {
			ids.urls[j] = urls.id(u)
		}
		g.kwSamplers[i] = xrand.NewWeighted(rng.Split(), kwWeights)
		g.topics[i] = ids
		globalURLs = append(globalURLs, w.Topics[i].URLs...)
	}
	sort.Strings(globalURLs)
	g.globalURLs = make([]int32, len(globalURLs))
	for i, u := range globalURLs {
		g.globalURLs[i] = urls.id(u)
	}
	g.queries = queries
	g.urls, g.urlRank = urls.strs, ranks(urls.strs)
	return g
}

// samplers bundles the weighted draws one event stream needs. Shard
// goroutines get private clones (shared CDFs, independent RNG streams)
// so concurrent generation never races on sampler state.
type samplers struct {
	topics   *xrand.Weighted
	keywords []*xrand.Weighted
}

// shardSamplers clones the generator's samplers onto fresh RNG streams
// split from the seed.
func (g *Generator) shardSamplers() samplers {
	kws := make([]*xrand.Weighted, len(g.kwSamplers))
	for i, s := range g.kwSamplers {
		kws[i] = s.Clone(g.rng.Split())
	}
	return samplers{topics: g.topicSampler.Clone(g.rng.Split()), keywords: kws}
}

// event samples one click event using the supplied RNG stream.
func (g *Generator) event(rng *xrand.RNG, junkRng *xrand.RNG, smp samplers) (query, url string) {
	q, junk, u := g.draw(rng, junkRng, smp)
	if q < 0 {
		return junk, g.urls[u]
	}
	return g.queries.strs[q], g.urls[u]
}

// draw samples one click event as interned ids: q is a query id, or -1
// for a junk query whose text is returned in junk; u is a url id.
func (g *Generator) draw(rng *xrand.RNG, junkRng *xrand.RNG, smp samplers) (q int32, junk string, u int32) {
	if rng.Bool(g.Cfg.JunkQueryRate) {
		// Junk query: pronounceable nonsense clicking a random URL.
		junk = junkWord(junkRng)
		return -1, junk, xrand.Pick(rng, g.globalURLs)
	}
	ti := smp.topics.Draw()
	topic := &g.World.Topics[ti]
	ids := &g.topics[ti]
	ki := smp.keywords[ti].Draw()
	kw := &topic.Keywords[ki]
	q = ids.keywords[ki]

	switch {
	case kw.SelfClickRate > 0 && rng.Bool(kw.SelfClickRate):
		// Navigational keyword: the click lands on its own destination.
		u = ids.selfURLs[ki]
	case rng.Bool(g.Cfg.NoiseClickRate):
		u = xrand.Pick(rng, g.globalURLs)
	case len(topic.Related) > 0 && rng.Bool(g.Cfg.BridgeClickRate):
		// Related-topic click: pick a relation (stronger relations more
		// often) and visit that topic's primary destination.
		rel := topic.Related[rng.Intn(len(topic.Related))]
		if rng.Bool(rel.Weight) {
			u = g.topics[rel.ID].urls[0]
		} else {
			u = ids.urls[rng.Intn(topic.NumCoreURLs)]
		}
	case len(ids.urls) > topic.NumCoreURLs && rng.Bool(g.Cfg.HubClickRate):
		u = ids.urls[topic.NumCoreURLs+rng.Intn(len(ids.urls)-topic.NumCoreURLs)]
	default:
		u = ids.urls[rng.Intn(topic.NumCoreURLs)]
	}
	return q, "", u
}

// junkWord produces a throwaway query string.
func junkWord(rng *xrand.RNG) string {
	letters := "abcdefghijklmnopqrstuvwxyz"
	var buf [12]byte
	b := buf[:5+rng.Intn(8)]
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}

// Generate writes the sharded click log under dir (created if needed).
// Shards are generated concurrently, one goroutine per shard, each with
// an independent RNG stream split from the seed.
func (g *Generator) Generate(dir string) (Stats, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Stats{}, fmt.Errorf("querylog: create dir: %w", err)
	}
	perShard := g.Cfg.Events / g.Cfg.Shards
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		total    int64
		written  int64
		firstErr error
	)
	for s := 0; s < g.Cfg.Shards; s++ {
		events := perShard
		if s == g.Cfg.Shards-1 {
			events = g.Cfg.Events - perShard*(g.Cfg.Shards-1)
		}
		rng := g.rng.Split()
		junk := g.rng.Split()
		smp := g.shardSamplers()
		path := filepath.Join(dir, fmt.Sprintf("shard-%04d.log", s))
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, err := g.writeShard(path, events, rng, junk, smp)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			written += n
			total += int64(events)
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return Stats{}, firstErr
	}
	return Stats{
		Stage:        "generate",
		Workers:      g.Cfg.Shards,
		Duration:     time.Since(start),
		BytesWritten: written,
		Records:      int(total),
	}, nil
}

func (g *Generator) writeShard(path string, events int, rng, junk *xrand.RNG, smp samplers) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("querylog: create shard: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var n int64
	for i := 0; i < events; i++ {
		q, u := g.event(rng, junk, smp)
		written, err := fmt.Fprintf(w, "%s\t%s\n", q, u)
		if err != nil {
			f.Close()
			return n, fmt.Errorf("querylog: write shard: %w", err)
		}
		n += int64(written)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}

// GenerateRecords samples the configured number of events entirely in
// memory and returns them pre-aggregated, sorted by (Query, URL). Used
// by tests and small experiments that do not need the sharded file
// path.
func (g *Generator) GenerateRecords() []ClickRecord {
	rng := g.rng.Split()
	junk := g.rng.Split()
	// The in-memory path draws from the generator's own sampler streams,
	// preserving the exact event sequence of the seed implementation.
	smp := samplers{topics: g.topicSampler, keywords: g.kwSamplers}
	// Junk queries get ids past the keywords' as they are drawn; a junk
	// word that spells a keyword shares the keyword's id.
	queries := interner{strs: slices.Clip(g.queries.strs), ids: maps.Clone(g.queries.ids)}
	// qid<<32 | uid -> clicks. The default world yields about one
	// distinct pair per nine events at 600k events, so Events/8 slots
	// spare the map its growth rehashes.
	counts := make(map[uint64]int32, g.Cfg.Events/8)
	for i := 0; i < g.Cfg.Events; i++ {
		q, text, u := g.draw(rng, junk, smp)
		if q < 0 {
			q = queries.id(text)
		}
		counts[uint64(q)<<32|uint64(u)]++
	}

	// Emit in (Query, URL) string order: ids map to ranks, so the sort
	// compares integers.
	queryRank := ranks(queries.strs)
	type keyed struct {
		key    uint64 // query rank << 32 | url rank
		qid    int32
		uid    int32
		clicks int32
	}
	recs := make([]keyed, 0, len(counts))
	for k, c := range counts {
		qid, uid := int32(k>>32), int32(uint32(k))
		recs = append(recs, keyed{uint64(queryRank[qid])<<32 | uint64(g.urlRank[uid]), qid, uid, c})
	}
	slices.SortFunc(recs, func(a, b keyed) int { return cmp.Compare(a.key, b.key) })
	out := make([]ClickRecord, len(recs))
	for i, r := range recs {
		out[i] = ClickRecord{Query: queries.strs[r.qid], URL: g.urls[r.uid], Clicks: int(r.clicks)}
	}
	return out
}

// Log is the aggregated, noise-filtered click log: for every surviving
// query, its clicks per URL. This is the input to similarity-graph
// extraction (Section 4.1).
type Log struct {
	queries []string
	vectors []map[string]int // parallel to queries: url -> clicks
	totals  []int
	index   map[string]int
}

// NumQueries returns the number of distinct surviving queries.
func (l *Log) NumQueries() int { return len(l.queries) }

// Queries returns the surviving query strings in sorted order.
func (l *Log) Queries() []string { return l.queries }

// Vector returns the click vector (url -> clicks) for a query, or nil.
func (l *Log) Vector(query string) map[string]int {
	if i, ok := l.index[query]; ok {
		return l.vectors[i]
	}
	return nil
}

// Total returns the total clicks recorded for a query.
func (l *Log) Total(query string) int {
	if i, ok := l.index[query]; ok {
		return l.totals[i]
	}
	return 0
}

// Has reports whether the query survived aggregation and filtering.
func (l *Log) Has(query string) bool {
	_, ok := l.index[query]
	return ok
}

// AggregateRecords folds pre-aggregated records into a Log, dropping
// queries whose total clicks fall below minClicks (the paper removes
// queries appearing fewer than 50 times per month). Totals come first,
// so no click vector is built for a query the filter drops.
func AggregateRecords(recs []ClickRecord, minClicks int) *Log {
	totals := map[string]int{}
	for _, r := range recs {
		totals[r.Query] += r.Clicks
	}
	byQuery := map[string]map[string]int{}
	for _, r := range recs {
		if totals[r.Query] < minClicks {
			continue
		}
		m := byQuery[r.Query]
		if m == nil {
			m = map[string]int{}
			byQuery[r.Query] = m
		}
		m[r.URL] += r.Clicks
	}
	return buildLog(byQuery, totals, minClicks)
}

// AggregateShards streams every shard file in dir concurrently (one
// goroutine per shard), merges the partial aggregates, applies the
// minClicks filter, and reports resource statistics.
func AggregateShards(dir string, minClicks int) (*Log, Stats, error) {
	start := time.Now()
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*.log"))
	if err != nil {
		return nil, Stats{}, err
	}
	if len(paths) == 0 {
		return nil, Stats{}, fmt.Errorf("querylog: no shards in %s", dir)
	}
	sort.Strings(paths)

	type partial struct {
		byQuery map[string]map[string]int
		bytes   int64
		records int
		err     error
	}
	parts := make([]partial, len(paths))
	var wg sync.WaitGroup
	for i, p := range paths {
		wg.Add(1)
		go func(i int, path string) {
			defer wg.Done()
			parts[i] = aggregateShard(path)
		}(i, p)
	}
	wg.Wait()

	merged := map[string]map[string]int{}
	totals := map[string]int{}
	var bytesRead int64
	records := 0
	for _, p := range parts {
		if p.err != nil {
			return nil, Stats{}, p.err
		}
		bytesRead += p.bytes
		records += p.records
		for q, urls := range p.byQuery {
			m := merged[q]
			if m == nil {
				merged[q] = urls
				for _, c := range urls {
					totals[q] += c
				}
				continue
			}
			for u, c := range urls {
				m[u] += c
				totals[q] += c
			}
		}
	}
	log := buildLog(merged, totals, minClicks)
	return log, Stats{
		Stage:     "extraction",
		Workers:   len(paths),
		Duration:  time.Since(start),
		BytesRead: bytesRead,
		Records:   records,
	}, nil
}

func aggregateShard(path string) (p struct {
	byQuery map[string]map[string]int
	bytes   int64
	records int
	err     error
}) {
	f, err := os.Open(path)
	if err != nil {
		p.err = fmt.Errorf("querylog: open shard: %w", err)
		return p
	}
	defer f.Close()
	p.byQuery = map[string]map[string]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		p.bytes += int64(len(line)) + 1
		tab := strings.IndexByte(line, '\t')
		if tab <= 0 || tab == len(line)-1 {
			continue // malformed line: skip, do not abort the shard
		}
		q, u := line[:tab], line[tab+1:]
		m := p.byQuery[q]
		if m == nil {
			m = map[string]int{}
			p.byQuery[q] = m
		}
		m[u]++
		p.records++
	}
	if err := sc.Err(); err != nil {
		p.err = fmt.Errorf("querylog: scan shard %s: %w", path, err)
	}
	return p
}

func buildLog(byQuery map[string]map[string]int, totals map[string]int, minClicks int) *Log {
	queries := make([]string, 0, len(byQuery))
	for q, total := range totals {
		if total >= minClicks {
			queries = append(queries, q)
		}
	}
	sort.Strings(queries)
	l := &Log{
		queries: queries,
		vectors: make([]map[string]int, len(queries)),
		totals:  make([]int, len(queries)),
		index:   make(map[string]int, len(queries)),
	}
	for i, q := range queries {
		l.vectors[i] = byQuery[q]
		l.totals[i] = totals[q]
		l.index[q] = i
	}
	return l
}

// Scale returns a copy of the log with every click count multiplied by
// f and rounded down; entries that reach zero clicks are dropped. It
// implements the exponential decay of a weekly refresh: last week's
// behaviour still counts, but less than this week's.
func (l *Log) Scale(f float64) *Log {
	if f < 0 {
		f = 0
	}
	byQuery := map[string]map[string]int{}
	totals := map[string]int{}
	for i, q := range l.queries {
		m := map[string]int{}
		for u, c := range l.vectors[i] {
			scaled := int(float64(c) * f)
			if scaled > 0 {
				m[u] = scaled
				totals[q] += scaled
			}
		}
		if len(m) > 0 {
			byQuery[q] = m
		}
	}
	return buildLog(byQuery, totals, 1)
}

// Merge combines two aggregated logs (summing per-URL clicks) and
// re-applies the minimum-click filter. It is the heart of the paper's
// weekly refresh: the offline stage "runs weekly on a production
// cluster", folding the newest week of behaviour into the collection.
func Merge(a, b *Log, minClicks int) *Log {
	byQuery := map[string]map[string]int{}
	totals := map[string]int{}
	add := func(l *Log) {
		for i, q := range l.queries {
			m := byQuery[q]
			if m == nil {
				m = map[string]int{}
				byQuery[q] = m
			}
			for u, c := range l.vectors[i] {
				m[u] += c
				totals[q] += c
			}
		}
	}
	add(a)
	add(b)
	return buildLog(byQuery, totals, minClicks)
}
