package querylog

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/world"
	"repro/internal/xrand"
)

// referenceGenerateRecords is GenerateRecords as it stood before string
// interning: events are sampled as strings, counted in a map keyed by
// the (query, url) pair, and sorted with string comparisons. It is the
// oracle the interned path must match record for record.
func referenceGenerateRecords(g *Generator) []ClickRecord {
	globalURLs := referenceGlobalURLs(g.World)
	rng := g.rng.Split()
	junk := g.rng.Split()
	// The in-memory path draws from the generator's own sampler streams,
	// preserving the exact event sequence of the seed implementation.
	counts := make(map[[2]string]int)
	smp := samplers{topics: g.topicSampler, keywords: g.kwSamplers}
	for i := 0; i < g.Cfg.Events; i++ {
		q, u := referenceEvent(g, globalURLs, rng, junk, smp)
		counts[[2]string{q, u}]++
	}
	out := make([]ClickRecord, 0, len(counts))
	for k, c := range counts {
		out = append(out, ClickRecord{Query: k[0], URL: k[1], Clicks: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Query != out[j].Query {
			return out[i].Query < out[j].Query
		}
		return out[i].URL < out[j].URL
	})
	return out
}

// referenceGlobalURLs is the sorted multiset of every topic URL that
// noise and junk clicks pick from.
func referenceGlobalURLs(w *world.World) []string {
	var urls []string
	for i := range w.Topics {
		urls = append(urls, w.Topics[i].URLs...)
	}
	sort.Strings(urls)
	return urls
}

// referenceEvent samples one click event as strings, with the same RNG
// call sequence the interned draw must reproduce.
func referenceEvent(g *Generator, globalURLs []string, rng *xrand.RNG, junkRng *xrand.RNG, smp samplers) (query, url string) {
	if rng.Bool(g.Cfg.JunkQueryRate) {
		// Junk query: pronounceable nonsense clicking a random URL.
		query = junkWord(junkRng)
		url = xrand.Pick(rng, globalURLs)
		return query, url
	}
	ti := smp.topics.Draw()
	topic := &g.World.Topics[ti]
	ki := smp.keywords[ti].Draw()
	kw := &topic.Keywords[ki]
	query = kw.Text

	switch {
	case kw.SelfClickRate > 0 && rng.Bool(kw.SelfClickRate):
		// Navigational keyword: the click lands on its own destination.
		url = kw.SelfURL
	case rng.Bool(g.Cfg.NoiseClickRate):
		url = xrand.Pick(rng, globalURLs)
	case len(topic.Related) > 0 && rng.Bool(g.Cfg.BridgeClickRate):
		// Related-topic click: pick a relation (stronger relations more
		// often) and visit that topic's primary destination.
		rel := topic.Related[rng.Intn(len(topic.Related))]
		if rng.Bool(rel.Weight) {
			url = g.World.Topic(rel.ID).URLs[0]
		} else {
			url = topic.URLs[rng.Intn(topic.NumCoreURLs)]
		}
	case len(topic.URLs) > topic.NumCoreURLs && rng.Bool(g.Cfg.HubClickRate):
		url = topic.URLs[topic.NumCoreURLs+rng.Intn(len(topic.URLs)-topic.NumCoreURLs)]
	default:
		url = topic.URLs[rng.Intn(topic.NumCoreURLs)]
	}
	return query, url
}

// TestGenerateRecordsMatchesReference pins the interned generator to
// the string-keyed oracle: identical records, in identical order, for
// the tiny and perfbench-sized event counts, several seeds, and the
// edge rates that switch whole branches of the sampler on or off.
func TestGenerateRecordsMatchesReference(t *testing.T) {
	w := world.Build(world.TinyConfig())
	type variant struct {
		name string
		cfg  func(*GenConfig)
	}
	variants := []variant{
		{"tiny", func(*GenConfig) {}},
		{"all-junk", func(c *GenConfig) { c.JunkQueryRate = 1 }},
		{"no-junk", func(c *GenConfig) { c.JunkQueryRate = 0 }},
		{"no-bridge", func(c *GenConfig) { c.BridgeClickRate = 0 }},
	}
	for _, seed := range []uint64{1, 7, 99} {
		variants = append(variants, variant{"600k", func(c *GenConfig) {
			c.Seed = seed
			c.Events = 600_000
		}})
	}
	if testing.Short() {
		variants = variants[:5]
	}
	for _, v := range variants {
		cfg := TinyGenConfig()
		v.cfg(&cfg)
		got := NewGenerator(w, cfg).GenerateRecords()
		want := referenceGenerateRecords(NewGenerator(w, cfg))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s seed %d: %d records, reference %d; first difference %s",
				v.name, cfg.Seed, len(got), len(want), firstRecordDiff(got, want))
		}
	}
}

// firstRecordDiff describes where two record lists first disagree.
func firstRecordDiff(got, want []ClickRecord) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("record %d: %+v vs %+v", i, got[i], want[i])
		}
	}
	return "at the tail"
}

// referenceAggregateRecords is AggregateRecords as it stood before the
// totals-first pass: a click vector for every query, filtered after.
func referenceAggregateRecords(recs []ClickRecord, minClicks int) *Log {
	byQuery := map[string]map[string]int{}
	totals := map[string]int{}
	for _, r := range recs {
		m := byQuery[r.Query]
		if m == nil {
			m = map[string]int{}
			byQuery[r.Query] = m
		}
		m[r.URL] += r.Clicks
		totals[r.Query] += r.Clicks
	}
	return buildLog(byQuery, totals, minClicks)
}

// TestAggregateRecordsMatchesReference pins the totals-first aggregation
// to the build-then-filter oracle, thresholds at and around the edges
// included.
func TestAggregateRecordsMatchesReference(t *testing.T) {
	w := world.Build(world.TinyConfig())
	generated := NewGenerator(w, TinyGenConfig()).GenerateRecords()
	handmade := []ClickRecord{{"a", "u1", 3}, {"b", "u1", 0}, {"a", "u2", 2}, {"c", "u3", 5}, {"a", "u1", 1}}
	for _, recs := range [][]ClickRecord{generated, handmade, nil} {
		for _, minClicks := range []int{-1, 0, 1, 5, 6, 50} {
			got, want := AggregateRecords(recs, minClicks), referenceAggregateRecords(recs, minClicks)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d records, minClicks %d: %d queries, reference %d",
					len(recs), minClicks, got.NumQueries(), want.NumQueries())
			}
		}
	}
}
