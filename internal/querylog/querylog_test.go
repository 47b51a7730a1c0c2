package querylog

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/world"
)

func tinySetup(t testing.TB) (*world.World, *Generator) {
	t.Helper()
	w := world.Build(world.TinyConfig())
	g := NewGenerator(w, TinyGenConfig())
	return w, g
}

func TestGenerateRecordsDeterministic(t *testing.T) {
	w := world.Build(world.TinyConfig())
	a := NewGenerator(w, TinyGenConfig()).GenerateRecords()
	b := NewGenerator(w, TinyGenConfig()).GenerateRecords()
	if len(a) != len(b) {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGenerateRecordsCoverVocabulary(t *testing.T) {
	w, g := tinySetup(t)
	recs := g.GenerateRecords()
	seen := map[string]bool{}
	for _, r := range recs {
		seen[r.Query] = true
		if r.Clicks <= 0 {
			t.Fatalf("record with non-positive clicks: %+v", r)
		}
	}
	// The head anchor keyword must be searched.
	if !seen["49ers"] {
		t.Error("49ers never searched")
	}
	covered := 0
	for _, kw := range w.Vocabulary() {
		if seen[kw] {
			covered++
		}
	}
	if frac := float64(covered) / float64(len(w.Vocabulary())); frac < 0.5 {
		t.Errorf("only %.0f%% of vocabulary searched", 100*frac)
	}
}

func TestAggregateRecordsFiltering(t *testing.T) {
	recs := []ClickRecord{
		{"49ers", "49ers.com", 30},
		{"49ers", "espn.com", 25},
		{"rare query", "x.com", 3},
	}
	log := AggregateRecords(recs, 50)
	if !log.Has("49ers") {
		t.Error("49ers (55 clicks) filtered out at min 50")
	}
	if log.Has("rare query") {
		t.Error("rare query (3 clicks) survived min 50")
	}
	if got := log.Total("49ers"); got != 55 {
		t.Errorf("Total(49ers) = %d, want 55", got)
	}
	v := log.Vector("49ers")
	if v["49ers.com"] != 30 || v["espn.com"] != 25 {
		t.Errorf("vector wrong: %v", v)
	}
	if log.Vector("rare query") != nil {
		t.Error("filtered query has a vector")
	}
	if log.Total("absent") != 0 {
		t.Error("Total of absent query should be 0")
	}
}

func TestAggregateRecordsMergesDuplicates(t *testing.T) {
	recs := []ClickRecord{
		{"nfl", "nfl.com", 10},
		{"nfl", "nfl.com", 5},
		{"nfl", "espn.com", 1},
	}
	log := AggregateRecords(recs, 1)
	if got := log.Vector("nfl")["nfl.com"]; got != 15 {
		t.Errorf("duplicate records not merged: %d", got)
	}
	if log.NumQueries() != 1 {
		t.Errorf("NumQueries = %d, want 1", log.NumQueries())
	}
}

func TestJunkFilteredAtRealisticThreshold(t *testing.T) {
	w, _ := tinySetup(t)
	g := NewGenerator(w, TinyGenConfig())
	recs := g.GenerateRecords()
	log := AggregateRecords(recs, 5)
	// Junk queries are one-off nonsense; at minClicks=5 the surviving
	// vocabulary should be dominated by real keywords.
	known, unknown := 0, 0
	for _, q := range log.Queries() {
		if _, ok := w.KeywordOwner(q); ok {
			known++
		} else {
			unknown++
		}
	}
	if known == 0 {
		t.Fatal("no known keywords survived")
	}
	if unknown > known/5 {
		t.Errorf("too much junk survived: %d junk vs %d known", unknown, known)
	}
}

func TestShardRoundTrip(t *testing.T) {
	w, _ := tinySetup(t)
	cfg := TinyGenConfig()
	cfg.Events = 20_000
	g := NewGenerator(w, cfg)
	dir := t.TempDir()
	stats, err := g.Generate(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != cfg.Events {
		t.Errorf("generated %d records, want %d", stats.Records, cfg.Events)
	}
	if stats.BytesWritten <= 0 {
		t.Error("no bytes written")
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "shard-*.log"))
	if len(paths) != cfg.Shards {
		t.Fatalf("wrote %d shards, want %d", len(paths), cfg.Shards)
	}

	log, aggStats, err := AggregateShards(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if aggStats.Records != cfg.Events {
		t.Errorf("aggregated %d records, want %d", aggStats.Records, cfg.Events)
	}
	if aggStats.BytesRead != stats.BytesWritten {
		t.Errorf("read %d bytes, wrote %d", aggStats.BytesRead, stats.BytesWritten)
	}
	if log.NumQueries() == 0 {
		t.Fatal("no queries aggregated")
	}
	// Totals must sum to the number of events.
	sum := 0
	for _, q := range log.Queries() {
		sum += log.Total(q)
	}
	if sum != cfg.Events {
		t.Errorf("click totals sum to %d, want %d", sum, cfg.Events)
	}
}

func TestAggregateShardsMissingDir(t *testing.T) {
	_, _, err := AggregateShards(filepath.Join(t.TempDir(), "nope"), 1)
	if err == nil {
		t.Fatal("expected error for missing shard dir")
	}
}

func TestAggregateShardSkipsMalformedLines(t *testing.T) {
	dir := t.TempDir()
	content := "good query\turl.com\nmalformed-no-tab\n\ttrailing\nleading\t\nq\tu\n"
	if err := os.WriteFile(filepath.Join(dir, "shard-0000.log"), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	log, stats, err := AggregateShards(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 2 {
		t.Errorf("parsed %d records, want 2 (malformed skipped)", stats.Records)
	}
	if !log.Has("good query") || !log.Has("q") {
		t.Error("valid records lost")
	}
}

func TestQueriesSorted(t *testing.T) {
	_, g := tinySetup(t)
	log := AggregateRecords(g.GenerateRecords(), 3)
	qs := log.Queries()
	for i := 1; i < len(qs); i++ {
		if qs[i-1] >= qs[i] {
			t.Fatalf("queries not sorted at %d: %q >= %q", i, qs[i-1], qs[i])
		}
	}
}

func TestHeadKeywordDominates(t *testing.T) {
	w, g := tinySetup(t)
	log := AggregateRecords(g.GenerateRecords(), 1)
	// Within the 49ers topic the head keyword must collect more clicks
	// than the rarest variant (SearchPop ordering).
	id, _ := w.KeywordOwner("49ers")
	topic := w.Topic(id)
	head := log.Total(topic.Keywords[0].Text)
	last := log.Total(topic.Keywords[len(topic.Keywords)-1].Text)
	if head <= last {
		t.Errorf("head keyword %q (%d clicks) should out-collect tail %q (%d)",
			topic.Keywords[0].Text, head, topic.Keywords[len(topic.Keywords)-1].Text, last)
	}
}

func TestClicksConcentrateOnTopicURLs(t *testing.T) {
	w, g := tinySetup(t)
	log := AggregateRecords(g.GenerateRecords(), 1)
	id, _ := w.KeywordOwner("49ers")
	topic := w.Topic(id)
	vec := log.Vector("49ers")
	if vec == nil {
		t.Fatal("no vector for 49ers")
	}
	own := map[string]bool{}
	for _, u := range topic.URLs {
		own[u] = true
	}
	onTopic, total := 0, 0
	for u, c := range vec {
		total += c
		if own[u] {
			onTopic += c
		}
	}
	// Bridge clicks intentionally divert some mass to related topics'
	// URLs, so the bar is 70%, not higher.
	if frac := float64(onTopic) / float64(total); frac < 0.7 {
		t.Errorf("only %.0f%% of 49ers clicks on topic URLs", 100*frac)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{512, "512 B"},
		{2048, "2.00 KB"},
		{3 << 20, "3.00 MB"},
		{5 << 30, "5.00 GB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.in); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Stage: "extraction", Workers: 8, Records: 100}
	out := s.String()
	if out == "" {
		t.Fatal("empty Stats string")
	}
}

// BenchmarkGenerateRecords samples perfbench's click log: the default
// world and 600k events, the setup.querylog_s stage minus aggregation.
func BenchmarkGenerateRecords(b *testing.B) {
	w := world.Build(world.DefaultConfig())
	cfg := DefaultGenConfig()
	cfg.Events = 600_000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewGenerator(w, cfg)
		_ = g.GenerateRecords()
	}
}

func BenchmarkAggregateRecords(b *testing.B) {
	w := world.Build(world.TinyConfig())
	recs := NewGenerator(w, TinyGenConfig()).GenerateRecords()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = AggregateRecords(recs, 5)
	}
}

func TestScale(t *testing.T) {
	recs := []ClickRecord{
		{"a", "u1", 10},
		{"a", "u2", 1},
		{"b", "u1", 2},
	}
	log := AggregateRecords(recs, 1)
	half := log.Scale(0.5)
	if got := half.Vector("a")["u1"]; got != 5 {
		t.Errorf("scaled a/u1 = %d, want 5", got)
	}
	// 1 * 0.5 rounds down to 0 and is dropped.
	if _, ok := half.Vector("a")["u2"]; ok {
		t.Error("zero-click entry survived scaling")
	}
	if half.Total("b") != 1 {
		t.Errorf("scaled b total = %d, want 1", half.Total("b"))
	}
	// Scale(0) empties the log.
	if log.Scale(0).NumQueries() != 0 {
		t.Error("Scale(0) kept queries")
	}
	// Source untouched.
	if log.Total("a") != 11 {
		t.Error("Scale mutated source")
	}
}

func TestMerge(t *testing.T) {
	a := AggregateRecords([]ClickRecord{
		{"shared", "u1", 10},
		{"only-a", "u2", 30},
	}, 1)
	b := AggregateRecords([]ClickRecord{
		{"shared", "u1", 5},
		{"shared", "u3", 2},
		{"only-b", "u4", 40},
	}, 1)
	m := Merge(a, b, 1)
	if got := m.Vector("shared")["u1"]; got != 15 {
		t.Errorf("merged shared/u1 = %d, want 15", got)
	}
	if m.Total("shared") != 17 {
		t.Errorf("merged shared total = %d, want 17", m.Total("shared"))
	}
	if !m.Has("only-a") || !m.Has("only-b") {
		t.Error("merge lost one-sided queries")
	}
	// Filter re-applied on the merged totals.
	strict := Merge(a, b, 20)
	if strict.Has("shared") {
		t.Error("17-click query survived minClicks=20 after merge")
	}
	if !strict.Has("only-a") || !strict.Has("only-b") {
		t.Error("merge filter dropped qualifying queries")
	}
}

func TestMergeWithDecayModelsRefresh(t *testing.T) {
	w, _ := tinySetup(t)
	cfgOld := TinyGenConfig()
	cfgNew := TinyGenConfig()
	cfgNew.Seed = 99
	oldLog := AggregateRecords(NewGenerator(w, cfgOld).GenerateRecords(), 1)
	newLog := AggregateRecords(NewGenerator(w, cfgNew).GenerateRecords(), 1)
	merged := Merge(oldLog.Scale(0.5), newLog, 5)
	if merged.NumQueries() == 0 {
		t.Fatal("refresh produced empty log")
	}
	// The head keyword accumulates from both weeks.
	if merged.Total("49ers") <= newLog.Total("49ers") {
		t.Error("decayed history did not contribute clicks")
	}
}
