package simgraph

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/querylog"
	"repro/internal/world"
)

// paperLog reproduces the worked example of Figure 2: the queries
// "49ers" and "nfl" share clicks on espn.com.
func paperLog() *querylog.Log {
	recs := []querylog.ClickRecord{
		{Query: "49ers", URL: "49ers.com", Clicks: 25},
		{Query: "49ers", URL: "espn.com", Clicks: 10},
		{Query: "nfl", URL: "nfl.com", Clicks: 20},
		{Query: "nfl", URL: "espn.com", Clicks: 15},
	}
	return querylog.AggregateRecords(recs, 1)
}

func TestFigure2CosineSimilarity(t *testing.T) {
	g := Build(paperLog(), Config{MinSimilarity: 0.01, Workers: 2})
	a, ok := g.Vertex("49ers")
	if !ok {
		t.Fatal("49ers vertex missing")
	}
	b, ok := g.Vertex("nfl")
	if !ok {
		t.Fatal("nfl vertex missing")
	}
	// cos = (10*15) / (sqrt(25²+10²)·sqrt(20²+15²)) = 150/(26.93·25) ≈ 0.2228.
	// (The paper's figure rounds to 0.29 with slightly different counts;
	// the formula is what matters.)
	got := g.WeightBetween(a, b)
	want := 150.0 / (math.Sqrt(25*25+10*10) * math.Sqrt(20*20+15*15))
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("similarity = %v, want %v", got, want)
	}
}

func TestNoSharedURLNoEdge(t *testing.T) {
	recs := []querylog.ClickRecord{
		{Query: "a", URL: "a.com", Clicks: 10},
		{Query: "b", URL: "b.com", Clicks: 10},
	}
	g := Build(querylog.AggregateRecords(recs, 1), Config{MinSimilarity: 0.0001, Workers: 1})
	if g.NumEdges() != 0 {
		t.Errorf("disconnected queries produced %d edges", g.NumEdges())
	}
}

func TestMinSimilarityPrunes(t *testing.T) {
	log := paperLog()
	loose := Build(log, Config{MinSimilarity: 0.01, Workers: 1})
	strict := Build(log, Config{MinSimilarity: 0.9, Workers: 1})
	if loose.NumEdges() != 1 {
		t.Errorf("loose graph has %d edges, want 1", loose.NumEdges())
	}
	if strict.NumEdges() != 0 {
		t.Errorf("strict graph has %d edges, want 0", strict.NumEdges())
	}
}

func TestGraphSymmetry(t *testing.T) {
	w := world.Build(world.TinyConfig())
	cfg := querylog.TinyGenConfig()
	log := querylog.AggregateRecords(querylog.NewGenerator(w, cfg).GenerateRecords(), 5)
	g := Build(log, DefaultConfig())
	if g.NumEdges() == 0 {
		t.Fatal("empty graph")
	}
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		for _, n := range g.Neighbors(v) {
			if back := g.WeightBetween(n.To, v); back != n.Weight {
				t.Fatalf("asymmetric edge %d->%d: %v vs %v", v, n.To, n.Weight, back)
			}
			if n.To == v {
				t.Fatalf("self-loop at %d", v)
			}
		}
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	w := world.Build(world.TinyConfig())
	cfg := querylog.TinyGenConfig()
	cfg.Events = 20_000
	log := querylog.AggregateRecords(querylog.NewGenerator(w, cfg).GenerateRecords(), 3)
	g1 := Build(log, Config{MinSimilarity: 0.1, Workers: 1})
	g4 := Build(log, Config{MinSimilarity: 0.1, Workers: 7})
	if g1.NumEdges() != g4.NumEdges() {
		t.Fatalf("edge count depends on workers: %d vs %d", g1.NumEdges(), g4.NumEdges())
	}
	for v := int32(0); int(v) < g1.NumVertices(); v++ {
		n1, n4 := g1.Neighbors(v), g4.Neighbors(v)
		if len(n1) != len(n4) {
			t.Fatalf("vertex %d adjacency differs across worker counts", v)
		}
		for i := range n1 {
			if n1[i].To != n4[i].To || math.Abs(n1[i].Weight-n4[i].Weight) > 1e-9 {
				t.Fatalf("vertex %d neighbor %d differs", v, i)
			}
		}
	}
}

func TestSameTopicTermsMoreSimilar(t *testing.T) {
	w := world.Build(world.TinyConfig())
	log := querylog.AggregateRecords(querylog.NewGenerator(w, querylog.TinyGenConfig()).GenerateRecords(), 5)
	g := Build(log, Config{MinSimilarity: 0.05, Workers: 2})
	a, ok1 := g.Vertex("49ers")
	b, ok2 := g.Vertex("niners")
	if !ok1 || !ok2 {
		t.Skip("anchor keywords did not survive tiny log")
	}
	intra := g.WeightBetween(a, b)
	if intra == 0 {
		t.Fatal("same-topic keywords not connected")
	}
	// Cross-category similarity must be weaker than intra-topic.
	if c, ok := g.Vertex("diabetes"); ok {
		if cross := g.WeightBetween(a, c); cross >= intra {
			t.Errorf("cross-category similarity %v >= intra-topic %v", cross, intra)
		}
	}
}

func TestEdgesListedOnce(t *testing.T) {
	w := world.Build(world.TinyConfig())
	log := querylog.AggregateRecords(querylog.NewGenerator(w, querylog.TinyGenConfig()).GenerateRecords(), 5)
	g := Build(log, DefaultConfig())
	edges := g.Edges()
	if len(edges) != g.NumEdges() {
		t.Fatalf("Edges() returned %d, NumEdges %d", len(edges), g.NumEdges())
	}
	seen := map[[2]int32]bool{}
	for _, e := range edges {
		if e.A >= e.B {
			t.Fatalf("edge not ordered: %+v", e)
		}
		k := [2]int32{e.A, e.B}
		if seen[k] {
			t.Fatalf("duplicate edge %+v", e)
		}
		seen[k] = true
	}
}

func TestSparsifyBoundsDegree(t *testing.T) {
	w := world.Build(world.TinyConfig())
	log := querylog.AggregateRecords(querylog.NewGenerator(w, querylog.TinyGenConfig()).GenerateRecords(), 5)
	full := Build(log, Config{MinSimilarity: 0.02, Workers: 2})
	k := 3
	sparse := Build(log, Config{MinSimilarity: 0.02, Workers: 2, MaxNeighbors: k})
	if sparse.NumEdges() > full.NumEdges() {
		t.Fatal("sparsified graph has more edges")
	}
	// Mutual-OR top-k: degree can exceed k (edges kept by the other
	// endpoint), but the total must shrink substantially on dense graphs.
	if full.NumEdges() > 4*sparse.NumEdges() && sparse.NumEdges() == 0 {
		t.Fatal("sparsify removed everything")
	}
	// Symmetry preserved.
	for v := int32(0); int(v) < sparse.NumVertices(); v++ {
		for _, n := range sparse.Neighbors(v) {
			if sparse.WeightBetween(n.To, v) == 0 {
				t.Fatalf("sparsify broke symmetry at %d->%d", v, n.To)
			}
		}
	}
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges([]string{"a", "b", "c"}, []Edge{
		{A: 0, B: 1, Weight: 0.5},
		{A: 1, B: 2, Weight: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 || g.NumVertices() != 3 {
		t.Fatalf("got %d edges, %d vertices", g.NumEdges(), g.NumVertices())
	}
	if g.WeightBetween(0, 1) != 0.5 {
		t.Errorf("weight(0,1) = %v", g.WeightBetween(0, 1))
	}
}

func TestFromEdgesAccumulatesDuplicates(t *testing.T) {
	g, err := FromEdges([]string{"a", "b"}, []Edge{
		{A: 0, B: 1, Weight: 0.5},
		{A: 1, B: 0, Weight: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.WeightBetween(0, 1); got != 0.75 {
		t.Errorf("duplicate edge weight = %v, want 0.75", got)
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestFromEdgesRejectsBadInput(t *testing.T) {
	if _, err := FromEdges([]string{"a", "a"}, nil); err == nil {
		t.Error("duplicate labels accepted")
	}
	if _, err := FromEdges([]string{"a", "b"}, []Edge{{A: 0, B: 0, Weight: 1}}); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := FromEdges([]string{"a", "b"}, []Edge{{A: 0, B: 5, Weight: 1}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := FromEdges([]string{"a", "b"}, []Edge{{A: 0, B: 1, Weight: -1}}); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestDiscretize(t *testing.T) {
	g, err := FromEdges([]string{"a", "b", "c"}, []Edge{
		{A: 0, B: 1, Weight: 0.95},
		{A: 1, B: 2, Weight: 0.03}, // rounds to 0 at resolution 10 -> floor 1
	})
	if err != nil {
		t.Fatal(err)
	}
	ig := g.Discretize(10)
	if ig.NumEdges() != 2 {
		t.Fatalf("IntGraph edges = %d, want 2", ig.NumEdges())
	}
	var u01 int64
	for _, n := range ig.Neighbors(0) {
		if n.To == 1 {
			u01 = n.Units
		}
	}
	if u01 != 10 { // round(0.95*10) = 10
		t.Errorf("units(0,1) = %d, want 10", u01)
	}
	if ig.TotalUnits() != 11 { // 10 + floor-at-1
		t.Errorf("TotalUnits = %d, want 11", ig.TotalUnits())
	}
}

func TestUnitDegreeSum(t *testing.T) {
	// Property: sum of unit degrees == 2 * total units (handshake lemma).
	prop := func(seed int64) bool {
		n := 4 + int(uint64(seed)%5)
		labels := make([]string, n)
		for i := range labels {
			labels[i] = string(rune('a' + i))
		}
		var edges []Edge
		s := uint64(seed)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				s = s*6364136223846793005 + 1442695040888963407
				if s%3 == 0 {
					edges = append(edges, Edge{A: int32(a), B: int32(b), Weight: float64(1+s%4) / 2})
				}
			}
		}
		ig, err := FromIntEdges(labels, edges)
		if err != nil {
			return false
		}
		var degSum int64
		for v := int32(0); int(v) < ig.NumVertices(); v++ {
			degSum += ig.UnitDegree(v)
		}
		return degSum == 2*ig.TotalUnits()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVertexLookup(t *testing.T) {
	g := Build(paperLog(), Config{MinSimilarity: 0.01, Workers: 1})
	if _, ok := g.Vertex("nonexistent"); ok {
		t.Error("lookup of unknown term succeeded")
	}
	v, ok := g.Vertex("49ers")
	if !ok || g.Term(v) != "49ers" {
		t.Error("vertex round-trip failed")
	}
}

func BenchmarkBuildGraph(b *testing.B) {
	w := world.Build(world.TinyConfig())
	log := querylog.AggregateRecords(querylog.NewGenerator(w, querylog.TinyGenConfig()).GenerateRecords(), 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Build(log, DefaultConfig())
	}
}

func TestWeakEdgeTier(t *testing.T) {
	w := world.Build(world.TinyConfig())
	log := querylog.AggregateRecords(
		querylog.NewGenerator(w, querylog.TinyGenConfig()).GenerateRecords(), 5)
	cfg := Config{MinSimilarity: 0.3, ProximityFloor: 0.05, Workers: 2}
	g := Build(log, cfg)
	weak := g.WeakEdges()
	if len(weak) == 0 {
		t.Fatal("no weak edges recorded")
	}
	for i, e := range weak {
		if e.Weight < cfg.ProximityFloor || e.Weight >= cfg.MinSimilarity {
			t.Fatalf("weak edge weight %v outside [%v,%v)", e.Weight, cfg.ProximityFloor, cfg.MinSimilarity)
		}
		if e.A >= e.B {
			t.Fatalf("weak edge not ordered: %+v", e)
		}
		if i > 0 && (weak[i-1].A > e.A || (weak[i-1].A == e.A && weak[i-1].B >= e.B)) {
			t.Fatal("weak edges not sorted")
		}
		// Weak edges must not be in the strong adjacency.
		if g.WeightBetween(e.A, e.B) != 0 {
			t.Fatalf("edge (%d,%d) in both tiers", e.A, e.B)
		}
	}
	// Disabling the floor removes the tier.
	g2 := Build(log, Config{MinSimilarity: 0.3, Workers: 2})
	if len(g2.WeakEdges()) != 0 {
		t.Error("weak tier present with zero floor")
	}
}

func TestWeakTierDoesNotChangeClusteringInput(t *testing.T) {
	w := world.Build(world.TinyConfig())
	log := querylog.AggregateRecords(
		querylog.NewGenerator(w, querylog.TinyGenConfig()).GenerateRecords(), 5)
	with := Build(log, Config{MinSimilarity: 0.3, ProximityFloor: 0.05, Workers: 2})
	without := Build(log, Config{MinSimilarity: 0.3, Workers: 2})
	if with.NumEdges() != without.NumEdges() {
		t.Fatalf("proximity floor changed strong edges: %d vs %d",
			with.NumEdges(), without.NumEdges())
	}
	ia := with.Discretize(20)
	ib := without.Discretize(20)
	if ia.TotalUnits() != ib.TotalUnits() {
		t.Error("proximity floor changed discretized units")
	}
}

// referenceBuild is the pair-map sweep Build replaced, kept verbatim as
// a test oracle: every URL posting emits every pair of its queries into
// per-worker maps of partial dot products, which are then merged.
func referenceBuild(log *querylog.Log, cfg Config) *Graph {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	terms := log.Queries()
	g := &Graph{
		terms: terms,
		index: make(map[string]int32, len(terms)),
		adj:   make([][]Neighbor, len(terms)),
	}
	for i, t := range terms {
		g.index[t] = int32(i)
	}

	// Vector norms and the URL -> postings inverted index.
	norms := make([]float64, len(terms))
	postings := map[string][]posting{}
	for i, t := range terms {
		vec := log.Vector(t)
		var sq float64
		for u, c := range vec {
			fc := float64(c)
			sq += fc * fc
			postings[u] = append(postings[u], posting{term: int32(i), clicks: fc})
		}
		norms[i] = math.Sqrt(sq)
	}

	// Deterministic partition of URLs over workers.
	urls := make([]string, 0, len(postings))
	for u := range postings {
		urls = append(urls, u)
	}
	sort.Strings(urls)

	partials := make([]map[uint64]float64, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dots := map[uint64]float64{}
			for i := w; i < len(urls); i += cfg.Workers {
				ps := postings[urls[i]]
				for a := 0; a < len(ps); a++ {
					for b := a + 1; b < len(ps); b++ {
						dots[pairKey(ps[a].term, ps[b].term)] += ps[a].clicks * ps[b].clicks
					}
				}
			}
			partials[w] = dots
		}(w)
	}
	wg.Wait()

	// Merge partials and emit edges above the similarity floor.
	merged := partials[0]
	for _, p := range partials[1:] {
		for k, v := range p {
			merged[k] += v
		}
	}
	for k, dot := range merged {
		a, b := unpairKey(k)
		sim := dot / (norms[a] * norms[b])
		switch {
		case sim >= cfg.MinSimilarity:
			g.adj[a] = append(g.adj[a], Neighbor{To: b, Weight: sim})
			g.adj[b] = append(g.adj[b], Neighbor{To: a, Weight: sim})
			g.edges++
		case cfg.ProximityFloor > 0 && sim >= cfg.ProximityFloor:
			g.weak = append(g.weak, Edge{A: a, B: b, Weight: sim})
		}
	}
	sort.Slice(g.weak, func(i, j int) bool {
		if g.weak[i].A != g.weak[j].A {
			return g.weak[i].A < g.weak[j].A
		}
		return g.weak[i].B < g.weak[j].B
	})
	for v := range g.adj {
		sortNeighbors(g.adj[v])
	}
	if cfg.MaxNeighbors > 0 {
		g.sparsify(cfg.MaxNeighbors)
	}
	return g
}

type posting struct {
	term   int32
	clicks float64
}

// oracleLogs returns the click logs the row-wise sweep is checked on
// against referenceBuild.
func oracleLogs() map[string]*querylog.Log {
	w := world.Build(world.TinyConfig())
	recs := querylog.NewGenerator(w, querylog.TinyGenConfig()).GenerateRecords()
	tiny := querylog.AggregateRecords(recs, 5)

	// One hub URL clicked by every query: every pair shares a URL.
	var hub []querylog.ClickRecord
	for i, q := range tiny.Queries() {
		for u, c := range tiny.Vector(q) {
			hub = append(hub, querylog.ClickRecord{Query: q, URL: u, Clicks: c})
		}
		hub = append(hub, querylog.ClickRecord{Query: q, URL: "hub.example", Clicks: 1 + i%7})
	}

	cfg := querylog.TinyGenConfig()
	cfg.Seed = 11
	other := querylog.AggregateRecords(querylog.NewGenerator(w, cfg).GenerateRecords(), 5)

	// Zero-click cells: "a" and "b" share two URLs on which "b" has no
	// clicks, so their dot product stays 0 yet they are still one pair;
	// "z" has no clicks at all (a zero norm).
	zero := []querylog.ClickRecord{
		{Query: "a", URL: "a.com", Clicks: 4},
		{Query: "a", URL: "shared.com", Clicks: 3},
		{Query: "a", URL: "shared2.com", Clicks: 2},
		{Query: "b", URL: "b.com", Clicks: 5},
		{Query: "b", URL: "shared.com", Clicks: 0},
		{Query: "b", URL: "shared2.com", Clicks: 0},
		{Query: "c", URL: "shared.com", Clicks: 2},
		{Query: "c", URL: "c.com", Clicks: 1},
		{Query: "z", URL: "shared.com", Clicks: 0},
	}
	return map[string]*querylog.Log{
		"tiny":      tiny,
		"hub":       querylog.AggregateRecords(hub, 1),
		"scaled":    tiny.Scale(0.5),
		"merged":    querylog.Merge(tiny, other, 5),
		"zeroclick": querylog.AggregateRecords(zero, 0),
	}
}

// TestBuildMatchesReference checks that the row-wise sweep yields the
// graph of the pair-map sweep bit for bit: every click count is an
// integer, so every dot product is exact in any summation order.
func TestBuildMatchesReference(t *testing.T) {
	def := DefaultConfig()
	noFloor, noMin, topK := def, def, def
	noFloor.ProximityFloor = 0
	noMin.MinSimilarity = 0
	topK.MaxNeighbors = 3
	configs := map[string]Config{
		"default": def, "floor0": noFloor, "min0": noMin, "top3": topK,
	}
	for ln, log := range oracleLogs() {
		for cn, cfg := range configs {
			want := referenceBuild(log, cfg)
			if want.NumEdges() == 0 && len(want.WeakEdges()) == 0 {
				t.Fatalf("%s/%s: reference graph is empty", ln, cn)
			}
			for _, workers := range []int{1, 2, 3, 8} {
				cfg.Workers = workers
				t.Run(fmt.Sprintf("%s/%s/w%d", ln, cn, workers), func(t *testing.T) {
					sameGraph(t, Build(log, cfg), want)
				})
			}
		}
	}
}

func sameGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("NumEdges = %d, want %d", got.NumEdges(), want.NumEdges())
	}
	for v := int32(0); int(v) < want.NumVertices(); v++ {
		if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
			t.Fatalf("Neighbors(%d) = %v, want %v", v, got.Neighbors(v), want.Neighbors(v))
		}
	}
	if !slices.Equal(got.Edges(), want.Edges()) {
		t.Fatal("Edges differ")
	}
	if !slices.Equal(got.WeakEdges(), want.WeakEdges()) {
		t.Fatal("WeakEdges differ")
	}
}
