package main

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/ingest"
	"repro/internal/serve"
	"repro/internal/transport"
)

// snapshot is every counter the per-layer metrics difference across
// the traced window.
type snapshot struct {
	serve     serve.Stats
	readRTTs  int64 // OpSearch + OpStats + OpSearchStats frames served
	epochRTTs int64
	dials     int64
	idx       []ingest.IndexStats
	wireBytes int64
	blockHits int64
	blockMiss int64
	mem       runtime.MemStats
}

func takeSnapshot(st *stack) snapshot {
	s := snapshot{serve: st.srv.Stats()}
	for _, srv := range st.servers {
		s.readRTTs += srv.Requests(transport.OpSearch) + srv.Requests(transport.OpStats) + srv.Requests(transport.OpSearchStats)
	}
	for _, r := range st.remotes {
		s.epochRTTs += r.EpochRTTs()
		s.dials += r.Dials()
	}
	for _, idx := range st.indexes() {
		s.idx = append(s.idx, idx.Stats())
	}
	if st.reg != nil {
		s.wireBytes = st.reg.Counter("rpc_client_bytes_read").Load() + st.reg.Counter("rpc_client_bytes_written").Load()
		s.blockHits = st.reg.Counter("disk_block_cache_hits").Load()
		s.blockMiss = st.reg.Counter("disk_block_cache_misses").Load()
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics computes the per-layer metrics of the traced window.
func layerMetrics(r *runner, st *stack, p *phase, spans []span, before, after snapshot) map[string]metric {
	m := map[string]metric{}
	searches := float64(len(p.open()))

	// Harness and end-to-end error ratios.
	_, failed, wrong := counts(p.open())
	m["search_error_ratio"] = metric{ratio(float64(failed+wrong+p.partials), searches), "ratio"}
	_, wfailed, _ := counts(p.writes)
	m["ingest_error_ratio"] = metric{ratio(float64(wfailed), float64(len(p.writes))), "ratio"}
	m["loadgen.late_p99_ms"] = metric{ms(percentile(append(lateness(p.open()), lateness(p.writes)...), 0.99)), "ms"}

	// Spans by kind; core spans also by the request they served.
	var cores, scatters, gathers, ingests []span
	children := map[uint64][]span{}
	for _, s := range spans {
		switch s.Kind {
		case kindCore:
			cores = append(cores, s)
		case kindScatter:
			scatters = append(scatters, s)
		case kindGather:
			gathers = append(gathers, s)
		case kindIngest:
			ingests = append(ingests, s)
		}
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}

	// gateway: the client round trip minus the time serve spent in the
	// detector on its behalf. No request ID crosses HTTP, so a request
	// is linked to the core spans of the same query and endpoint that
	// overlap it in time; a cache hit has none.
	byKey := map[string][]span{}
	for _, c := range cores {
		k := spanKey(c.Query, c.Baseline)
		byKey[k] = append(byKey[k], c)
	}
	var self []time.Duration
	var s2, s4, s5 float64
	for _, s := range p.open() {
		switch {
		case s.status >= 500:
			s5++
		case s.status >= 400:
			s4++
		case s.status >= 200 && s.status < 300:
			s2++
		}
		inside := time.Duration(0)
		for _, c := range byKey[spanKey(r.table.norm[s.query], s.baseline)] {
			inside += overlap(s.sent, s.end, c.Start, c.End)
		}
		self = append(self, s.end-s.sent-inside)
	}
	m["gateway.self_ms_p50"] = metric{ms(percentile(self, 0.50)), "ms"}
	m["gateway.status_2xx"] = metric{s2, "count"}
	m["gateway.status_4xx"] = metric{s4, "count"}
	m["gateway.status_5xx"] = metric{s5, "count"}

	// serve, from its own counters.
	d := func(a, b int64) float64 { return float64(a - b) }
	sa, sb := after.serve, before.serve
	queries := d(sa.Queries, sb.Queries)
	m["serve.hit_ratio"] = metric{ratio(d(sa.CacheHits, sb.CacheHits), d(sa.CacheHits, sb.CacheHits)+d(sa.CacheMisses, sb.CacheMisses)), "ratio"}
	m["serve.coalesced_ratio"] = metric{ratio(d(sa.Coalesced, sb.Coalesced), queries), "ratio"}
	m["serve.invalidations_per_query"] = metric{ratio(d(sa.Invalidations, sb.Invalidations), queries), "1/query"}
	m["serve.shed"] = metric{d(sa.Shed, sb.Shed), "count"}
	m["serve.uncacheable"] = metric{d(sa.Uncacheable, sb.Uncacheable), "count"}

	// core: the decorator's spans and the detector's own trace.
	var coreDur, expand, mergeRank []time.Duration
	var terms, matched float64
	var slowest []float64
	for _, c := range cores {
		coreDur = append(coreDur, c.End-c.Start)
		expand = append(expand, c.Expand)
		terms += float64(c.Terms)
		matched += float64(c.Matched)
		kids := children[c.ID]
		mergeRank = append(mergeRank, c.End-c.Start-covered(c, kids)-c.Expand)
		var sc []float64
		for _, k := range kids {
			if k.Kind == kindScatter {
				sc = append(sc, float64(k.End-k.Start))
			}
		}
		if med := median(sc); med > 0 {
			slowest = append(slowest, slices.Max(sc)/med)
		}
	}
	nc := float64(len(cores))
	m["core.calls_per_query"] = metric{ratio(nc, searches), "1/query"}
	m["core.search_ms_p50"] = metric{ms(percentile(coreDur, 0.50)), "ms"}
	m["core.search_ms_p99"] = metric{ms(percentile(coreDur, 0.99)), "ms"}
	m["core.expand_us_p50"] = metric{float64(percentile(expand, 0.50)) / 1e3, "us"}
	m["core.expansion_terms_mean"] = metric{ratio(terms, nc), "count"}
	m["core.matched_tweets_mean"] = metric{ratio(matched, nc), "count"}
	m["core.merge_rank_ms_p50"] = metric{ms(percentile(mergeRank, 0.50)), "ms"}

	// shard / replica.
	m["shard.scatter_ms_p50"] = metric{ms(percentile(durations(scatters), 0.50)), "ms"}
	m["shard.scatter_ms_p99"] = metric{ms(percentile(durations(scatters), 0.99)), "ms"}
	m["shard.gather_ms_p50"] = metric{ms(percentile(durations(gathers), 0.50)), "ms"}
	m["shard.calls_per_query"] = metric{ratio(float64(len(scatters)+len(gathers)), nc), "1/query"}
	m["shard.slowest_over_median"] = metric{mean(slowest), "ratio"}
	m["shard.partial_results"] = metric{d(sa.PartialResults, sb.PartialResults), "count"}
	m["replica.failovers"] = metric{d(sa.Failovers, sb.Failovers), "count"}

	// transport.
	m["transport.rtts_per_query"] = metric{ratio(d(after.readRTTs, before.readRTTs), searches), "1/query"}
	m["transport.epoch_rtts"] = metric{d(after.epochRTTs, before.epochRTTs), "count"}
	m["transport.dials"] = metric{d(after.dials, before.dials), "count"}
	m["transport.bytes_per_query"] = metric{ratio(d(after.wireBytes, before.wireBytes), searches), "B/query"}

	// ingest: per-shard batch spans and the indexes' own counters.
	var seals, compactions, spills, spillErrs, diskSegs, primaryEpochs int64
	segMax := p.segmentsMax
	for i := range after.idx {
		a, b := after.idx[i], before.idx[i]
		seals += a.Seals - b.Seals
		compactions += a.Compactions - b.Compactions
		spills += a.Spills - b.Spills
		spillErrs += a.SpillErrors - b.SpillErrors
		diskSegs += int64(a.DiskSegments)
		segMax = max(segMax, a.Segments)
		if i%r.w.dep.replicas == 0 {
			primaryEpochs += int64(a.Epoch - b.Epoch)
		}
	}
	m["ingest.batch_ms_p50"] = metric{ms(percentile(durations(ingests), 0.50)), "ms"}
	m["ingest.batch_ms_p99"] = metric{ms(percentile(durations(ingests), 0.99)), "ms"}
	m["ingest.seals"] = metric{float64(seals), "count"}
	m["ingest.compactions"] = metric{float64(compactions), "count"}
	m["ingest.segments_max"] = metric{float64(segMax), "count"}
	m["ingest.epoch_bumps_per_batch"] = metric{ratio(float64(primaryEpochs), float64(len(p.writes))), "1/batch"}

	// diskseg.
	files, posts := spillFiles(st.spillDir)
	m["diskseg.spills"] = metric{float64(spills), "count"}
	m["diskseg.disk_segments"] = metric{float64(diskSegs), "count"}
	m["diskseg.bytes_per_post"] = metric{ratio(float64(files), float64(posts)), "B/post"}
	m["diskseg.block_cache_hit_ratio"] = metric{ratio(d(after.blockHits, before.blockHits), d(after.blockHits, before.blockHits)+d(after.blockMiss, before.blockMiss)), "ratio"}
	m["diskseg.spill_errors"] = metric{float64(spillErrs), "count"}

	// Go runtime.
	ma, mb := after.mem, before.mem
	m["go.gc_cycles"] = metric{float64(ma.NumGC - mb.NumGC), "count"}
	m["go.gc_pause_ms"] = metric{float64(ma.PauseTotalNs-mb.PauseTotalNs) / 1e6, "ms"}
	m["go.alloc_bytes_per_query"] = metric{ratio(float64(ma.TotalAlloc-mb.TotalAlloc), searches), "B/query"}
	return m
}

func spanKey(query string, baseline bool) string {
	if baseline {
		return "b\x00" + query
	}
	return "e\x00" + query
}

// overlap returns how much of [a0, a1) lies inside [b0, b1).
func overlap(a0, a1, b0, b1 time.Duration) time.Duration {
	lo, hi := max(a0, b0), min(a1, b1)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// covered returns how much of parent's interval its children's spans
// cover, counting overlapping children once: the part of the core
// span that is not the core layer's own time.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end time.Duration
	for _, x := range iv {
		if x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

func durations(spans []span) []time.Duration {
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// spillFiles returns the bytes and the posts of every segment file
// under dir. The index names each file seg-<seq>-<posts>.esg.
func spillFiles(dir string) (size, posts int64) {
	if dir == "" {
		return 0, 0
	}
	filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, ".esg") {
			return nil // a file removed mid-walk is no longer spilled
		}
		info, err := e.Info()
		if err != nil {
			return nil
		}
		parts := strings.Split(strings.TrimSuffix(e.Name(), ".esg"), "-")
		n, err := strconv.ParseInt(parts[len(parts)-1], 10, 64)
		if err != nil {
			return nil
		}
		size += info.Size()
		posts += n
		return nil
	})
	return size, posts
}
