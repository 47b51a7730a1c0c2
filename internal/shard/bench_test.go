// Benchmarks for the sharded streaming subsystem: scatter-gather read
// latency at increasing shard counts (BenchmarkLiveSearchSharded*,
// compared against the single-node BenchmarkLiveSearch* numbers in
// internal/ingest), routed write throughput (BenchmarkShardedIngest),
// and mixed read/write serving QPS over the vector-epoch cache
// (BenchmarkServeQPSShardedMixed*). CHANGES.md and BENCHMARKS.md
// record the per-PR measurements; note the GOMAXPROCS=1 CI-container
// caveat there — shard fan-out degenerates to sequential on one core,
// so multi-shard latency gains only appear on multicore hardware.
package shard_test

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/serve"
	"repro/internal/shard"
)

// benchRouter returns a quiesced router over the shared tiny pipeline
// with n posts already routed.
func benchRouter(b *testing.B, shards, posts int) (*core.Pipeline, *shard.Router) {
	p, _ := testPipeline(b)
	r := shard.New(p.Corpus, shard.Config{Shards: shards, Ingest: ingest.DefaultConfig()})
	stream := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(11))
	for i := 0; i < posts; i++ {
		r.Ingest(stream.Next())
	}
	r.Quiesce()
	return p, r
}

// benchShardedSearch measures steady-state scatter-gather query
// latency over a quiesced router holding the base corpus plus 2048
// streamed posts, MatchWorkers=1 (the serving configuration — on the
// 1-core CI container fan-out would only add scheduling overhead).
func benchShardedSearch(b *testing.B, shards int) {
	p, r := benchRouter(b, shards, 2048)
	defer r.Close()
	online := p.Cfg.Online
	online.MatchWorkers = 1
	d := core.NewShardedLiveDetector(p.Collection, r, online)
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, _ := d.Search("49ers")
		n = len(results)
	}
	b.ReportMetric(float64(n), "experts")
	b.ReportMetric(float64(shards), "shards")
}

func BenchmarkLiveSearchSharded1(b *testing.B) { benchShardedSearch(b, 1) }
func BenchmarkLiveSearchSharded4(b *testing.B) { benchShardedSearch(b, 4) }
func BenchmarkLiveSearchSharded8(b *testing.B) { benchShardedSearch(b, 8) }

// BenchmarkShardedIngest measures single-writer routed write
// throughput: one avalanche hash plus the target shard's full ingest
// path (tokenize, append, seal, publish).
func BenchmarkShardedIngest(b *testing.B) {
	p, _ := testPipeline(b)
	r := shard.New(p.Corpus, shard.DefaultConfig())
	defer r.Close()
	stream := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(13))
	posts := make([]microblog.Post, 4096)
	for i := range posts {
		posts[i] = stream.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Ingest(posts[i%len(posts)])
	}
}

// BenchmarkShardedIngestParallel measures contended routed writes:
// unlike the single-node index, writers to different shards do not
// share a lock, so on multicore hardware throughput should scale with
// the shard count.
func BenchmarkShardedIngestParallel(b *testing.B) {
	p, _ := testPipeline(b)
	r := shard.New(p.Corpus, shard.DefaultConfig())
	defer r.Close()
	var seed atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		stream := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(300+seed.Add(1)))
		for pb.Next() {
			r.Ingest(stream.Next())
		}
	})
}

// benchShardedMixedQPS measures serving throughput under concurrent
// ingestion at a given shard count: every iteration replays a mixed
// read/write workload (searches via the vector-epoch cache, posts
// routed across the shards). Both throughputs and the cache hit rate
// are totals over all b.N iterations, not the last one's.
func benchShardedMixedQPS(b *testing.B, shards int) {
	p, sets := testPipeline(b)
	var pool []string
	for _, set := range sets {
		pool = append(pool, set.Queries...)
	}
	r := shard.New(p.Corpus, shard.Config{Shards: shards, Ingest: ingest.DefaultConfig()})
	defer r.Close()
	online := p.Cfg.Online
	online.MatchWorkers = 1
	srv := serve.New(core.NewShardedLiveDetector(p.Collection, r, online), serve.DefaultConfig())
	workers := runtime.GOMAXPROCS(0)
	var (
		elapsed            time.Duration
		searches, ingested int
		hits, misses       int64
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := serve.RunMixedLoad(srv, r, serve.MixedLoadConfig{
			Queries:       pool,
			Searches:      2 * len(pool),
			SearchWorkers: workers,
			Ingests:       500,
			IngestWorkers: 2,
			BaselineEvery: 5,
			Seed:          uint64(i),
		})
		elapsed += res.Duration
		searches += res.Searches
		ingested += res.Ingested
		hits += res.Stats.CacheHits
		misses += res.Stats.CacheMisses
	}
	b.ReportMetric(float64(searches)/elapsed.Seconds(), "qps")
	b.ReportMetric(float64(ingested)/elapsed.Seconds(), "posts/s")
	b.ReportMetric(float64(hits)/float64(max(hits+misses, 1)), "hit-rate")
	b.ReportMetric(float64(shards), "shards")
}

func BenchmarkServeQPSShardedMixed1(b *testing.B) { benchShardedMixedQPS(b, 1) }
func BenchmarkServeQPSShardedMixed4(b *testing.B) { benchShardedMixedQPS(b, 4) }
func BenchmarkServeQPSShardedMixed8(b *testing.B) { benchShardedMixedQPS(b, 8) }

// BenchmarkReshardDrain measures migration throughput: one iteration
// drains a 2-shard deployment holding the base corpus plus 2048
// streamed posts into 4 fresh shards and cuts over (Start + catch-up
// drain rounds + the locked residue pass). Setup — building both
// deployments and routing the posts — is excluded; the metric is posts
// moved per second of drain wall time.
func BenchmarkReshardDrain(b *testing.B) {
	p, _ := testPipeline(b)
	const posts = 2048
	var streamed float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		src := shard.New(p.Corpus, shard.Config{Shards: 2, Ingest: ingest.DefaultConfig()})
		dst := shard.New(p.Corpus, shard.Config{Shards: 4, Ingest: ingest.DefaultConfig()})
		stream := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(17+uint64(i)))
		for j := 0; j < posts; j++ {
			src.Ingest(stream.Next())
		}
		src.Quiesce()
		mig, err := shard.NewMigration(src.Cluster(), dst.Cluster(), shard.MigrationConfig{PageSize: 256})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := mig.Run(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		streamed = float64(mig.Stats().PostsStreamed)
		src.Close()
		dst.Close()
		b.StartTimer()
	}
	b.ReportMetric(streamed, "posts")
	b.ReportMetric(streamed*float64(b.N)/b.Elapsed().Seconds(), "posts/s")
}

// BenchmarkEpochVectorSample isolates the per-request cost the serving
// layer pays to sample the vector epoch, which scales with N.
func BenchmarkEpochVectorSample(b *testing.B) {
	for _, shards := range []int{1, 4, 8, 32} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			p, _ := testPipeline(b)
			r := shard.New(p.Corpus, shard.Config{Shards: shards, Ingest: ingest.DefaultConfig()})
			defer r.Close()
			buf := make([]uint64, 0, shards)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = r.EpochVector(buf)
			}
		})
	}
}
