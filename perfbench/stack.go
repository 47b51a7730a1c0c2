package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/domains"
	"repro/internal/gateway"
	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/obs"
	"repro/internal/querylog"
	"repro/internal/replica"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/simgraph"
	"repro/internal/transport"
	"repro/internal/world"
)

// numShards is the partition count of every deployment: two shard
// servers on loopback TCP, so scatter-gather crosses a real wire.
const numShards = 2

// token is the single bearer credential the load generator presents;
// it carries no rate limit or quota, so the gateway admits everything.
const token = "perfbench"

// smallScale is the corpus the benchmark serves: the "small" scale of
// cmd/esharp (default world, 600k click events, MinClicks 10).
func smallScale() core.PipelineConfig {
	cfg := core.DefaultPipelineConfig()
	cfg.Log.Events = 600_000
	cfg.MinClicks = 10
	return cfg
}

// deployment is what a workload stands up behind the gateway.
type deployment struct {
	// cacheSize is the serve.Server result cache capacity.
	cacheSize int
	// replicas per shard; 1 wires each shard as a plain RemoteShard,
	// more wire a replica.Set over that many shard servers.
	replicas int
	// disk turns the disk tier on: sealed segments past
	// spillThreshold posts are rewritten to files under the spill dir.
	disk bool
}

// Disk-tier geometry of the ingest-mixed deployment.
const (
	sealThreshold  = 256
	spillThreshold = 1024
)

// setupStages names the timed set-up stages in execution order. The
// offline ones are the paper's Table 9 steps, each called directly.
var setupStages = []string{"world", "querylog", "simgraph", "community", "domains", "corpus", "shards", "preload"}

// offline holds the artifacts of the offline pipeline.
type offline struct {
	world  *world.World
	log    *querylog.Log
	coll   *domains.Collection
	corpus *microblog.Corpus
	online core.OnlineConfig
}

// stack is one running deployment: gateway on a loopback HTTP
// listener → serve → core.ShardedLiveDetector → shard.Cluster →
// transport.RemoteShard (optionally behind replica.Set) →
// transport.ShardServer → ingest.Index (optionally spilling to
// diskseg files).
type stack struct {
	off      *offline
	servers  []*transport.ShardServer // shard-major, replica-minor
	remotes  []*transport.RemoteShard // aligned with servers
	cluster  *shard.Cluster
	detector *core.ShardedLiveDetector
	srv      *serve.Server
	gw       *gateway.Gateway
	hs       *http.Server
	served   chan struct{}
	url      string
	spillDir string
	// reg and rec are non-nil only on a traced stack: the registry
	// collects counters that exist only inside the program (wire bytes,
	// disk block cache), the recorder the decorators' spans.
	reg *obs.Registry
	rec *recorder
	// stages holds each set-up stage's wall time in seconds.
	stages map[string]float64
	// preloadAcks are the preload batches' acknowledgement latencies.
	preloadAcks []time.Duration
}

// stageTimer times contiguous set-up stages.
type stageTimer struct {
	last   time.Time
	stages map[string]float64
}

func newStageTimer() *stageTimer {
	return &stageTimer{last: time.Now(), stages: map[string]float64{}}
}

func (t *stageTimer) done(stage string) {
	now := time.Now()
	t.stages[stage] = now.Sub(t.last).Seconds()
	t.last = now
}

// buildOffline runs the offline pipeline stage by stage — the same
// calls, in the same order, as core.BuildPipeline — so each stage can
// be timed on its own.
func buildOffline(cfg core.PipelineConfig, t *stageTimer) *offline {
	w := world.Build(cfg.World)
	t.done("world")
	log := querylog.AggregateRecords(querylog.NewGenerator(w, cfg.Log).GenerateRecords(), cfg.MinClicks)
	t.done("querylog")
	graph := simgraph.Build(log, cfg.Offline.Graph)
	t.done("simgraph")
	resolution := cfg.Offline.Resolution
	if resolution <= 0 {
		resolution = 20
	}
	res := community.DetectParallel(graph.Discretize(resolution), cfg.Offline.Community)
	t.done("community")
	coll := domains.FromClustering(graph, res)
	t.done("domains")
	corpus := microblog.Generate(w, cfg.Tweets)
	t.done("corpus")
	online := cfg.Online
	// Request-level parallelism already fills the cores; the serving
	// layer's documented setting.
	online.MatchWorkers = 1
	return &offline{world: w, log: log, coll: coll, corpus: corpus, online: online}
}

// setup stands the deployment up from nothing and preloads it: the
// offline pipeline, the shard servers and their clients, the detector,
// serve and the gateway, then posts ingested in batches and a quiesce.
// posts supplies the preload posts from the world; its running time is
// not counted in any stage. spillRoot is where a disk-tier deployment
// keeps its segment files. traced wires the span decorators and an
// obs.Registry.
func setup(cfg core.PipelineConfig, dep deployment, posts func(*world.World) []microblog.Post, spillRoot string, traced bool) (*stack, error) {
	t := newStageTimer()
	s := &stack{off: buildOffline(cfg, t), served: make(chan struct{})}
	preload := posts(s.off.world)
	t.last = time.Now()
	if traced {
		s.reg = obs.NewRegistry()
		s.rec = newRecorder()
	}
	if err := s.boot(dep, spillRoot); err != nil {
		s.close()
		return nil, err
	}
	t.done("shards")
	for start := 0; start < len(preload); start += batchSize {
		batch := preload[start:min(start+batchSize, len(preload))]
		t0 := time.Now()
		if err := s.cluster.IngestBatch(batch); err != nil {
			s.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
		s.preloadAcks = append(s.preloadAcks, time.Since(t0))
	}
	if err := s.cluster.Quiesce(); err != nil {
		s.close()
		return nil, fmt.Errorf("preload quiesce: %w", err)
	}
	t.done("preload")
	s.stages = t.stages
	return s, nil
}

// boot starts the shard servers, the cluster over their clients, the
// detector, serve and the gateway's HTTP listener.
func (s *stack) boot(dep deployment, spillRoot string) error {
	w, corpus := s.off.world, s.off.corpus
	if dep.disk {
		dir, err := os.MkdirTemp(spillRoot, "spill-")
		if err != nil {
			return fmt.Errorf("spill dir: %w", err)
		}
		s.spillDir = dir
	}
	backends := make([]shard.Backend, numShards)
	for i := 0; i < numShards; i++ {
		part := shard.Partition(corpus, i, numShards)
		members := make([]shard.Backend, 0, dep.replicas)
		for r := 0; r < dep.replicas; r++ {
			icfg := ingest.DefaultConfig()
			icfg.Obs = s.reg
			if dep.disk {
				icfg.SealThreshold = sealThreshold
				icfg.SpillThreshold = spillThreshold
				icfg.SpillDir = filepath.Join(s.spillDir, fmt.Sprintf("shard-%d-replica-%d", i, r))
			}
			idx := ingest.New(part, icfg)
			scfg := transport.DefaultServerConfig(i, numShards)
			scfg.Obs = s.reg
			srv, err := transport.Listen("127.0.0.1:0", idx, scfg)
			if err != nil {
				idx.Close()
				return err
			}
			s.servers = append(s.servers, srv)
			rs := transport.NewRemoteShard(srv.Addr().String(), transport.ClientConfig{Obs: s.reg})
			s.remotes = append(s.remotes, rs)
			if err := rs.Handshake(i, numShards, len(w.Users), part.NumTweets()); err != nil {
				return fmt.Errorf("shard %d replica %d: %w", i, r, err)
			}
			members = append(members, rs)
		}
		var b shard.Backend = members[0]
		if dep.replicas > 1 {
			set, err := replica.NewSet(members, replica.Config{Backoff: shard.DefaultBackoff(), Obs: s.reg})
			if err != nil {
				return err
			}
			b = set
		}
		if s.rec != nil {
			b = traceShard(b, i, s.rec)
		}
		backends[i] = b
	}
	s.cluster = shard.NewCluster(w, backends...)
	s.detector = core.NewShardedLiveDetectorOver(s.off.coll, s.cluster, s.off.online)
	var backend serve.Backend = s.detector
	if s.rec != nil {
		backend = traceDetector(s.detector, s.rec)
	}
	scfg := serve.DefaultConfig()
	scfg.CacheSize = dep.cacheSize
	s.srv = serve.New(backend, scfg)
	gw, err := gateway.New(gateway.Config{Serve: s.srv, Tokens: map[string]gateway.TokenConfig{token: {}}})
	if err != nil {
		return err
	}
	s.gw = gw
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.hs = &http.Server{Handler: gw}
	s.url = "http://" + ln.Addr().String() + "/v1/search"
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return nil
}

// close stops everything setup started and waits for it: the HTTP
// server, the gateway's watchers, the shard clients, the shard servers
// and their indexes' compactors. It removes the spill directory.
func (s *stack) close() {
	if s.hs != nil {
		s.hs.Close()
		<-s.served
	}
	if s.gw != nil {
		s.gw.Close()
	}
	if s.cluster != nil {
		s.cluster.Close()
	} else {
		for _, r := range s.remotes {
			r.Close()
		}
	}
	for _, srv := range s.servers {
		srv.Close()
		srv.Index().Close()
	}
	if s.spillDir != "" {
		os.RemoveAll(s.spillDir)
	}
}

// indexes returns every shard server's index, shard-major.
func (s *stack) indexes() []*ingest.Index {
	out := make([]*ingest.Index, len(s.servers))
	for i, srv := range s.servers {
		out[i] = srv.Index()
	}
	return out
}
