package transport_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/shard"
	"repro/internal/transport"
)

// remoteCluster starts n loopback shard servers and wires a cluster
// over their clients.
func remoteCluster(t *testing.T, p *core.Pipeline, n int) ([]*transport.ShardServer, *shard.Cluster, []*transport.RemoteShard) {
	t.Helper()
	servers, clients := startServers(t, p, n, ingest.Config{SealThreshold: 8, CompactFanIn: 3})
	backends := make([]shard.Backend, n)
	for i, c := range clients {
		backends[i] = c
	}
	return servers, shard.NewCluster(p.World, backends...), clients
}

// TestClusterIngestBatchOneFramePerShard pins the batched write path: a
// 20-post Cluster.IngestBatch over two remote shards sends exactly one
// OpIngest frame to each shard with posts in the batch, each shard
// receives its posts in input order, and the quiesced rankings equal
// those of the same posts ingested one Cluster.Ingest call at a time.
func TestClusterIngestBatchOneFramePerShard(t *testing.T) {
	p, sets := testPipeline(t)
	const n = 2
	posts := streamPosts(p, 83, 20)
	want := make([][]microblog.Post, n)
	for _, post := range posts {
		si := shard.ShardOf(post.Author, n)
		want[si] = append(want[si], post)
	}
	for si, group := range want {
		if len(group) == 0 {
			t.Fatalf("shard %d got no posts; pick a stream seed that spans both shards", si)
		}
	}

	servers, batched, clients := remoteCluster(t, p, n)
	if err := batched.IngestBatch(posts); err != nil {
		t.Fatal(err)
	}
	for si, srv := range servers {
		if got := srv.Requests(transport.OpIngest); got != 1 {
			t.Errorf("shard %d: %d OpIngest frames for one batch, want 1", si, got)
		}
	}
	if err := batched.Quiesce(); err != nil {
		t.Fatal(err)
	}
	for si, c := range clients {
		got, err := c.DumpIngested()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want[si]) {
			t.Fatalf("shard %d holds %d ingested posts, want %d", si, len(got), len(want[si]))
		}
		for k := range got {
			if !reflect.DeepEqual(microblog.MakeTweet(got[k]), microblog.MakeTweet(want[si][k])) {
				t.Fatalf("shard %d post %d: got %+v, want %+v (input order lost)", si, k, got[k], want[si][k])
			}
		}
	}

	_, single, _ := remoteCluster(t, p, n)
	for _, post := range posts {
		if _, err := single.Ingest(post); err != nil {
			t.Fatal(err)
		}
	}
	if err := single.Quiesce(); err != nil {
		t.Fatal(err)
	}
	got := core.NewShardedLiveDetectorOver(p.Collection, batched, p.Cfg.Online)
	ref := core.NewShardedLiveDetectorOver(p.Collection, single, p.Cfg.Online)
	for _, set := range sets {
		for _, q := range set.Queries {
			gotES, gotTrace := got.Search(q)
			refES, refTrace := ref.Search(q)
			expertsIdentical(t, "batched-vs-per-post", q, gotES, refES)
			if gotTrace.MatchedTweets != refTrace.MatchedTweets {
				t.Fatalf("%q: matched %d tweets batched, %d per post", q, gotTrace.MatchedTweets, refTrace.MatchedTweets)
			}
			expertsIdentical(t, "batched-vs-per-post baseline", q, got.SearchBaseline(q), ref.SearchBaseline(q))
		}
	}
}
