// Package shard partitions the live post stream by author across N
// independent streaming indexes (internal/ingest), the scale-out step
// the single-node live index was designed for: web-scale expert-mining
// systems only reach millions of users by sharding the ingestion and
// scoring pipeline by user.
//
// A Router owns the shards and routes every post to
// ShardOf(author, N) — a fixed avalanche hash of the author id, stable
// across processes and restarts, so a given author's posts always land
// on the same shard, in this process and the next one. Author affinity
// is the load-bearing property: a user's authored posts (and therefore
// the TS and RI feature denominators, which count the user's own tweets
// and the retweets they received) live entirely on one shard, so those
// per-shard ranking inputs are exact, not approximate. Mention counts
// are the exception — a post mentioning u lives on its author's shard —
// which is why the scatter-gather read path
// (core.ShardedLiveDetector) merges raw integer counters across shards
// (expertise.RawCandidatesInto / MergeRawCandidates) before the single
// global ranking pass, keeping an N-shard query bit-identical to a
// single-node one.
//
// Each shard is a full ingest.Index: its own segments, compactor and
// epoch-tagged snapshots. The Router composes the per-shard epochs into
// a vector epoch (EpochVector) that the serving cache keys invalidation
// on: a cached result is stale as soon as any component advances.
package shard

import (
	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/world"
)

// Config tunes a Router.
type Config struct {
	// Shards is the number of partitions. Zero or negative means 1.
	Shards int
	// Ingest is the per-shard streaming-index configuration (seal
	// threshold, compaction fan-in); the zero value takes the ingest
	// defaults.
	Ingest ingest.Config
}

// DefaultConfig returns a 4-way partitioning with default per-shard
// streaming settings.
func DefaultConfig() Config { return Config{Shards: 4, Ingest: ingest.DefaultConfig()} }

// ShardOf maps an author to a shard in [0, n). The hash is a fixed
// 64-bit avalanche mix (splitmix64's finalizer) of the author id — no
// process state, no seed — so the assignment is a pure function of
// (author, n) and survives restarts; the router property tests pin
// golden values against accidental constant changes.
func ShardOf(u world.UserID, n int) int {
	if n <= 1 {
		return 0
	}
	x := uint64(u)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}

// Partition returns the slice of base that shard i of n owns: exactly
// the tweets whose author hashes to i. Router construction partitions
// its base corpus with it, and cmd/shardd uses it directly so a shard
// process rebuilt from the same deterministic pipeline starts from the
// identical base slice the in-process router would give that shard.
func Partition(base *microblog.Corpus, i, n int) *microblog.Corpus {
	size := 0
	for _, tw := range base.Tweets() {
		if ShardOf(tw.Author, n) == i {
			size++
		}
	}
	part := make([]microblog.Tweet, 0, size)
	for _, tw := range base.Tweets() {
		if ShardOf(tw.Author, n) == i {
			part = append(part, tw)
		}
	}
	return microblog.FromTweets(base.World(), part)
}

// Router hash-partitions a post stream by author across N independent
// streaming indexes. Ingest routes writes (safe for concurrent use —
// each shard serializes internally); the read side acquires one
// immutable snapshot per shard (Snapshots) and scatter-gathers across
// them (see core.ShardedLiveDetector). Close stops every shard's
// background compactor.
type Router struct {
	w       *world.World
	shards  []*ingest.Index
	cluster *Cluster
}

// New builds a router over a frozen base corpus, partitioning the base
// tweets by author so every shard starts from its own slice of history:
// shard i's base holds exactly the base tweets whose author hashes to
// i. The union of the shards' content therefore always equals base
// plus everything ingested — the invariant the bit-identical
// equivalence bar is stated over.
func New(base *microblog.Corpus, cfg Config) *Router {
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	w := base.World()
	parts := make([][]microblog.Tweet, n)
	for _, tw := range base.Tweets() {
		si := ShardOf(tw.Author, n)
		parts[si] = append(parts[si], tw)
	}
	r := &Router{w: w, shards: make([]*ingest.Index, n)}
	backends := make([]Backend, n)
	for i := range r.shards {
		r.shards[i] = ingest.New(microblog.FromTweets(w, parts[i]), cfg.Ingest)
		backends[i] = NewLocal(r.shards[i])
	}
	r.cluster = NewCluster(w, backends...)
	return r
}

// Cluster returns the router's shards behind the Backend interface —
// the all-local shard set core.ShardedLiveDetector scatter-gathers
// over, interchangeable with (or mixable into) a set of
// transport.RemoteShard clients.
func (r *Router) Cluster() *Cluster { return r.cluster }

// World returns the generating world shared by every shard.
func (r *Router) World() *world.World { return r.w }

// NumShards returns the partition count.
func (r *Router) NumShards() int { return len(r.shards) }

// Shard returns the i-th streaming index.
func (r *Router) Shard(i int) *ingest.Index { return r.shards[i] }

// ShardFor returns the shard index the user's posts route to.
func (r *Router) ShardFor(u world.UserID) int { return ShardOf(u, len(r.shards)) }

// Ingest routes one post to its author's shard and returns the
// shard-local tweet id the shard assigned (ids are per-shard; use
// ShardFor to recover which shard it landed on). Safe for concurrent
// use.
func (r *Router) Ingest(p microblog.Post) microblog.TweetID {
	return r.shards[ShardOf(p.Author, len(r.shards))].Ingest(p)
}

// IngestBatch routes posts one at a time on the calling goroutine,
// preserving per-shard arrival order for a single caller. Concurrency
// comes from running multiple ingesting goroutines — writers to
// different shards share no lock.
func (r *Router) IngestBatch(posts []microblog.Post) {
	for _, p := range posts {
		r.Ingest(p)
	}
}

// Snapshots appends one epoch-tagged immutable snapshot per shard to
// dst (capacity reused, contents discarded), acquired with one atomic
// load each. The composite is not a single globally-atomic cut — shard
// k's snapshot may be a few posts ahead of shard j's under concurrent
// ingest — but each author's timeline lives on exactly one shard, so
// every per-user ranking input is internally consistent, and a quiesced
// router yields the exact global state.
func (r *Router) Snapshots(dst []*ingest.Snapshot) []*ingest.Snapshot {
	dst = dst[:0]
	for _, s := range r.shards {
		dst = append(dst, s.Snapshot())
	}
	return dst
}

// EpochVector appends each shard's current epoch to dst (capacity
// reused, contents discarded). Component i advances on every publish of
// shard i (ingest, seal, compaction); the vector as a whole identifies
// the composite view, and the serving cache invalidates an entry as
// soon as any component advances past the entry's.
func (r *Router) EpochVector(dst []uint64) []uint64 {
	dst = dst[:0]
	for _, s := range r.shards {
		dst = append(dst, s.Epoch())
	}
	return dst
}

// Epoch returns the sum of the per-shard epochs — a scalar digest of
// the vector. Epochs never decrease, so the sum advances if and only if
// some component advances; it backs the scalar Backend.Epoch surface
// while the cache's correctness argument uses the full vector.
func (r *Router) Epoch() uint64 {
	var sum uint64
	for _, s := range r.shards {
		sum += s.Epoch()
	}
	return sum
}

// Quiesce synchronously drains every shard's eligible compactions.
func (r *Router) Quiesce() {
	for _, s := range r.shards {
		s.Quiesce()
	}
}

// Close stops every shard's background compactor. The shards remain
// readable and writable.
func (r *Router) Close() {
	for _, s := range r.shards {
		s.Close()
	}
}

// Stats aggregates the per-shard writer-side counters.
type Stats struct {
	// Shards is the partition count.
	Shards int
	// PerShard holds each shard's individual counters, indexed by
	// shard.
	PerShard []ingest.IndexStats
	// NumTweets and Segments sum visible tweets and sealed segments
	// across all shards.
	NumTweets, Segments int
	// Ingested counts live posts accepted across all shards.
	Ingested int64
	// Seals and Compactions count background structural events across
	// all shards.
	Seals, Compactions int64
}

// Stats snapshots every shard's counters and their totals.
func (r *Router) Stats() Stats {
	st := Stats{Shards: len(r.shards), PerShard: make([]ingest.IndexStats, 0, len(r.shards))}
	for _, s := range r.shards {
		is := s.Stats()
		st.PerShard = append(st.PerShard, is)
		st.NumTweets += is.NumTweets
		st.Segments += is.Segments
		st.Ingested += is.Ingested
		st.Seals += is.Seals
		st.Compactions += is.Compactions
	}
	return st
}
