package microblog_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/microblog"
	"repro/internal/shard"
	"repro/internal/world"
)

// indexMatchesReference fails t unless c's inverted index equals the
// map-based reference build over the same tweets.
func indexMatchesReference(t *testing.T, label string, c *microblog.Corpus) {
	t.Helper()
	got, want := microblog.TermIndex(c), microblog.ReferenceIndex(c)
	if reflect.DeepEqual(got, want) {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d terms, reference %d", label, len(got), len(want))
	}
	for term, p := range want {
		if !reflect.DeepEqual(got[term], p) {
			t.Fatalf("%s: term %q posts %v, reference %v", label, term, got[term], p)
		}
	}
	t.Fatalf("%s: index differs from reference", label)
}

// TestBuildIndexMatchesReference pins the term-id index build to the
// map-based one it replaced: on generated corpora, on every shard
// partition (which reindexes a subset through FromTweets), and on a
// post that repeats a term.
func TestBuildIndexMatchesReference(t *testing.T) {
	w := world.Build(world.TinyConfig())
	for _, cfg := range []microblog.GenConfig{microblog.TinyGenConfig(), microblog.DefaultGenConfig()} {
		c := microblog.Generate(w, cfg)
		indexMatchesReference(t, fmt.Sprintf("Generate seed %d", cfg.Seed), c)
		for n := 1; n <= 3; n++ {
			for i := 0; i < n; i++ {
				indexMatchesReference(t, fmt.Sprintf("Partition(%d, %d)", i, n), shard.Partition(c, i, n))
			}
		}
	}

	repeat := microblog.BuildCorpus(w, []microblog.Post{
		{Author: 0, Text: "go go rust", Topic: -1},
		{Author: 1, Text: "rust go rust go", Topic: -1},
		{Author: 0, Text: "zig", Topic: -1},
	})
	indexMatchesReference(t, "repeated terms", repeat)
	for term, want := range map[string][]microblog.TweetID{"go": {0, 1}, "rust": {0, 1}, "zig": {2}} {
		if got := repeat.Postings(term); !reflect.DeepEqual(got, want) {
			t.Fatalf("Postings(%q) = %v, want %v", term, got, want)
		}
	}
}
