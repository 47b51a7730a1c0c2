package microblog

import (
	"testing"
	"unicode/utf8"

	"repro/internal/textutil"
	"repro/internal/world"
)

func tinyCorpus(t testing.TB) *Corpus {
	t.Helper()
	w := world.Build(world.TinyConfig())
	return Generate(w, TinyGenConfig())
}

func TestGenerateDeterministic(t *testing.T) {
	w := world.Build(world.TinyConfig())
	a := Generate(w, TinyGenConfig())
	b := Generate(w, TinyGenConfig())
	if a.NumTweets() != b.NumTweets() {
		t.Fatalf("tweet counts differ: %d vs %d", a.NumTweets(), b.NumTweets())
	}
	for i := 0; i < a.NumTweets(); i++ {
		if a.Tweet(TweetID(i)).Text != b.Tweet(TweetID(i)).Text {
			t.Fatalf("tweet %d differs", i)
		}
	}
}

func TestTweetsRespect140Chars(t *testing.T) {
	c := tinyCorpus(t)
	for i := 0; i < c.NumTweets(); i++ {
		tw := c.Tweet(TweetID(i))
		if n := utf8.RuneCountInString(tw.Text); n > 140 {
			t.Fatalf("tweet %d has %d runes", i, n)
		}
		if tw.Text == "" {
			t.Fatalf("tweet %d empty", i)
		}
	}
}

func TestPerUserCountersConsistent(t *testing.T) {
	c := tinyCorpus(t)
	w := c.World()
	tweetsBy := make([]int, len(w.Users))
	mentionsOf := make([]int, len(w.Users))
	retweetsOf := make([]int, len(w.Users))
	for i := 0; i < c.NumTweets(); i++ {
		tw := c.Tweet(TweetID(i))
		tweetsBy[tw.Author]++
		retweetsOf[tw.Author] += tw.RetweetCount
		for _, m := range tw.Mentions {
			mentionsOf[m]++
		}
	}
	for u := range w.Users {
		uid := world.UserID(u)
		if c.NumTweetsBy(uid) != tweetsBy[u] {
			t.Fatalf("user %d NumTweetsBy=%d, recount=%d", u, c.NumTweetsBy(uid), tweetsBy[u])
		}
		if c.NumMentionsOf(uid) != mentionsOf[u] {
			t.Fatalf("user %d NumMentionsOf=%d, recount=%d", u, c.NumMentionsOf(uid), mentionsOf[u])
		}
		if c.NumRetweetsOf(uid) != retweetsOf[u] {
			t.Fatalf("user %d NumRetweetsOf=%d, recount=%d", u, c.NumRetweetsOf(uid), retweetsOf[u])
		}
	}
}

func TestMatchFindsAllAndOnlyMatches(t *testing.T) {
	c := tinyCorpus(t)
	query := "49ers"
	got := c.Match(query)
	want := map[TweetID]bool{}
	qTokens := textutil.Tokenize(query)
	for i := 0; i < c.NumTweets(); i++ {
		if textutil.ContainsAll(c.Tweet(TweetID(i)).Terms, qTokens) {
			want[TweetID(i)] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("Match found %d tweets, brute force %d", len(got), len(want))
	}
	for _, id := range got {
		if !want[id] {
			t.Fatalf("Match returned non-matching tweet %d: %q", id, c.Tweet(id).Text)
		}
	}
}

func TestMatchMultiTokenQuery(t *testing.T) {
	c := tinyCorpus(t)
	got := c.Match("49ers draft")
	qTokens := textutil.Tokenize("49ers draft")
	for _, id := range got {
		if !textutil.ContainsAll(c.Tweet(id).Terms, qTokens) {
			t.Fatalf("tweet %q does not contain all tokens", c.Tweet(id).Text)
		}
	}
}

func TestMatchEdgeCases(t *testing.T) {
	c := tinyCorpus(t)
	if c.Match("") != nil {
		t.Error("empty query matched")
	}
	if c.Match("zqzqzq never-used-token") != nil {
		t.Error("unknown token matched")
	}
}

func TestMatchSorted(t *testing.T) {
	c := tinyCorpus(t)
	ids := c.Match("49ers")
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatal("Match result not sorted")
		}
	}
}

func TestExpertsTweetTheirTopics(t *testing.T) {
	c := tinyCorpus(t)
	w := c.World()
	id49, _ := w.KeywordOwner("49ers")
	experts := w.ExpertsOn(id49)
	matched := c.Match("49ers")
	if len(matched) == 0 {
		t.Fatal("no tweets match 49ers")
	}
	byExpert := 0
	for _, tid := range matched {
		author := c.Tweet(tid).Author
		for _, e := range experts {
			if author == e {
				byExpert++
				break
			}
		}
	}
	if byExpert == 0 {
		t.Error("no 49ers tweets authored by 49ers experts")
	}
}

func TestRecallGapExists(t *testing.T) {
	// The motivating asymmetry: a high-search, low-tweet keyword must
	// match far fewer posts than the topic's head keyword.
	c := tinyCorpus(t)
	head := len(c.Match("49ers"))
	rare := len(c.Match("49ers schedule")) // TweetRate 0.01
	if head == 0 {
		t.Fatal("head keyword unmatched")
	}
	if rare*5 > head {
		t.Errorf("no recall gap: head=%d rare=%d", head, rare)
	}
}

func TestMentionsCarryTopicKeywords(t *testing.T) {
	c := tinyCorpus(t)
	found := false
	for i := 0; i < c.NumTweets() && !found; i++ {
		tw := c.Tweet(TweetID(i))
		if len(tw.Mentions) > 0 && tw.Topic >= 0 {
			found = true
			// The mention post must match at least one keyword of its topic.
			topic := c.World().Topic(tw.Topic)
			any := false
			for _, kw := range topic.Keywords {
				if textutil.ContainsAll(tw.Terms, textutil.Tokenize(kw.Text)) {
					any = true
					break
				}
			}
			if !any {
				t.Errorf("mention post %q carries no keyword of topic %q", tw.Text, topic.Name)
			}
		}
	}
	if !found {
		t.Error("no topical mention posts generated")
	}
}

func TestSpammersPostKeywordBait(t *testing.T) {
	c := tinyCorpus(t)
	w := c.World()
	spamPosts := 0
	for i := 0; i < c.NumTweets(); i++ {
		tw := c.Tweet(TweetID(i))
		if w.User(tw.Author).Kind == world.SpamUser {
			spamPosts++
		}
	}
	if spamPosts == 0 {
		t.Error("no spam posts generated")
	}
}

func TestNewsUsersProlific(t *testing.T) {
	c := tinyCorpus(t)
	w := c.World()
	var newsTotal, newsCount, casualTotal, casualCount int
	for i := range w.Users {
		switch w.Users[i].Kind {
		case world.NewsUser:
			newsTotal += c.NumTweetsBy(w.Users[i].ID)
			newsCount++
		case world.CasualUser:
			casualTotal += c.NumTweetsBy(w.Users[i].ID)
			casualCount++
		}
	}
	if newsCount == 0 || casualCount == 0 {
		t.Skip("population too small")
	}
	newsAvg := float64(newsTotal) / float64(newsCount)
	casualAvg := float64(casualTotal) / float64(casualCount)
	if newsAvg <= casualAvg {
		t.Errorf("news accounts (%.1f posts) not more prolific than casual (%.1f)", newsAvg, casualAvg)
	}
}

func BenchmarkMatch(b *testing.B) {
	c := tinyCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Match("49ers")
	}
}

func BenchmarkGenerate(b *testing.B) {
	w := world.Build(world.TinyConfig())
	cfg := TinyGenConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Generate(w, cfg)
	}
}

// BenchmarkCorpusGenerate builds perfbench's corpus: the default world
// and the default generator config, indexed — the setup.corpus_s stage.
func BenchmarkCorpusGenerate(b *testing.B) {
	w := world.Build(world.DefaultConfig())
	cfg := DefaultGenConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Generate(w, cfg)
	}
}
