// Live-corpus construction: the incremental entry points the streaming
// ingestion subsystem (internal/ingest) builds segments from. A frozen
// Corpus is still produced by Generate; the functions here construct
// the same indexed structure from explicit posts — one batch at a time
// (FromTweets, used when sealing and compacting segments) or as a cold
// rebuild over old-plus-new content (ExtendedWith, the reference the
// live index is checked against). PostStream generates an endless
// deterministic stream of live posts from the same world model, feeding
// load generators and the streaming demo.
package microblog

import (
	"repro/internal/textutil"
	"repro/internal/world"
	"repro/internal/xrand"
)

// Post is one raw incoming microblog post, before truncation and
// tokenization. It is the wire format of the live ingestion path.
type Post struct {
	Author world.UserID
	Text   string
	// Mentions lists the users @-mentioned in the post.
	Mentions []world.UserID
	// RetweetCount is how many times the post was retweeted.
	RetweetCount int
	// Topic is generator ground truth (-1 for chatter).
	Topic world.TopicID
}

// MakeTweet renders a post into an unindexed Tweet: the text is
// truncated to 140 runes and tokenized exactly as Generate does, so a
// post ingested live and the same post in a cold rebuild carry
// identical terms. The ID is left for the indexing corpus to assign.
func MakeTweet(p Post) Tweet {
	text := textutil.TruncateRunes(p.Text, 140)
	return Tweet{
		Author:       p.Author,
		Text:         text,
		Terms:        textutil.Tokenize(text),
		Mentions:     p.Mentions,
		RetweetCount: p.RetweetCount,
		Topic:        p.Topic,
	}
}

// newShell returns an empty corpus wired to w.
func newShell(w *world.World) *Corpus {
	return &Corpus{
		w:          w,
		tweetsBy:   make([]int, len(w.Users)),
		mentionsOf: make([]int, len(w.Users)),
		retweetsOf: make([]int, len(w.Users)),
	}
}

// FromTweets indexes an explicit, already-rendered tweet sequence. IDs
// are reassigned to the position in the sequence; Terms slices are
// shared with the input, not re-tokenized. This is the segment
// constructor of the live index: sealing hands it the active tail, and
// compaction hands it the concatenation of adjacent segments' tweets.
func FromTweets(w *world.World, tweets []Tweet) *Corpus {
	c := newShell(w)
	c.tweets = make([]Tweet, 0, len(tweets))
	for _, tw := range tweets {
		c.appendTweet(tw)
	}
	c.buildIndex()
	return c
}

// BuildCorpus renders and indexes raw posts (ids 0..len(posts)-1).
func BuildCorpus(w *world.World, posts []Post) *Corpus {
	c := newShell(w)
	c.tweets = make([]Tweet, 0, len(posts))
	for _, p := range posts {
		c.appendTweet(MakeTweet(p))
	}
	c.buildIndex()
	return c
}

// ExtendedWith returns a new corpus holding c's tweets followed by the
// rendered posts — the cold, from-scratch rebuild a quiesced live index
// must be bit-identical to. c is not modified.
func (c *Corpus) ExtendedWith(posts []Post) *Corpus {
	all := make([]Tweet, 0, len(c.tweets)+len(posts))
	all = append(all, c.tweets...)
	for _, p := range posts {
		all = append(all, MakeTweet(p))
	}
	return FromTweets(c.w, all)
}

// Tweets returns the corpus's tweet slice in id order. The slice is
// index-owned — callers must treat it as read-only. Compaction uses it
// to concatenate adjacent segments.
func (c *Corpus) Tweets() []Tweet { return c.tweets }

// StreamConfig tunes a PostStream.
type StreamConfig struct {
	Seed uint64
	// Gen supplies the per-kind behaviour rates (off-topic chance,
	// second keywords, retweet boost); the per-user volume means are
	// reused as author-selection weights.
	Gen GenConfig
	// MentionRate is the chance an expert's turn emits a fan post
	// mentioning the expert instead of the expert's own post, feeding
	// the mention-impact feature of live candidates.
	MentionRate float64
}

// DefaultStreamConfig returns stream defaults matching the corpus
// generator's behaviour rates.
func DefaultStreamConfig(seed uint64) StreamConfig {
	return StreamConfig{Seed: seed, Gen: DefaultGenConfig(), MentionRate: 0.15}
}

// PostStream is an endless deterministic generator of live posts drawn
// from the same world model as Generate: experts post topical keywords
// by TweetRate, casuals post chatter, spammers stuff trending keywords,
// and fans occasionally mention productive experts. It is not safe for
// concurrent use — give each ingester goroutine its own stream (vary
// the seed).
type PostStream struct {
	w          *world.World
	cfg        StreamConfig
	rng        *xrand.RNG
	authors    *xrand.Weighted
	kwSamplers []*xrand.Weighted
	spamTopics *xrand.Weighted
	casuals    []world.UserID
}

// NewPostStream builds a stream over w, deterministic in cfg.Seed.
func NewPostStream(w *world.World, cfg StreamConfig) *PostStream {
	rng := xrand.New(cfg.Seed)
	s := &PostStream{w: w, cfg: cfg, rng: rng}

	// Author selection is weighted by each user's mean posting volume,
	// so the live mix matches the static corpus's authorship skew.
	weights := make([]float64, len(w.Users))
	for i := range w.Users {
		u := &w.Users[i]
		switch u.Kind {
		case world.ExpertUser, world.NewsUser:
			weights[i] = cfg.Gen.TweetsPerExpert * (0.3 + u.Influence)
		case world.CasualUser:
			weights[i] = cfg.Gen.TweetsPerCasual
			s.casuals = append(s.casuals, u.ID)
		case world.SpamUser:
			weights[i] = cfg.Gen.TweetsPerSpammer
		}
		weights[i] += 1e-9
	}
	s.authors = xrand.NewWeighted(rng.Split(), weights)

	s.kwSamplers = make([]*xrand.Weighted, len(w.Topics))
	for i := range w.Topics {
		kws := w.Topics[i].Keywords
		kwWeights := make([]float64, len(kws))
		for j := range kws {
			kwWeights[j] = kws[j].TweetRate + 1e-6
		}
		s.kwSamplers[i] = xrand.NewWeighted(rng.Split(), kwWeights)
	}

	spamWeights := make([]float64, len(w.Topics))
	for i := range w.Topics {
		spamWeights[i] = w.Topics[i].TweetPop*w.Topics[i].TweetActivity + 1e-9
	}
	s.spamTopics = xrand.NewWeighted(rng.Split(), spamWeights)
	return s
}

// Next returns the next post of the stream.
func (s *PostStream) Next() Post {
	u := &s.w.Users[s.authors.Draw()]
	switch u.Kind {
	case world.ExpertUser, world.NewsUser:
		if s.rng.Bool(s.cfg.Gen.OffTopicRate) || len(u.Topics) == 0 {
			return s.chatter(u.ID)
		}
		topic := u.Topics[s.rng.Intn(len(u.Topics))]
		if !s.rng.Bool(s.w.Topic(topic).TweetActivity) {
			return s.chatter(u.ID)
		}
		if s.rng.Bool(s.cfg.MentionRate*u.Influence*2) && len(s.casuals) > 0 {
			return s.fanMention(u.ID, topic)
		}
		return s.topical(u.ID, topic)
	case world.SpamUser:
		topic := world.TopicID(s.spamTopics.Draw())
		kw := s.w.Topic(topic).Keywords[0].Text
		return Post{
			Author: u.ID,
			Text:   "free prizes " + kw + " click here " + fillerWords[s.rng.Intn(len(fillerWords))],
			Topic:  -1,
		}
	default:
		return s.chatter(u.ID)
	}
}

// topical emits one on-topic post mirroring the static generator's
// keyword usage: one TweetRate-weighted keyword, occasionally two.
func (s *PostStream) topical(author world.UserID, topic world.TopicID) Post {
	t := s.w.Topic(topic)
	kw := t.Keywords[s.kwSamplers[topic].Draw()].Text
	text := fillerWords[s.rng.Intn(len(fillerWords))] + " " + kw
	if s.rng.Bool(s.cfg.Gen.SecondKeywordRate) {
		if second := t.Keywords[s.kwSamplers[topic].Draw()].Text; second != kw {
			text += " " + second
		}
	}
	text += " " + fillerWords[s.rng.Intn(len(fillerWords))]
	return Post{
		Author:       author,
		Text:         text,
		RetweetCount: s.rng.Poisson(s.cfg.Gen.RetweetBoost * s.w.User(author).Influence * 2),
		Topic:        topic,
	}
}

// fanMention emits a casual user's post that @-mentions the expert with
// a topical keyword.
func (s *PostStream) fanMention(expert world.UserID, topic world.TopicID) Post {
	fan := s.casuals[s.rng.Intn(len(s.casuals))]
	kw := s.w.Topic(topic).Keywords[s.kwSamplers[topic].Draw()].Text
	return Post{
		Author: fan,
		Text: "@" + s.w.User(expert).ScreenName + " great takes on " + kw +
			" " + fillerWords[s.rng.Intn(len(fillerWords))],
		Mentions:     []world.UserID{expert},
		RetweetCount: s.rng.Poisson(0.2),
		Topic:        topic,
	}
}

// chatter emits a generic off-topic post.
func (s *PostStream) chatter(author world.UserID) Post {
	text := ""
	n := 2 + s.rng.Intn(4)
	for i := 0; i < n; i++ {
		if i > 0 {
			text += " "
		}
		text += fillerWords[s.rng.Intn(len(fillerWords))]
	}
	var mentions []world.UserID
	if s.rng.Bool(0.08) {
		other := world.UserID(s.rng.Intn(len(s.w.Users)))
		if other != author {
			text += " @" + s.w.User(other).ScreenName
			mentions = append(mentions, other)
		}
	}
	return Post{Author: author, Text: text, Mentions: mentions,
		RetweetCount: s.rng.Poisson(0.05), Topic: -1}
}
