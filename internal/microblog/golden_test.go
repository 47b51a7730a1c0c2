package microblog

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/world"
)

// corpusDigest hashes every generated artifact of a corpus: each tweet
// field in id order and the per-user counters.
func corpusDigest(c *Corpus) string {
	h := sha256.New()
	for _, tw := range c.Tweets() {
		fmt.Fprintf(h, "%d|%d|%q|%q|%v|%d|%d\n", tw.ID, tw.Author, tw.Text, tw.Terms, tw.Mentions, tw.RetweetCount, tw.Topic)
	}
	for u := 0; u < c.NumUsers(); u++ {
		uid := world.UserID(u)
		fmt.Fprintf(h, "%d|%d|%d\n", c.NumTweetsBy(uid), c.NumMentionsOf(uid), c.NumRetweetsOf(uid))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateGolden pins Generate's output to digests recorded before
// the generator's string building and slice sizing were reworked: the
// same seed must keep producing the same corpus, byte for byte.
func TestGenerateGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		world world.Config
		gen   GenConfig
		want  string
	}{
		{"tiny", world.TinyConfig(), TinyGenConfig(), "4c6adb71a918484faec8ac3b6df561d2f937ff6cecbcbfb6d43c7305141bbe7e"},
		{"default", world.DefaultConfig(), DefaultGenConfig(), "ae3ad4476c5b05629a5a176721218a68c01ab8265caf187bb9b530f05010ac9a"},
	} {
		if got := corpusDigest(Generate(world.Build(tc.world), tc.gen)); got != tc.want {
			t.Errorf("%s: corpus digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
