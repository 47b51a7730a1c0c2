package microblog

import "sort"

// TermIndex exposes a corpus's inverted index to the external tests.
func TermIndex(c *Corpus) map[string][]TweetID { return c.termIndex }

// ReferenceIndex is buildIndex as it stood before the term-id table: a
// fresh seen-set per post and a map write per distinct token. It is the
// oracle the map-free build must match list for list.
func ReferenceIndex(c *Corpus) map[string][]TweetID {
	termIndex := map[string][]TweetID{}
	for i := range c.tweets {
		seen := map[string]bool{}
		for _, tok := range c.tweets[i].Terms {
			if seen[tok] {
				continue
			}
			seen[tok] = true
			termIndex[tok] = append(termIndex[tok], c.tweets[i].ID)
		}
	}
	// Posting lists are already sorted because tweets are appended in id
	// order, but assert the invariant cheaply in debug-style.
	for _, p := range termIndex {
		if !sort.SliceIsSorted(p, func(i, j int) bool { return p[i] < p[j] }) {
			panic("microblog: posting list not sorted")
		}
	}
	return termIndex
}
