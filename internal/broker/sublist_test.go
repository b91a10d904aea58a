package broker

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// differential harness: the index's trie must agree with the reference
// Match on every (subject, pattern) pair.

func matchSubs(sl *sublist, subject string) map[*serverSub]bool {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	rs := sl.matchBytes([]byte(subject))
	got := make(map[*serverSub]bool)
	for _, s := range rs.plain {
		got[s] = true
	}
	for _, members := range rs.queues {
		for _, s := range members {
			got[s] = true
		}
	}
	return got
}

func TestTrieMatchesReferenceMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tokens := []string{"a", "b", "c", "uav1", "infrared", "video"}
	randPattern := func(wild bool) string {
		n := 1 + rng.Intn(4)
		p := ""
		for i := 0; i < n; i++ {
			if i > 0 {
				p += "."
			}
			if wild && rng.Intn(4) == 0 {
				if i == n-1 && rng.Intn(2) == 0 {
					p += ">"
					break
				}
				p += "*"
			} else {
				p += tokens[rng.Intn(len(tokens))]
			}
		}
		return p
	}

	sl := newSublist(1)
	var subs []*serverSub
	for i := 0; i < 200; i++ {
		sub := &serverSub{pattern: randPattern(true), sid: fmt.Sprint(i)}
		if ValidatePattern(sub.pattern) != nil {
			continue
		}
		subs = append(subs, sub)
		sl.insert(sub)
	}
	check := func() {
		for i := 0; i < 300; i++ {
			subject := randPattern(false)
			if ValidateSubject(subject) != nil {
				continue
			}
			got := matchSubs(sl, subject)
			for _, sub := range subs {
				want := Match(subject, sub.pattern)
				if got[sub] != want {
					t.Fatalf("subject %q pattern %q: trie=%v reference=%v",
						subject, sub.pattern, got[sub], want)
				}
			}
		}
	}
	check()
	// Remove half and re-verify: removal and pruning must not disturb
	// the survivors.
	keep := subs[:0]
	for i, sub := range subs {
		if i%2 == 0 {
			if !sl.remove(sub) {
				t.Fatalf("remove(%q) reported missing", sub.pattern)
			}
		} else {
			keep = append(keep, sub)
		}
	}
	subs = keep
	check()
	// Remove the rest: the trie must prune back to empty.
	for _, sub := range subs {
		sl.remove(sub)
	}
	subs = nil
	if len(sl.root.next) != 0 {
		t.Errorf("trie not pruned to empty: %d root children", len(sl.root.next))
	}
	check()
}

func TestMatchCacheGeneration(t *testing.T) {
	sl := newSublist(1)
	match := func() *routeSet {
		sl.mu.Lock()
		defer sl.mu.Unlock()
		return sl.matchBytes([]byte("x.y"))
	}
	a := &serverSub{pattern: "x.y", sid: "1"}
	sl.insert(a)
	rs1 := match()
	if len(rs1.plain) != 1 {
		t.Fatalf("plain = %d, want 1", len(rs1.plain))
	}
	// Cache hit must return the identical set while the gen is stable.
	if rs2 := match(); rs2 != rs1 {
		t.Error("cache miss on unchanged generation")
	}
	// Any sub/unsub bumps the generation and invalidates the entry.
	b := &serverSub{pattern: "x.*", sid: "2"}
	sl.insert(b)
	rs3 := match()
	if rs3 == rs1 {
		t.Error("stale cache entry served after insert")
	}
	if len(rs3.plain) != 2 {
		t.Errorf("plain = %d after wildcard insert, want 2", len(rs3.plain))
	}
	sl.remove(a)
	if rs4 := match(); len(rs4.plain) != 1 {
		t.Errorf("plain = %d after remove, want 1", len(rs4.plain))
	}
}

// TestUnsubWildcardFirst pins UNSUB of a pattern whose first token is a
// wildcard: it must remove the sub, prune the emptied trie path, and bump
// the generation so a cached match result that holds the sub is
// revalidated away.
func TestUnsubWildcardFirst(t *testing.T) {
	s := NewServer(WithSeed(1))
	c := &serverClient{srv: s, subs: make(map[string][]*serverSub)}
	c.out.init(1<<10, 1<<20, nil)
	sub := &serverSub{client: c, pattern: "*.alerts", sid: "w1"}
	s.addSub(sub)

	const subject = "tok.alerts"
	if !matchSubs(s.sl, subject)[sub] {
		t.Fatalf("wildcard-first sub not matched by %q before UNSUB", subject)
	}
	s.sl.mu.Lock()
	if _, ok := s.sl.cache[subject]; !ok {
		t.Fatal("match did not prime the cache")
	}
	gen := s.sl.gen
	s.sl.mu.Unlock()

	s.removeSub(c, "w1")

	if n := s.NumSubscriptions(); n != 0 {
		t.Fatalf("NumSubscriptions = %d after UNSUB, want 0", n)
	}
	if got := matchSubs(s.sl, subject); len(got) != 0 {
		t.Errorf("%d subs still matched after UNSUB", len(got))
	}
	s.sl.mu.Lock()
	defer s.sl.mu.Unlock()
	if s.sl.gen == gen {
		t.Error("generation unchanged by UNSUB — stale cache entries would survive")
	}
	if !s.sl.root.empty() {
		t.Error("trie path not pruned after UNSUB")
	}
}

// TestUnsubPrunesDeepPatterns: a client may SUB patterns as long as a
// control line allows, so UNSUB must prune the whole trie path of a
// pattern at any depth, or one connection cycling fresh tokens grows the
// trie without bound.
func TestUnsubPrunesDeepPatterns(t *testing.T) {
	s := NewServer(WithSeed(1))
	c := coreConn(s)
	for i := 0; i < 100; i++ {
		toks := make([]string, 40)
		for j := range toks {
			toks[j] = fmt.Sprintf("p%d_%d", i, j)
		}
		line := "SUB " + strings.Join(toks, ".") + " 1\r\nUNSUB 1\r\n"
		if !c.feed(0, []byte(line)) {
			t.Fatalf("pair %d: connection dropped", i)
		}
	}
	if out := drainCore(c); out != "" {
		t.Fatalf("unexpected replies %q", out)
	}
	s.sl.mu.Lock()
	defer s.sl.mu.Unlock()
	if n := len(s.sl.root.next); n != 0 {
		t.Errorf("trie holds %d root children after every UNSUB, want 0", n)
	}
}
