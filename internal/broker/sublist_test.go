package broker

import (
	"fmt"
	"math/rand"
	"testing"
)

// differential harness: a shard's trie must agree with the reference
// Match on every (subject, pattern) pair.

func shardMatchSubs(sh *shard, subject string) map[*serverSub]bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rs := sh.matchBytes([]byte(subject))
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

	sh := newShard(1)
	var subs []*serverSub
	for i := 0; i < 200; i++ {
		sub := &serverSub{pattern: randPattern(true), sid: fmt.Sprint(i)}
		if ValidatePattern(sub.pattern) != nil {
			continue
		}
		subs = append(subs, sub)
		sh.mu.Lock()
		sh.insert(sub)
		sh.mu.Unlock()
	}
	check := func() {
		for i := 0; i < 300; i++ {
			subject := randPattern(false)
			if ValidateSubject(subject) != nil {
				continue
			}
			got := shardMatchSubs(sh, subject)
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
			sh.mu.Lock()
			if !sh.remove(sub) {
				t.Fatalf("remove(%q) reported missing", sub.pattern)
			}
			sh.mu.Unlock()
		} else {
			keep = append(keep, sub)
		}
	}
	subs = keep
	check()
	// Remove the rest: the trie must prune back to empty.
	for _, sub := range subs {
		sh.mu.Lock()
		sh.remove(sub)
		sh.mu.Unlock()
	}
	subs = nil
	if len(sh.root.next) != 0 {
		t.Errorf("trie not pruned to empty: %d root children", len(sh.root.next))
	}
	check()
}

func TestMatchCacheGeneration(t *testing.T) {
	sh := newShard(1)
	a := &serverSub{pattern: "x.y", sid: "1"}
	sh.mu.Lock()
	sh.insert(a)
	rs1 := sh.matchBytes([]byte("x.y"))
	if len(rs1.plain) != 1 {
		t.Fatalf("plain = %d, want 1", len(rs1.plain))
	}
	// Cache hit must return the identical set while the gen is stable.
	if rs2 := sh.matchBytes([]byte("x.y")); rs2 != rs1 {
		t.Error("cache miss on unchanged generation")
	}
	// Any sub/unsub bumps the generation and invalidates the entry.
	b := &serverSub{pattern: "x.*", sid: "2"}
	sh.insert(b)
	rs3 := sh.matchBytes([]byte("x.y"))
	if rs3 == rs1 {
		t.Error("stale cache entry served after insert")
	}
	if len(rs3.plain) != 2 {
		t.Errorf("plain = %d after wildcard insert, want 2", len(rs3.plain))
	}
	sh.remove(a)
	if rs4 := sh.matchBytes([]byte("x.y")); len(rs4.plain) != 1 {
		t.Errorf("plain = %d after remove, want 1", len(rs4.plain))
	}
	sh.mu.Unlock()
}

func TestShardIndexRouting(t *testing.T) {
	const n = 8
	// A subject and a pattern sharing a first literal token must land on
	// the same shard; wildcard-first patterns go everywhere.
	if shardIndex("sensors.uav1.infrared", n) != shardIndex([]byte("sensors.x"), n) {
		t.Error("subject and pattern with same first token map to different shards")
	}
	if shardIndex("*.uav1", n) != -1 || shardIndex(">", n) != -1 {
		t.Error("wildcard-first pattern should map to all shards (-1)")
	}
	if got := shardIndex("sensors", n); got < 0 || got >= n {
		t.Errorf("shard index %d out of range", got)
	}
}

// TestUnsubWildcardFirstCleansAllShards pins the replicated-removal
// path: a wildcard-first pattern is inserted into every shard by
// eachPatternShard, so UNSUB must remove it from every shard, prune the
// emptied trie paths, and bump every shard's generation so stale cached
// match results are revalidated away.
func TestUnsubWildcardFirstCleansAllShards(t *testing.T) {
	const shards = 8
	s := NewServer(WithSeed(1), WithShards(shards))
	c := &serverClient{srv: s, subs: make(map[string][]*serverSub)}
	c.out.init(1<<10, 1<<20, nil)
	sub := &serverSub{client: c, pattern: "*.alerts", sid: "w1"}
	s.addSub(sub)

	// One concrete subject per shard, found by hashing candidate first
	// tokens — so every shard's match cache gets primed with an entry
	// that includes the wildcard sub.
	subjects := make([]string, shards)
	for i := 0; len(subjects[i%shards]) == 0 || i < shards; i++ {
		subj := fmt.Sprintf("tok%d.alerts", i)
		idx := shardIndex(subj, shards)
		if subjects[idx] == "" {
			subjects[idx] = subj
		}
		done := true
		for _, s := range subjects {
			if s == "" {
				done = false
				break
			}
		}
		if done {
			break
		}
	}
	gens := make([]uint64, shards)
	for i, sh := range s.shards {
		if !shardMatchSubs(sh, subjects[i])[sub] {
			t.Fatalf("shard %d: wildcard-first sub not matched by %q before UNSUB", i, subjects[i])
		}
		sh.mu.Lock()
		if _, ok := sh.cache[subjects[i]]; !ok {
			t.Fatalf("shard %d: match did not prime the cache", i)
		}
		gens[i] = sh.gen
		sh.mu.Unlock()
	}

	s.removeSub(c, "w1")

	if n := s.NumSubscriptions(); n != 0 {
		t.Fatalf("NumSubscriptions = %d after UNSUB, want 0", n)
	}
	for i, sh := range s.shards {
		if got := shardMatchSubs(sh, subjects[i]); len(got) != 0 {
			t.Errorf("shard %d: %d subs still matched after UNSUB", i, len(got))
		}
		sh.mu.Lock()
		if sh.gen == gens[i] {
			t.Errorf("shard %d: generation unchanged by UNSUB — stale cache entries would survive", i)
		}
		if !sh.root.empty() {
			t.Errorf("shard %d: trie path not pruned after UNSUB", i)
		}
		sh.mu.Unlock()
	}
}
