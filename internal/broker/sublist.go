package broker

import (
	"math/rand"
	"sort"
	"strings"
	"sync"
)

// Routing has one index: a subject-token trie under one mutex. Each trie
// edge is one token, with '*' and '>' as ordinary edge labels. A match
// walks the subject's tokens, following at most the literal edge and the
// '*' edge per level, and collects '>'-terminals whenever at least one
// token remains. On top of the trie sits a match cache keyed by the
// concrete subject; every sub/unsub bumps a generation counter, and cached
// entries are revalidated against it on lookup, so the cache never needs
// explicit invalidation lists.

// maxCachedSubjects caps the match cache; when full, the whole map is
// dropped (a publish-path cache rebuild is cheap and self-limiting).
const maxCachedSubjects = 65536

// sublist is the routing index: the trie, its match cache, the rng used
// for queue-group member picks, and the data-path counters of what was
// routed through it (stats.go), all guarded by mu.
type sublist struct {
	mu    sync.Mutex
	root  *trieNode
	cache map[string]*routeSet
	gen   uint64
	rng   *rand.Rand
	flow  flowStats
}

// trieNode is one token position. Terminal subscriptions (patterns that
// end here) are split into plain subs and queue groups; children are
// keyed by the next token, with "*" and ">" as literal keys.
type trieNode struct {
	next  map[string]*trieNode
	psubs []*serverSub
	qsubs map[string][]*serverSub
}

func (n *trieNode) empty() bool {
	return len(n.next) == 0 && len(n.psubs) == 0 && len(n.qsubs) == 0
}

// routeSet is the flattened match result for one concrete subject: the
// plain subscriptions plus one member-slice per (pattern, queue) group.
// A cached routeSet is only trusted while its gen matches the index's.
type routeSet struct {
	gen    uint64
	plain  []*serverSub
	queues [][]*serverSub
}

func newSublist(seed int64) *sublist {
	return &sublist{
		root:  &trieNode{},
		cache: make(map[string]*routeSet),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// insert adds sub under its pattern.
func (sl *sublist) insert(sub *serverSub) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	n := sl.root
	rest := sub.pattern
	for {
		tok, tail, more := nextToken(rest)
		child := n.next[tok]
		if child == nil {
			child = &trieNode{}
			if n.next == nil {
				n.next = make(map[string]*trieNode)
			}
			n.next[tok] = child
		}
		n = child
		if !more {
			break
		}
		rest = tail
	}
	if sub.queue == "" {
		n.psubs = append(n.psubs, sub)
	} else {
		if n.qsubs == nil {
			n.qsubs = make(map[string][]*serverSub)
		}
		n.qsubs[sub.queue] = append(n.qsubs[sub.queue], sub)
	}
	sl.gen++
}

// remove deletes sub by identity and prunes now-empty trie nodes.
// Reports whether the sub was present.
func (sl *sublist) remove(sub *serverSub) bool {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	// Record the path so empty nodes can be pruned bottom-up.
	type step struct {
		node *trieNode
		tok  string
	}
	var buf [16]step
	path := buf[:0]
	n := sl.root
	rest := sub.pattern
	for {
		tok, tail, more := nextToken(rest)
		child := n.next[tok]
		if child == nil {
			return false
		}
		path = append(path, step{n, tok})
		n = child
		if !more {
			break
		}
		rest = tail
	}
	removed := false
	if sub.queue == "" {
		for i, s := range n.psubs {
			if s == sub {
				n.psubs[i] = n.psubs[len(n.psubs)-1]
				n.psubs = n.psubs[:len(n.psubs)-1]
				removed = true
				break
			}
		}
	} else if members := n.qsubs[sub.queue]; members != nil {
		for i, s := range members {
			if s == sub {
				members[i] = members[len(members)-1]
				n.qsubs[sub.queue] = members[:len(members)-1]
				removed = true
				break
			}
		}
		if len(n.qsubs[sub.queue]) == 0 {
			delete(n.qsubs, sub.queue)
		}
	}
	if !removed {
		return false
	}
	for i := len(path) - 1; i >= 0 && n.empty(); i-- {
		delete(path[i].node.next, path[i].tok)
		n = path[i].node
	}
	sl.gen++
	return true
}

// matchBytes returns the routeSet for subject, from cache when the
// generation still matches, rebuilding (and re-caching) otherwise. The
// cache probe uses the compiler's map[string]lookup-by-[]byte optimization,
// so a cache hit — the overwhelmingly common case in steady state —
// allocates nothing; only a rebuild materializes the subject as a string
// (for collect and the cache key). Caller holds sl.mu; the returned set is
// only valid while the lock is held.
func (sl *sublist) matchBytes(subject []byte) *routeSet {
	if rs, ok := sl.cache[string(subject)]; ok && rs.gen == sl.gen {
		return rs
	}
	subj := string(subject)
	rs := &routeSet{gen: sl.gen}
	collect(sl.root, subj, rs)
	if len(sl.cache) >= maxCachedSubjects {
		sl.cache = make(map[string]*routeSet)
	}
	sl.cache[subj] = rs
	return rs
}

// collect walks the trie for the remaining subject tokens, appending
// matches to rs. rest == "" means all tokens are consumed.
func collect(n *trieNode, rest string, rs *routeSet) {
	if fwc := n.next[">"]; fwc != nil && rest != "" {
		// '>' matches one or more remaining tokens.
		rs.add(fwc)
	}
	if rest == "" {
		rs.add(n)
		return
	}
	tok, tail, _ := nextToken(rest)
	if c := n.next[tok]; c != nil {
		collect(c, tail, rs)
	}
	if c := n.next["*"]; c != nil {
		collect(c, tail, rs)
	}
}

func (rs *routeSet) add(n *trieNode) {
	if len(n.psubs) > 0 {
		rs.plain = append(rs.plain, n.psubs...)
	}
	switch len(n.qsubs) {
	case 0:
	case 1:
		for _, members := range n.qsubs {
			rs.queues = append(rs.queues, members)
		}
	default:
		// Iterate queue groups in sorted name order so the rng pick
		// sequence (and thus seeded runs) is reproducible: Go map
		// iteration order would otherwise vary run to run.
		names := make([]string, 0, len(n.qsubs))
		for name := range n.qsubs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			rs.queues = append(rs.queues, n.qsubs[name])
		}
	}
}

// nextToken splits the leading dot token off rest. more reports whether
// a tail remains (distinguishing "a" from trailing content).
func nextToken(rest string) (tok, tail string, more bool) {
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		return rest[:i], rest[i+1:], true
	}
	return rest, "", false
}
