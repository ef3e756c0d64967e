// Package cluster provides cluster-wide plumbing shared by all engines: the
// key→replicas lookup function of §II ("for object reachability, we assume
// the existence of a local look-up function that matches keys with nodes")
// and small helpers for assembling node sets.
package cluster

import (
	"sort"

	"github.com/sss-paper/sss/internal/wire"
)

// Lookup deterministically maps keys to their replica nodes: the primary is
// chosen by hash, and the remaining degree-1 replicas are the consecutive
// nodes. This realizes the paper's general partial-replication scheme with a
// configurable replication degree (2 in Figures 3/4/5/7; 1 — no replication
// — in the ROCOCO comparisons of Figures 6/8).
type Lookup struct {
	n      int
	degree int
}

// NewLookup builds a lookup over n nodes with the given replication degree.
// The degree is clamped to [1, n].
func NewLookup(n, degree int) Lookup {
	if degree < 1 {
		degree = 1
	}
	if degree > n {
		degree = n
	}
	return Lookup{n: n, degree: degree}
}

// N returns the cluster size.
func (l Lookup) N() int { return l.n }

// Degree returns the replication degree.
func (l Lookup) Degree() int { return l.degree }

// Primary returns the key's primary node (Walter's "preferred site").
func (l Lookup) Primary(key string) wire.NodeID {
	return wire.NodeID(KeyHash(key) % uint32(l.n))
}

// Replicas returns the nodes storing key, primary first.
func (l Lookup) Replicas(key string) []wire.NodeID {
	out := make([]wire.NodeID, l.degree)
	p := int(l.Primary(key))
	for i := 0; i < l.degree; i++ {
		out[i] = wire.NodeID((p + i) % l.n)
	}
	return out
}

// IsReplica reports whether node stores key.
func (l Lookup) IsReplica(key string, node wire.NodeID) bool {
	p := int(l.Primary(key))
	d := (int(node) - p + l.n) % l.n
	return d < l.degree
}

// ReplicaSet returns the deduplicated, sorted union of the replicas of all
// given keys — the participant set of a 2PC (Algorithm 1 line 11).
func (l Lookup) ReplicaSet(keys ...[]string) []wire.NodeID {
	set := make(map[wire.NodeID]struct{})
	for _, group := range keys {
		for _, k := range group {
			for _, n := range l.Replicas(k) {
				set[n] = struct{}{}
			}
		}
	}
	out := make([]wire.NodeID, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// KeyHash is the 32-bit FNV-1a hash of key: the one key hash of the tree,
// behind replica placement here and the lock, version-store and baseline
// stripe tables. Changing it moves every key.
func KeyHash(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}
