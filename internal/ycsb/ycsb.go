// Package ycsb generates the paper's evaluation workloads (§V): a YCSB-like
// key-value benchmark with two transaction profiles — update transactions
// that read and write two keys, and read-only transactions that read two or
// more keys — over a keyspace of 5k or 10k keys, with a configurable
// read-only percentage, uniform or locality-biased key selection, and an
// optional Zipf-skewed distribution (math/rand's, which is much steeper than
// YCSB's zipfian at the same parameter — see ZipfTheta).
package ycsb

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/wire"
)

// Distribution selects how keys are drawn.
type Distribution uint8

// Key-selection distributions.
const (
	// Uniform draws keys uniformly from the keyspace (the paper's default).
	Uniform Distribution = iota + 1
	// Local draws, with probability Locality, a key replicated on the
	// client's node, and uniformly otherwise (the 50%-locality runs of
	// Figure 7).
	Local
	// Zipfian draws key i with probability ∝ (1+i)^-(1+ZipfTheta) — a
	// hotspot extension beyond the paper's uniform runs. It is not YCSB's
	// zipfian generator (see ZipfTheta).
	Zipfian
)

// Config describes one workload.
type Config struct {
	// Keys is the keyspace size (5_000 and 10_000 in the paper).
	Keys int
	// ReadOnlyPct is the percentage of read-only transactions (20/50/80).
	ReadOnlyPct int
	// UpdateOps is the number of keys an update transaction reads and
	// writes (2 in the paper).
	UpdateOps int
	// ReadOnlyOps is the number of keys a read-only transaction reads
	// (2 by default; up to 16 in Figure 8).
	ReadOnlyOps int
	// Distribution selects key skew; Locality is used by Local (0..1).
	Distribution Distribution
	Locality     float64
	// ZipfTheta sets the skew for Zipfian (default 0.99): rand.NewZipf gets
	// the exponent s = 1+ZipfTheta (it requires s > 1), a far hotter spot
	// than YCSB's zipfian(θ), whose exponent is θ. At 0.99 over 1 000 keys
	// key 0 is drawn with p = 0.605 and the top four with 0.86 (measured,
	// 10⁶ draws); YCSB's gives key 0 0.129. TestZipfianSkew pins it.
	ZipfTheta float64
	// ValueSize is the size of written values in bytes.
	ValueSize int
}

func (c Config) withDefaults() Config {
	if c.Keys <= 0 {
		c.Keys = 5000
	}
	if c.UpdateOps <= 0 {
		c.UpdateOps = 2
	}
	if c.ReadOnlyOps <= 0 {
		c.ReadOnlyOps = 2
	}
	if c.Distribution == 0 {
		c.Distribution = Uniform
	}
	if c.ZipfTheta <= 0 {
		c.ZipfTheta = 0.99
	}
	if c.ValueSize <= 0 {
		c.ValueSize = 32
	}
	return c
}

// OpKind distinguishes transaction profiles.
type OpKind uint8

// Transaction profiles.
const (
	// ReadOnlyTxn reads ReadOnlyOps keys.
	ReadOnlyTxn OpKind = iota + 1
	// UpdateTxn reads and overwrites UpdateOps keys.
	UpdateTxn
)

// Txn is one generated transaction: the keys to access and the profile.
type Txn struct {
	Kind OpKind
	Keys []string
}

// Generator produces transactions for one client. Not safe for concurrent
// use: make one per client goroutine.
type Generator struct {
	cfg    Config
	rng    *rand.Rand
	node   wire.NodeID
	local  []string // keys replicated on the client's node (Local only)
	all    []string
	zipf   *rand.Zipf
	valBuf []byte
}

// KeyName returns the canonical name of the i-th key.
func KeyName(i int) string { return fmt.Sprintf("usertable:%08d", i) }

// NewGenerator builds a generator for a client co-located with node.
// lookup is needed for the Local distribution; it may be the zero Lookup
// otherwise.
func NewGenerator(cfg Config, node wire.NodeID, lookup cluster.Lookup, seed int64) *Generator {
	cfg = cfg.withDefaults()
	g := &Generator{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(seed)),
		node:   node,
		valBuf: make([]byte, cfg.ValueSize),
	}
	g.all = make([]string, cfg.Keys)
	for i := range g.all {
		g.all[i] = KeyName(i)
	}
	if cfg.Distribution == Local {
		for _, k := range g.all {
			if lookup.IsReplica(k, node) {
				g.local = append(g.local, k)
			}
		}
	}
	if cfg.Distribution == Zipfian {
		g.zipf = rand.NewZipf(g.rng, zipfS(cfg.ZipfTheta), 1, uint64(cfg.Keys-1))
	}
	return g
}

// zipfS maps ZipfTheta to rand.Zipf's s parameter (s > 1 required).
func zipfS(theta float64) float64 {
	s := 1.0 + theta
	if s <= 1 {
		s = math.Nextafter(1, 2)
	}
	return s
}

// Keyspace returns all key names, for preloading.
func Keyspace(keys int) []string {
	out := make([]string, keys)
	for i := range out {
		out[i] = KeyName(i)
	}
	return out
}

// Next generates the next transaction.
func (g *Generator) Next() Txn {
	if g.rng.Intn(100) < g.cfg.ReadOnlyPct {
		return Txn{Kind: ReadOnlyTxn, Keys: g.pickKeys(g.cfg.ReadOnlyOps)}
	}
	return Txn{Kind: UpdateTxn, Keys: g.pickKeys(g.cfg.UpdateOps)}
}

// Value generates a fresh value payload.
func (g *Generator) Value() []byte {
	g.rng.Read(g.valBuf)
	out := make([]byte, len(g.valBuf))
	copy(out, g.valBuf)
	return out
}

// pickKeys draws n distinct keys.
func (g *Generator) pickKeys(n int) []string {
	if n > g.cfg.Keys {
		n = g.cfg.Keys
	}
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for len(out) < n {
		k := g.pickOne()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, k)
	}
	return out
}

func (g *Generator) pickOne() string {
	switch g.cfg.Distribution {
	case Local:
		if len(g.local) > 0 && g.rng.Float64() < g.cfg.Locality {
			return g.local[g.rng.Intn(len(g.local))]
		}
		return g.all[g.rng.Intn(len(g.all))]
	case Zipfian:
		return g.all[int(g.zipf.Uint64())]
	default:
		return g.all[g.rng.Intn(len(g.all))]
	}
}
