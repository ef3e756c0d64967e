// Package transport provides the messaging substrate shared by the SSS
// engine and its competitor engines: a batched, pooled, flow-controlled
// runtime (see runtime.go) under two Network implementations:
//
//   - InProc: an in-process simulated network with configurable one-way
//     delivery latency (default 20µs, matching the paper's InfiniBand
//     testbed). This is the substrate used by tests and by the benchmark
//     harness; it substitutes for the paper's physical cluster while
//     exercising exactly the same message-passing code paths, including
//     per-peer batch coalescing.
//   - TCP: a real transport for multi-process deployments, with one outbound
//     TCP connection per peer, drained by one sender goroutine that coalesces
//     queued envelopes into batch frames.
//
// Either way a node reaches each peer over one ordered link that every
// message kind shares: the paper's prioritized network component (§V) is
// not reproduced (docs/ARCHITECTURE.md says why).
//
// On top of either, RPC provides request/response correlation with
// deadlines given as a time.Time — a fan-out (Multi) is N sends and one wait
// on the calling goroutine, its deadline served by the fan-out's one pooled
// timer, and Call is its one-target case; one-way notifications share the
// same path.
package transport

import (
	"errors"

	"github.com/sss-paper/sss/internal/wire"
)

// ErrClosed is returned by operations on a closed endpoint or network.
var ErrClosed = errors.New("transport: closed")

// ErrUnknownNode is returned when sending to a node that never joined.
var ErrUnknownNode = errors.New("transport: unknown node")

// Handler consumes an inbound envelope. Handlers are allowed to block
// indefinitely (the SSS Decide handler, for instance, blocks until the
// pre-commit drain completes): the transport dispatches through a bounded
// worker pool that spills to a dedicated goroutine whenever every worker is
// busy, so a blocked handler can neither stall dispatch of later messages
// nor deadlock the endpoint.
type Handler func(env wire.Envelope)

// Endpoint is one node's attachment to a Network.
type Endpoint interface {
	// ID returns the node ID this endpoint joined as.
	ID() wire.NodeID
	// Send enqueues env for delivery to node to and returns immediately:
	// delivery is asynchronous, coalesced into batches by a per-peer
	// sender. Self-sends are permitted, bypass simulated latency and
	// batching, and go straight to the local dispatch pool. Send never
	// blocks on the receiver's handler.
	Send(to wire.NodeID, env wire.Envelope) error
	// Close detaches the endpoint; subsequent Sends fail with ErrClosed.
	Close() error
}

// Network connects a set of node endpoints.
type Network interface {
	// Join attaches handler h as node id and returns its endpoint.
	Join(id wire.NodeID, h Handler) (Endpoint, error)
	// Close tears down the network and waits for in-flight deliveries.
	Close() error
}
