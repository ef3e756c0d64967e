package engine

import (
	"testing"

	"github.com/sss-paper/sss/internal/transport"
)

// TestCheckedWorkloadDuplicateDelivery runs the checked mixed workload over
// a network that delivers every remote message twice — the at-least-once
// amplifier. The TCP transport's resend path (internal/transport, tcpStream)
// may deliver any peer message more than once after a link transition; this
// suite is the executable form of the per-message-kind idempotency audit in
// docs/ARCHITECTURE.md ("Peer-link liveness & at-least-once delivery"):
// every wire kind a peer can receive twice must leave the history
// serializable and the replicas convergent. Runs under -race in CI.
func TestCheckedWorkloadDuplicateDelivery(t *testing.T) {
	runCheckedWorkloadNet(t, 3, 2, 4, 6, 40, 50, 7,
		transport.InProcConfig{DisableLatency: true, DuplicateDeliveries: true}, nil)
}

// TestCheckedWorkloadDuplicateDeliveryReplicated widens the amplifier to a
// replicated 4-node cluster where freeze/purge batches fan out — the shapes
// whose dedupe (stamp-keeps-smallest, idempotent purges) the audit leans on.
func TestCheckedWorkloadDuplicateDeliveryReplicated(t *testing.T) {
	stressEnabled(t)
	runCheckedWorkloadNet(t, 4, 2, 6, 8, 40, 50, 8,
		transport.InProcConfig{DisableLatency: true, DuplicateDeliveries: true}, nil)
}
