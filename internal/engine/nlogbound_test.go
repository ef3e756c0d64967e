package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sss-paper/sss/kv"
)

// TestNLogHoldsOnlyUpdatesInFlight pins what a node's NLog retains: an
// applied commit leaves it once the external clock covers its commit clock,
// which its own freeze landing here does, so under 16 concurrent clients no
// node ever holds more entries than there are update transactions in
// flight, and every node holds none once the clients are idle.
func TestNLogHoldsOnlyUpdatesInFlight(t *testing.T) {
	const clients, perClient, nkeys = 16, 40, 12
	nodes := newCluster(t, 3, 2, Config{})
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		for _, nd := range nodes {
			nd.Preload(keys[i], []byte("0"))
		}
	}
	// started counts update transactions begun, returned those whose Commit
	// call has returned: started − returned bounds the updates in flight.
	var started, returned atomic.Int64
	var peak atomic.Int64
	stop := make(chan struct{})
	sampled := make(chan error, 1)
	go func() {
		var err error
		defer func() { sampled <- err }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			done := returned.Load() // read before the lengths: a lower bound
			for i, nd := range nodes {
				n := int64(nd.log.Len())
				if n > peak.Load() {
					peak.Store(n)
				}
				if inFlight := started.Load() - done; n > inFlight && err == nil {
					err = fmt.Errorf("node %d holds %d NLog entries with at most %d updates in flight", i, n, inFlight)
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(c)))
			nd := nodes[c%len(nodes)]
			for i := 0; i < perClient; i++ {
				started.Add(1)
				err := func() error {
					tx := nd.Begin(false)
					for _, k := range []string{keys[r.Intn(nkeys)], keys[r.Intn(nkeys)]} {
						if _, _, err := tx.Read(k); err != nil {
							return err
						}
						if err := tx.Write(k, []byte{byte(i)}); err != nil {
							return err
						}
					}
					return tx.Commit()
				}()
				returned.Add(1)
				if err != nil && !errors.Is(err, kv.ErrAborted) {
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	if err := <-sampled; err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for i, nd := range nodes {
		for nd.log.Len() > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := nd.log.Len(); n != 0 {
			t.Fatalf("node %d holds %d NLog entries with no update in flight", i, n)
		}
	}
	t.Logf("peak NLog entries on one node: %d (%d clients)", peak.Load(), clients)
}
