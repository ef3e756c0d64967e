package harness

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"testing"
	"time"
)

// testRelay starts a relay to target on a fresh loopback port with the given
// one-way delay, closed with the test.
func testRelay(t *testing.T, target string, oneWay time.Duration) *linkRelay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := startLinkRelay(ln, target)
	r.setDelay(oneWay)
	t.Cleanup(r.close)
	return r
}

// echoServer accepts connections and echoes lines back.
func echoServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer func() { _ = conn.Close() }()
				r := bufio.NewReader(conn)
				for {
					line, err := r.ReadBytes('\n')
					if len(line) > 0 {
						if _, werr := conn.Write(line); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestLinkRelayAddsRTT checks a request/response through the relay pays at
// least the configured round trip (one-way delay in each direction), while a
// direct connection stays far under it.
func TestLinkRelayAddsRTT(t *testing.T) {
	target := echoServer(t)
	const oneWay = 5 * time.Millisecond
	r := testRelay(t, target, oneWay)

	conn, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	br := bufio.NewReader(conn)

	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := fmt.Fprintf(conn, "ping %d\n", i); err != nil {
			t.Fatal(err)
		}
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		rtt := time.Since(start)
		if line != fmt.Sprintf("ping %d\n", i) {
			t.Fatalf("echo corrupted: %q", line)
		}
		if rtt < 2*oneWay {
			t.Fatalf("round trip %v under the %v floor", rtt, 2*oneWay)
		}
	}
}

// TestLinkRelayPipelines sends a burst of messages back-to-back: the relay
// must deliver them ~one RTT after the burst, not one RTT each — delay, not
// a throughput cap.
func TestLinkRelayPipelines(t *testing.T) {
	target := echoServer(t)
	const oneWay = 10 * time.Millisecond
	r := testRelay(t, target, oneWay)

	conn, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	br := bufio.NewReader(conn)

	const n = 20
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := fmt.Fprintf(conn, "m%d\n", i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if line != fmt.Sprintf("m%d\n", i) {
			t.Fatalf("message %d corrupted or reordered: %q", i, line)
		}
	}
	elapsed := time.Since(start)
	if elapsed < 2*oneWay {
		t.Fatalf("burst beat the RTT floor: %v", elapsed)
	}
	// Serialized delivery would cost n RTTs (400ms); allow generous slack
	// for scheduling while still catching a per-message sleep.
	if elapsed > time.Duration(n)*oneWay {
		t.Fatalf("burst of %d took %v: relay serializes instead of pipelining", n, elapsed)
	}
}

// TestLinkRelayClose severs in-flight connections so clients see EOF
// instead of hanging.
func TestLinkRelayClose(t *testing.T) {
	target := echoServer(t)
	r := testRelay(t, target, time.Millisecond)
	conn, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	br := bufio.NewReader(conn)
	if _, err := fmt.Fprintln(conn, "hello"); err != nil {
		t.Fatal(err)
	}
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}

	r.close()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := br.ReadString('\n'); err == nil {
		t.Fatal("read on a severed relay connection succeeded")
	}
}

// TestLinkRelayBlockAndDelay exercises one relay end to end against an
// echo server: traffic flows, a block blackholes it (the dial still
// succeeds), healing severs the parked connection, and a delay set — then
// cleared — at runtime applies to the next chunk of a live connection.
func TestLinkRelayBlockAndDelay(t *testing.T) {
	r := testRelay(t, echoServer(t), 0)

	dial := func() net.Conn {
		t.Helper()
		conn, err := net.DialTimeout("tcp", r.Addr(), time.Second)
		if err != nil {
			t.Fatalf("dial relay: %v", err)
		}
		return conn
	}
	roundTrip := func(conn net.Conn) error {
		if _, err := conn.Write([]byte("hi\n")); err != nil {
			return err
		}
		buf := make([]byte, 3)
		_, err := io.ReadFull(conn, buf)
		return err
	}

	c1 := dial()
	defer c1.Close()
	if err := roundTrip(c1); err != nil {
		t.Fatalf("healthy round trip: %v", err)
	}

	// Block: the live connection is severed, a fresh dial succeeds but its
	// bytes go nowhere.
	r.setBlocked(true)
	c2 := dial()
	defer c2.Close()
	_ = c2.SetDeadline(time.Now().Add(200 * time.Millisecond))
	if err := roundTrip(c2); err == nil {
		t.Fatal("round trip through blocked link succeeded")
	}

	// Heal: parked connection dies, a new one flows again, now delayed.
	r.setBlocked(false)
	r.setDelay(60 * time.Millisecond)
	c3 := dial()
	defer c3.Close()
	start := time.Now()
	if err := roundTrip(c3); err != nil {
		t.Fatalf("post-heal round trip: %v", err)
	}
	if d := time.Since(start); d < 120*time.Millisecond {
		t.Fatalf("delayed round trip took %v, want >= 2 × the 60ms one-way delay", d)
	}
	r.setDelay(0)
	start = time.Now()
	if err := roundTrip(c3); err != nil {
		t.Fatalf("round trip after clearing the delay: %v", err)
	}
	if d := time.Since(start); d >= 60*time.Millisecond {
		t.Fatalf("round trip took %v after setDelay(0) on the live connection", d)
	}
}

// TestReserveHoldsRelayPorts pins the port-race fix: every relay listener is
// opened while the 3N server ports are still held, and is adopted without
// ever being closed — so no relay can sit on a port a server is about to
// bind.
func TestReserveHoldsRelayPorts(t *testing.T) {
	const n = 3
	c := &Cluster{cfg: Config{Nodes: n, PeerLinkControl: true}}
	if err := c.reserve(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Shutdown() }()

	servers := make(map[string]bool)
	for _, set := range [][]string{c.peerAddrs, c.clientAddrs, c.metricsAddrs} {
		for _, a := range set {
			servers[a] = true
		}
	}
	if len(servers) != 3*n {
		t.Fatalf("server addresses collide: %d distinct of %d", len(servers), 3*n)
	}
	var relays []*linkRelay
	for i, row := range c.links {
		for j, r := range row {
			if i != j {
				relays = append(relays, r)
			}
		}
	}
	if len(relays) != n*(n-1) {
		t.Fatalf("%d relays, want %d", len(relays), n*(n-1))
	}
	for _, r := range relays {
		if servers[r.Addr()] {
			t.Fatalf("relay listens on reserved server address %s", r.Addr())
		}
		// Still open: the listener it was reserved with is the one accepting.
		conn, err := net.DialTimeout("tcp", r.Addr(), time.Second)
		if err != nil {
			t.Fatalf("relay listener %s was closed: %v", r.Addr(), err)
		}
		_ = conn.Close()
	}
}
