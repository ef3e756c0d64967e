// The harness's one TCP relay: a loopback proxy with a runtime-adjustable
// one-way delay and a block switch.
//
// With Config.PeerLinkControl, every directed peer link i→j is routed
// through its own loopback TCP relay: node i's -peers address book lists
// relay(i→j) in slot j (and its own real listen address in slot i), and
// relay(i→j) forwards to node j's real transport address. That gives the
// harness a per-direction grip on the network without root or netem:
//
//   - Block: a blocked relay parks new connections unserviced (dials
//     succeed, bytes vanish into the socket buffer — the TCP shape of a
//     dropped-packets partition, exercising the timeout paths rather than
//     fast connection resets) and severs in-flight ones. Healing closes the
//     parked connections so both transports redial through the open relay.
//   - Delay: chunks are timestamped at read and released at stamp+delay, so
//     the relay adds latency without capping throughput (what netem does for
//     a real NIC); mutable at runtime and per direction, which is what an
//     asymmetric-delay nemesis needs.
package harness

import (
	"net"
	"sync"
	"time"
)

// linkRelay proxies one directed link with runtime-adjustable delay and a
// block switch.
type linkRelay struct {
	ln     net.Listener
	target string

	mu      sync.Mutex
	oneWay  time.Duration
	blocked bool
	conns   map[net.Conn]struct{} // live proxied pairs
	parked  []net.Conn            // accepted while blocked, never serviced
	closed  bool
}

// startLinkRelay adopts the already-open listener ln and relays its
// connections to target (dialed per connection, so target need not be up yet).
func startLinkRelay(ln net.Listener, target string) *linkRelay {
	r := &linkRelay{ln: ln, target: target, conns: make(map[net.Conn]struct{})}
	go r.acceptLoop()
	return r
}

// Addr returns the relay's listening address — what the source side dials.
func (r *linkRelay) Addr() string { return r.ln.Addr().String() }

func (r *linkRelay) acceptLoop() {
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return
		}
		go r.serve(conn)
	}
}

// setBlocked flips the link's block switch. Blocking severs live
// connections; unblocking closes the parked ones so the dialer notices and
// redials through the now-open link.
func (r *linkRelay) setBlocked(blocked bool) {
	r.mu.Lock()
	r.blocked = blocked
	var toClose []net.Conn
	if blocked {
		for c := range r.conns {
			toClose = append(toClose, c)
		}
	} else {
		toClose = r.parked
		r.parked = nil
	}
	r.mu.Unlock()
	for _, c := range toClose {
		_ = c.Close()
	}
}

// setDelay changes the one-way delay applied to chunks read from now on.
func (r *linkRelay) setDelay(d time.Duration) {
	r.mu.Lock()
	r.oneWay = d
	r.mu.Unlock()
}

func (r *linkRelay) delay() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.oneWay
}

// serve proxies one connection, or parks it when the link is blocked.
func (r *linkRelay) serve(src net.Conn) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		_ = src.Close()
		return
	}
	if r.blocked {
		r.parked = append(r.parked, src)
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()

	dst, err := net.DialTimeout("tcp", r.target, 5*time.Second)
	if err != nil {
		_ = src.Close()
		return
	}
	r.mu.Lock()
	if r.closed || r.blocked {
		r.mu.Unlock()
		_ = src.Close()
		_ = dst.Close()
		return
	}
	r.conns[src] = struct{}{}
	r.conns[dst] = struct{}{}
	r.mu.Unlock()

	done := make(chan struct{}, 2)
	go r.pipe(dst, src, done)
	go r.pipe(src, dst, done)
	<-done // either side failing (EOF/reset/sever) kills the pair
	_ = src.Close()
	_ = dst.Close()
	<-done
	r.mu.Lock()
	delete(r.conns, src)
	delete(r.conns, dst)
	r.mu.Unlock()
}

// pipe copies src→dst, releasing each chunk one-way-delayed per the delay
// in force when the chunk was read. The read loop never sleeps — chunks
// queue with due times — so delayed links keep full throughput.
func (r *linkRelay) pipe(dst, src net.Conn, done chan<- struct{}) {
	type chunk struct {
		data []byte
		due  time.Time
	}
	ch := make(chan chunk, 4096)
	go func() {
		defer func() { done <- struct{}{} }()
		for c := range ch {
			if d := time.Until(c.due); d > 0 {
				time.Sleep(d)
			}
			if _, err := dst.Write(c.data); err != nil {
				for range ch { // drain so the reader never blocks
				}
				return
			}
		}
	}()
	for {
		buf := make([]byte, 32<<10)
		n, err := src.Read(buf)
		if n > 0 {
			ch <- chunk{data: buf[:n], due: time.Now().Add(r.delay())}
		}
		if err != nil {
			close(ch)
			return
		}
	}
}

// close stops accepting and severs everything, parked included.
func (r *linkRelay) close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	conns := make([]net.Conn, 0, len(r.conns)+len(r.parked))
	for c := range r.conns {
		conns = append(conns, c)
	}
	conns = append(conns, r.parked...)
	r.parked = nil
	r.mu.Unlock()
	_ = r.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
}
