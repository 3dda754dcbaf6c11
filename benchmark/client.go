package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection. The load generator writes
// pre-rendered request bytes and parses only what it needs from the
// response, so that on a two-core box the client's own cost stays small
// beside the server's.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// do sends one request and reads one response. The body it returns is
// valid until the next call. Responses must carry Content-Length, which
// both the daemon and the echo server do on the measured endpoints.
func (c *conn) do(req []byte) (status int, body []byte, err error) {
	if err := c.c.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
		return 0, nil, err
	}
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length := -1
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		const cl = "content-length:"
		if len(line) > len(cl) && bytes.EqualFold(line[:len(cl)], []byte(cl)) {
			length, err = strconv.Atoi(string(bytes.TrimSpace(line[len(cl):])))
			if err != nil {
				return 0, nil, fmt.Errorf("bad content-length %q", line)
			}
		}
	}
	if length < 0 {
		return 0, nil, errors.New("response without Content-Length")
	}
	if cap(c.body) < length {
		c.body = make([]byte, length)
	}
	c.body = c.body[:length]
	if _, err := io.ReadFull(c.br, c.body); err != nil {
		return 0, nil, err
	}
	return status, c.body, nil
}

// pointRequest renders GET /distance for the pair. Build parameters are
// omitted so the daemon answers from the oracle it built at start-up.
func pointRequest(u, v int32) []byte {
	return []byte(fmt.Sprintf("GET /distance?graph=%s&u=%d&v=%d HTTP/1.1\r\nHost: bench\r\n\r\n", graphName, u, v))
}

// batchRequest renders POST /distance-batch carrying body. contentType
// selects the daemon's binary or JSON decoding.
func batchRequest(contentType string, body []byte) []byte {
	head := fmt.Sprintf("POST /distance-batch?graph=%s HTTP/1.1\r\nHost: bench\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
		graphName, contentType, len(body))
	return append([]byte(head), body...)
}

const (
	ctPairsBinary = "application/x-reprod-pairs"
	ctJSON        = "application/json"
)

// encodePairsFrame builds the daemon's dense binary request frame:
// "RPB1" | count u32 | count × (u i32, v i32), little-endian.
func encodePairsFrame(pairs [][2]int32) []byte {
	out := make([]byte, 8+8*len(pairs))
	copy(out, "RPB1")
	binary.LittleEndian.PutUint32(out[4:], uint32(len(pairs)))
	for i, p := range pairs {
		binary.LittleEndian.PutUint32(out[8+8*i:], uint32(p[0]))
		binary.LittleEndian.PutUint32(out[12+8*i:], uint32(p[1]))
	}
	return out
}

// decodeDistsFrame parses the daemon's binary answer:
// "RPD1" | count u32 | count × dist i64.
func decodeDistsFrame(b []byte) ([]int64, error) {
	if len(b) < 8 || string(b[:4]) != "RPD1" {
		return nil, errors.New("not an RPD1 frame")
	}
	n := int(binary.LittleEndian.Uint32(b[4:]))
	if len(b) != 8+8*n {
		return nil, fmt.Errorf("RPD1 frame of %d bytes announces %d distances", len(b), n)
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8+8*i:]))
	}
	return out, nil
}

// target is one server a closed loop drives: its connections, the process
// whose CPU is charged, and the position in the request list, which is
// kept across slices so a server sees the whole list in turn.
type target struct {
	p      *proc
	conns  []*conn
	cursor int
}

func newTarget(p *proc, conns int) (*target, error) {
	t := &target{p: p}
	for i := 0; i < conns; i++ {
		c, err := dial(p.addr)
		if err != nil {
			t.close()
			return nil, err
		}
		t.conns = append(t.conns, c)
	}
	return t, nil
}

func (t *target) close() {
	for _, c := range t.conns {
		c.close()
	}
}

// slice is what one server did during a stretch of closed-loop load.
type slice struct {
	requests int
	failed   int
	wallSum  float64   // seconds its requests took, summed over connections
	cpu      float64   // seconds of server CPU
	lat      []float64 // per-request seconds, kept only when asked for
}

// perRequest is the mean wall time of one request as a client saw it.
func (s slice) perRequest() float64 { return s.wallSum / float64(s.requests) }

// cpuPerRequest is the server CPU one request cost.
func (s slice) cpuPerRequest() float64 { return s.cpu / float64(s.requests) }

func (s *slice) add(o slice) {
	s.requests += o.requests
	s.failed += o.failed
	s.wallSum += o.wallSum
	s.cpu += o.cpu
	s.lat = append(s.lat, o.lat...)
}

// burst sends n requests back to back on c, starting at reqs[idx] and
// stepping by stride, and adds what happened to s. It stops at the first
// failed request and reports false.
func burst(c *conn, reqs [][]byte, idx, stride, n int, keepLat bool, s *slice) bool {
	start := time.Now()
	last := start
	ok := true
	for k := 0; k < n && ok; k++ {
		status, _, err := c.do(reqs[(idx+k*stride)%len(reqs)])
		s.requests++
		if err != nil || status != 200 {
			s.failed++
			ok = false
		}
		if keepLat {
			now := time.Now()
			s.lat = append(s.lat, now.Sub(last).Seconds())
			last = now
		}
	}
	s.wallSum += time.Since(start).Seconds()
	return ok
}

// closedLoop sends perConn requests on each connection of t, each
// connection sending its next request as soon as the previous answer is
// complete. Connection i takes requests cursor+i, cursor+i+C, ... of reqs,
// cyclically.
func closedLoop(t *target, reqs [][]byte, perConn int, keepLat bool) (slice, error) {
	cpu0, err := t.p.cpuSeconds()
	if err != nil {
		return slice{}, err
	}
	parts := make([]slice, len(t.conns))
	var wg sync.WaitGroup
	for i, c := range t.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			burst(c, reqs, t.cursor+i, len(t.conns), perConn, keepLat, &parts[i])
		}()
	}
	wg.Wait()
	cpu1, err := t.p.cpuSeconds()
	if err != nil {
		return slice{}, err
	}
	var s slice
	for _, p := range parts {
		s.add(p)
	}
	s.cpu = cpu1 - cpu0
	t.cursor = (t.cursor + s.requests) % len(reqs)
	return s, nil
}

// interleave drives a and b together for dur. Every connection pair
// alternates bursts of burstLen requests to a and to b, so that within a
// few milliseconds both servers have met the same host conditions; the
// CPU each used is read once before and once after. The two slices it
// returns are therefore a matched pair however the host's speed moved.
func interleave(a, b *target, reqs [][]byte, burstLen int, dur time.Duration, keepLat bool) (sa, sb slice, err error) {
	cpuOf := func() (ca, cb float64, err error) {
		if ca, err = a.p.cpuSeconds(); err != nil {
			return
		}
		cb, err = b.p.cpuSeconds()
		return
	}
	ca0, cb0, err := cpuOf()
	if err != nil {
		return
	}
	n := len(a.conns)
	pa, pb := make([]slice, n), make([]slice, n)
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ia, ib := a.cursor+i, b.cursor+i
			for ok := true; ok && time.Now().Before(deadline); {
				ok = burst(a.conns[i], reqs, ia, n, burstLen, keepLat, &pa[i]) &&
					burst(b.conns[i], reqs, ib, n, burstLen, keepLat, &pb[i])
				ia += n * burstLen
				ib += n * burstLen
			}
		}()
	}
	wg.Wait()
	ca1, cb1, err := cpuOf()
	if err != nil {
		return
	}
	for i := 0; i < n; i++ {
		sa.add(pa[i])
		sb.add(pb[i])
	}
	sa.cpu, sb.cpu = ca1-ca0, cb1-cb0
	a.cursor = (a.cursor + sa.requests) % len(reqs)
	b.cursor = (b.cursor + sb.requests) % len(reqs)
	return sa, sb, nil
}
