package main

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"randperm/internal/service"
)

// stack is one boot of a workload's servers on loopback listeners.
type stack struct {
	urls     []string
	services []*service.Server
	servers  []*http.Server
	wg       sync.WaitGroup // one per Serve goroutine
}

// boot listens first, because a cluster's peer list is every node's URL,
// then builds each node's service with wrap around its handler (wrap may
// be nil) and starts serving.
func boot(cfgs []service.Config, wrap func(node int, h http.Handler) http.Handler) (*stack, error) {
	st := &stack{}
	lns := make([]net.Listener, len(cfgs))
	for k := range cfgs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:k] {
				l.Close()
			}
			return nil, err
		}
		lns[k] = ln
		st.urls = append(st.urls, "http://"+ln.Addr().String())
	}
	for k, cfg := range cfgs {
		if len(cfgs) > 1 {
			cfg.ClusterPeers, cfg.ClusterNode = st.urls, k
		}
		s, err := service.New(cfg)
		if err != nil {
			for _, l := range lns[k:] {
				l.Close()
			}
			st.close()
			return nil, err
		}
		var h http.Handler = s
		if wrap != nil {
			h = wrap(k, s)
		}
		srv := &http.Server{Handler: h}
		st.services = append(st.services, s)
		st.servers = append(st.servers, srv)
		st.wg.Add(1)
		go func(ln net.Listener) {
			defer st.wg.Done()
			srv.Serve(ln) // returns http.ErrServerClosed after close
		}(lns[k])
	}
	return st, nil
}

// close stops every server, drops its connections and waits for the
// Serve goroutines to return.
func (st *stack) close() {
	for _, srv := range st.servers {
		srv.Close()
	}
	st.wg.Wait()
}

// tally is what the oracle needs of one distinct request: the CRC of
// its first answer, how many answers had that CRC, and the CRCs of any
// that differed. The client keeps tallies, not one record per request,
// so its memory follows the distinct requests and the peak RSS a run
// reports does not grow with its throughput.
type tally struct {
	crc    uint32
	n      int64
	others []uint32
}

func (t *tally) add(crc uint32) {
	switch {
	case t.n == 0 && len(t.others) == 0:
		t.crc, t.n = crc, 1
	case crc == t.crc:
		t.n++
	default:
		t.others = append(t.others, crc)
	}
}

// reqKey is what the oracle needs to recompute one response.
type reqKey struct {
	seed   uint64
	arg    int64
	verify bool
}

// conn is one closed-loop client: one keep-alive connection, one
// goroutine, one request at a time. It speaks HTTP/1.1 on the socket
// itself: net/http's client runs two more goroutines per connection,
// and their hand-offs would add cross-CPU wake-ups to every request
// that the service under test never asked for.
type conn struct {
	id      int
	addr    string    // host:port of the node it talks to
	name    string    // X-Permd-Client value, "" for none
	items   int64     // values one answer holds
	epoch   time.Time // the rig's start, which part logs count from
	nc      net.Conn  // nil until dialed, and again after a failure
	br      *bufio.Reader
	bw      *bufio.Writer
	buf     []byte
	rng     *rand.Rand // reservoir sampling
	tallies map[reqKey]tally
	failed  int64    // answers other than a 200 read to its end
	parts   *partLog // the phase being driven
}

func newConn(id int, url string, named bool, items int64, epoch time.Time) *conn {
	c := &conn{
		id:      id,
		addr:    strings.TrimPrefix(url, "http://"),
		items:   items,
		epoch:   epoch,
		buf:     make([]byte, 64<<10),
		rng:     rand.New(rand.NewPCG(uint64(id), 0)),
		tallies: map[reqKey]tally{},
	}
	if named {
		c.name = "permload-" + strconv.Itoa(id)
	}
	return c
}

// do sends req, tallies the answer's CRC-32C and logs its timing. With
// tracing on it records the client span and passes its id in
// benchReqHeader.
func (c *conn) do(req request, tr *tracer) {
	var sid int64
	if tr != nil && tr.enabled.Load() {
		sid = tr.nextID.Add(1)
		// Peer calls carry no header. Only cluster-cold makes them and
		// it has one connection, so the in-flight request caused them.
		tr.inflight.Store(sid)
	}
	began := time.Now()
	crc, ok := c.roundTrip(req.path, sid)
	end := time.Now()
	if ok {
		k := reqKey{seed: req.seed, arg: req.arg, verify: req.verify}
		t := c.tallies[k]
		t.add(crc)
		c.tallies[k] = t
	} else {
		c.failed++
	}
	if sid != 0 {
		tr.add(span{id: sid, start: tr.ns(began), end: tr.ns(end), kind: kindClient, node: -1, from: -1, seed: req.seed})
	}
	us := func(t time.Time) float64 { return float64(t.Sub(c.epoch).Nanoseconds()) / 1e3 }
	c.parts.observe(us(began), us(end), ok, req.fresh, c.items, c.rng)
}

// roundTrip sends GET path (naming spanID in benchReqHeader when it is
// not 0) and drains the response body through CRC-32C. It reports
// whether the answer was a 200 read to its end; after anything else the
// connection is dropped and the next request dials a new one.
func (c *conn) roundTrip(path string, spanID int64) (crc uint32, ok bool) {
	if c.nc == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, false
		}
		c.nc, c.br, c.bw = nc, bufio.NewReaderSize(nc, 64<<10), bufio.NewWriter(nc)
	}
	c.bw.WriteString("GET ")
	c.bw.WriteString(path)
	c.bw.WriteString(" HTTP/1.1\r\nHost: permload\r\n")
	if c.name != "" {
		c.bw.WriteString("X-Permd-Client: " + c.name + "\r\n")
	}
	if spanID != 0 {
		c.bw.WriteString(benchReqHeader + ": " + strconv.FormatInt(spanID, 10) + "\r\n")
	}
	c.bw.WriteString("\r\n")
	err := c.bw.Flush()
	var resp *http.Response
	if err == nil {
		resp, err = http.ReadResponse(c.br, nil)
	}
	if err == nil {
		for {
			n, rerr := resp.Body.Read(c.buf)
			crc = crc32.Update(crc, castagnoli, c.buf[:n])
			if rerr != nil {
				err = rerr
				break
			}
		}
		resp.Body.Close()
		ok = errors.Is(err, io.EOF) && resp.StatusCode == http.StatusOK
		if resp.Close {
			c.close()
		}
	}
	if !ok {
		c.close()
	}
	return crc, ok
}

func (c *conn) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
}

// rig is a booted stack with its client connections.
type rig struct {
	w     workload
	info  workloadInfo
	st    *stack
	conns []*conn
	tr    *tracer // nil on untraced runs
	epoch time.Time
}

func startRig(w workload, tr *tracer) (*rig, error) {
	var wrap func(int, http.Handler) http.Handler
	if tr != nil {
		wrap = tr.wrap
	}
	st, err := boot(w.configs(), wrap)
	if err != nil {
		return nil, err
	}
	r := &rig{w: w, info: w.info(), st: st, tr: tr, epoch: time.Now()}
	for i := 0; i < r.info.conns; i++ {
		r.conns = append(r.conns, newConn(i, st.urls[0], r.info.clientHeader, r.info.items, r.epoch))
	}
	return r, nil
}

func (r *rig) close() {
	r.st.close()
	for _, c := range r.conns {
		c.close()
	}
}

// drive runs every connection in a closed loop for d and returns what
// each logged; every connection sends at least one request.
func (r *rig) drive(d time.Duration) phase {
	from := float64(time.Since(r.epoch).Nanoseconds()) / 1e3
	deadline := time.Now().Add(d)
	ph := make(phase, len(r.conns))
	var wg sync.WaitGroup
	for i, c := range r.conns {
		ph[i] = newPartLog(from, d)
		c.parts = ph[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c.do(r.w.next(c.id), r.tr)
				if !time.Now().Before(deadline) {
					return
				}
			}
		}()
	}
	wg.Wait()
	return ph
}

// bootTime boots a fresh stack, sends req and returns the time until its
// body was read, failing unless the body's CRC is want.
func bootTime(w workload, req request, want uint32) (time.Duration, error) {
	began := time.Now()
	r, err := startRig(w, nil)
	if err != nil {
		return 0, err
	}
	defer r.close()
	crc, ok := r.conns[0].roundTrip(req.path, 0)
	d := time.Since(began)
	if !ok || crc != want {
		return 0, fmt.Errorf("set-up request %s: ok=%v crc=%08x, want %08x", req.path, ok, crc, want)
	}
	return d, nil
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", f[1], err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}
