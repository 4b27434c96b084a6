package main

import (
	"bytes"
	"hash/maphash"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// senders is the number of sending goroutines and the connection cap:
	// one per core of the 2-core machine the benchmark targets, so the
	// generator never outnumbers the server's workers.
	senders = 2
	// warmupDuration runs before every window, unmeasured.
	warmupDuration = 2 * time.Second
)

// sendFunc performs one request and leaves the response body in buf.
type sendFunc func(r *request, buf *bytes.Buffer) (status int, err error)

// httpSender posts requests to base over at most `senders` keep-alive
// connections. The returned func closes them.
func httpSender(base string) (sendFunc, func()) {
	tr := &http.Transport{MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders, DisableCompression: true}
	client := &http.Client{Transport: tr, Timeout: 2 * time.Minute}
	send := func(r *request, buf *bytes.Buffer) (int, error) {
		resp, err := client.Post(base+r.path(), "application/json", bytes.NewReader(r.body))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		return resp.StatusCode, err
	}
	return send, tr.CloseIdleConnections
}

// response is what the recorder keeps of one request.
type response struct {
	idx    int   // request index in its stream
	status int   // HTTP status; 0 on a transport error
	body   int32 // distinct-body id; -1 unless status is 200
	size   int32
	// lat runs from the send (closed loop) or the due time (open loop) to
	// the last body byte; rtt always from the send. lag is how late the
	// generator sent: after the due time (open), or after the previous
	// response (closed).
	lat, rtt, lag time.Duration
	elapsed       time.Duration // the server's elapsed_ns
	// at is when the request was sent (closed loop) or due (open loop),
	// from the stream's start: it places the request in a bin.
	at time.Duration
}

// distinct is one distinct response body and the first request that got
// it. Bodies differing only in elapsed_ns are the same body.
type distinct struct {
	idx   int
	body  []byte
	count int
}

// recorder collects one stream's responses. Each sender appends to its own
// slice; the distinct-body table is shared under mu.
type recorder struct {
	keep   bool // store bodies for the output checks
	seed   maphash.Seed
	mu     sync.Mutex
	seen   map[uint64]int32
	bodies []distinct
	errs   []string // the first few failures, for the log
	per    [senders][]response
}

func newRecorder(keep bool) *recorder {
	return &recorder{keep: keep, seed: maphash.MakeSeed(), seen: make(map[uint64]int32)}
}

var elapsedKey = []byte(`"elapsed_ns": `)

// splitElapsed returns the server-reported elapsed_ns and the body with
// that value cut out: head and tail around it.
func splitElapsed(body []byte) (elapsed time.Duration, head, tail []byte) {
	i := bytes.Index(body, elapsedKey)
	if i < 0 {
		return 0, body, nil
	}
	j := i + len(elapsedKey)
	k := j
	for k < len(body) && body[k] >= '0' && body[k] <= '9' {
		k++
	}
	ns, _ := strconv.ParseInt(string(body[j:k]), 10, 64)
	return time.Duration(ns), body[:j], body[k:]
}

func (rec *recorder) record(c int, r *request, resp response, body []byte, err error) {
	resp.size = int32(len(body))
	resp.body = -1
	if err == nil && resp.status == http.StatusOK {
		var head, tail []byte
		resp.elapsed, head, tail = splitElapsed(body)
		if rec.keep {
			var h maphash.Hash
			h.SetSeed(rec.seed)
			h.Write(r.body)
			h.Write(head)
			h.Write(tail)
			sum := h.Sum64()
			rec.mu.Lock()
			id, ok := rec.seen[sum]
			if !ok {
				id = int32(len(rec.bodies))
				rec.seen[sum] = id
				rec.bodies = append(rec.bodies, distinct{idx: resp.idx, body: bytes.Clone(body)})
			}
			rec.bodies[id].count++
			rec.mu.Unlock()
			resp.body = id
		}
	} else {
		msg := ""
		if err != nil {
			msg = err.Error()
		} else {
			msg = "status " + strconv.Itoa(resp.status) + ": " + string(bytes.TrimSpace(body))
		}
		rec.mu.Lock()
		if len(rec.errs) < 5 {
			rec.errs = append(rec.errs, r.path()+" "+msg)
		}
		rec.mu.Unlock()
	}
	rec.per[c] = append(rec.per[c], resp)
}

// responses returns every recorded response.
func (rec *recorder) responses() []response {
	var all []response
	for _, p := range rec.per {
		all = append(all, p...)
	}
	return all
}

// drive sends stream s from `senders` goroutines, starting now, and returns
// the time from start to the last response. A closed loop (no list) sends
// each sender's next request think after its previous one completed, until
// dur has passed; an open loop sends every listed request at its due time
// after start, late if both senders are busy, and times it from the due
// time.
func drive(s stream, send sendFunc, start time.Time, dur, think time.Duration, rec *recorder) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	var last [senders]time.Time
	deadline := start.Add(dur)
	for c := 0; c < senders; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			ready := start
			for {
				if s.list == nil && !time.Now().Before(deadline) {
					return
				}
				i := int(next.Add(1) - 1)
				r, ok := s.get(i)
				if !ok {
					return
				}
				origin := ready
				if s.list != nil {
					origin = start.Add(r.due)
					if d := time.Until(origin); d > 0 {
						time.Sleep(d)
					}
				}
				t0 := time.Now()
				status, err := send(&r, &buf)
				t1 := time.Now()
				resp := response{idx: i, status: status, rtt: t1.Sub(t0), lag: t0.Sub(origin), at: t0.Sub(start)}
				resp.lat = resp.rtt
				if s.list != nil {
					resp.lat, resp.at = t1.Sub(origin), r.due
				}
				rec.record(c, &r, resp, buf.Bytes(), err)
				ready, last[c] = t1, t1
				if think > 0 {
					time.Sleep(think)
					ready = time.Now()
				}
			}
		}(c)
	}
	wg.Wait()
	end := start
	for _, t := range last {
		if t.After(end) {
			end = t
		}
	}
	return end.Sub(start)
}
