package provhttp

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"syscall"
	"time"
)

const (
	maxIdleConns = 16  // idle connections a Client keeps: scatter-gather queries reuse a warm pool
	drainMax     = 512 // unread bytes of a known-length answer Close reads to keep its connection
)

// A conn is one keep-alive connection to the daemon (DESIGN.md §3a); a
// round trip is written and read on the caller's goroutine.
type conn struct {
	net.Conn
	br     *bufio.Reader
	buf    []byte          // the request being written (reused)
	raw    syscall.RawConn // alive's peek, through raw
	peek   func(fd uintptr) bool
	peeked [1]byte
	open   bool
}

// getConn returns an idle connection still open, if reuse, or a new one.
func (c *Client) getConn(ctx context.Context, reuse bool) (cn *conn, reused bool, err error) {
	c.mu.Lock()
	for n := len(c.idle); reuse && n > 0; n = len(c.idle) {
		cn, c.idle = c.idle[n-1], c.idle[:n-1]
		c.mu.Unlock()
		if cn.alive() {
			return cn, true, nil
		}
		cn.Close() //nolint:errcheck // the daemon closed it
		c.mu.Lock()
	}
	c.mu.Unlock()
	nc, err := (&net.Dialer{Timeout: 30 * time.Second}).DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, false, err
	}
	return &conn{Conn: nc, br: bufio.NewReader(nc)}, false, nil
}

// putConn returns cn to the pool, or closes it when the pool is full.
func (c *Client) putConn(cn *conn) {
	c.mu.Lock()
	if len(c.idle) < maxIdleConns {
		c.idle, cn = append(c.idle, cn), nil
	}
	c.mu.Unlock()
	if cn != nil {
		cn.Close() //nolint:errcheck // surplus
	}
}

// An exchange is one round trip. It is the body of the answer it returns,
// and its Close decides whether the connection goes back to the pool.
type exchange struct {
	c                *Client
	caller           context.Context    // the caller's: its end is returned bare
	ctx              context.Context    // the caller's, bounded by timeout=
	cancel           context.CancelFunc // ends ctx's timeout=
	method, p, trace string
	conn             *conn
	stop             func() bool   // unhooks the close-on-cancel; nil for a context that cannot end
	body             io.ReadCloser // the body as ReadResponse framed it
	left             int64         // a known-length body's unread bytes; negative if unknown
	eof, keep        bool          // the body was read to its end; the answer allows reuse
}

// send writes the request in one Write and reads the head of its answer,
// whose body is x. A reused connection that fails before the answer's first
// byte is retried once on a new one; an append only if none of it went out.
func (x *exchange) send(target, spanID string, body []byte) (*http.Response, error) {
	for retry := true; ; retry = false {
		cn, reused, err := x.c.getConn(x.ctx, retry)
		if err != nil {
			return nil, x.fail(err)
		}
		x.conn = cn
		if x.ctx.Done() != nil {
			x.stop = context.AfterFunc(x.ctx, func() { cn.Close() }) //nolint:errcheck // unblocks the round trip
		}
		req := x.appendRequest(cn.buf[:0], target, spanID, body)
		if cap(req) <= 64<<10 { // a bulk append's buffer is not kept
			cn.buf = req
		}
		n, err := cn.Write(req)
		if err == nil {
			_, err = cn.br.Peek(1)
		}
		if err == nil {
			var resp *http.Response
			if resp, err = http.ReadResponse(cn.br, nil); err == nil {
				x.body, x.left, x.keep = resp.Body, resp.ContentLength, !resp.Close
				resp.Body = x
				return resp, nil
			}
			retry = false // the answer had begun
		}
		x.release(false)
		if !retry || !reused || x.ctx.Err() != nil || (x.p == "/v1/append" && n > 0) {
			return nil, x.fail(err)
		}
	}
}

// appendRequest appends the request's head and body to b.
func (x *exchange) appendRequest(b []byte, target, spanID string, body []byte) []byte {
	b = append(append(append(b, x.method...), ' '), target...)
	b = append(append(b, " HTTP/1.1\r\nHost: "...), x.c.addr...)
	b = append(append(b, "\r\nAccept: "+contentTypeFrames+", */*\r\n"+headerTraceID+": "...), x.trace...)
	if spanID != "" {
		b = append(append(b, "\r\n"+headerSpanID+": "...), spanID...)
	}
	if body != nil {
		ctype := "application/json" // a /v1/query body
		if x.p == "/v1/append" {
			ctype = contentTypeFrames // an Append's record frames
		}
		b = append(append(b, "\r\nContent-Type: "...), ctype...)
	}
	if x.method != http.MethodGet {
		b = strconv.AppendInt(append(b, "\r\nContent-Length: "...), int64(len(body)), 10)
	}
	return append(append(b, "\r\n\r\n"...), body...)
}

// fail returns the caller's cancellation bare, else err named by the
// request and its trace id: a deadline error when timeout= ran out.
func (x *exchange) fail(err error) error {
	x.cancel()
	if cerr := x.caller.Err(); cerr != nil {
		return cerr
	}
	if cerr := x.ctx.Err(); cerr != nil {
		err = cerr
	}
	return fmt.Errorf("provhttp: %s %s [trace %s]: %w", x.method, x.p, x.trace, err)
}

// Read reads the answer's body.
func (x *exchange) Read(b []byte) (int, error) {
	n, err := x.body.Read(b)
	x.left -= int64(n) // stays negative for an unknown length
	switch {
	case err == io.EOF:
		x.eof = true
	case err != nil && x.ctx.Err() != nil:
		err = x.fail(err)
	}
	return n, err
}

// Close puts the connection back if the body, a known-length one's last few
// bytes read here, was read to its end; else it closes it, ending a stream.
func (x *exchange) Close() error {
	if x.conn == nil {
		return nil
	}
	if !x.eof && x.left >= 0 && x.left <= drainMax {
		io.Copy(io.Discard, x) //nolint:errcheck // what it read decides
	}
	x.release(x.eof && x.keep)
	x.cancel()
	return nil
}

// release puts the connection back if keep holds and no cancellation hit it.
func (x *exchange) release(keep bool) {
	if unhooked := x.stop == nil || x.stop(); keep && unhooked {
		x.c.putConn(x.conn)
	} else {
		x.conn.Close() //nolint:errcheck // not reused
	}
	x.conn, x.stop = nil, nil
}
